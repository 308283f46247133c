"""Optimization of concurrence and detection probability (exchange model).

The (omega_a, omega_b) quadrant splits into three regimes.  The weight
ratio ranges over

    omega_a/omega_b  <=  a  <=  (omega_a/omega_b)(1 + 2 omega_b^2)

as sin^2(kd) sweeps [0, 1], so a = 1 (unit concurrence) is reachable
exactly when omega_b/(1 + 2 omega_b^2) <= omega_a <= omega_b.  Left of
that region the best phase is the resonance sin^2(kd) = 1; right of it,
sin^2(kd) = 0.  The detection probability is always maximal at resonance,
and along the unit-concurrence resonance curve
omega_a = omega_b/(1 + 2 omega_b^2) it has a single interior maximum that
:func:`find_global_p_opt` locates by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .core import NumericError, check_opacity
from .observables import concurrence, model1_probability, model1_ratio


class Regime(Enum):
    LEFT_REGION = "left"
    UNIT_CONCURRENCE_REGION = "unit"
    RIGHT_REGION = "right"


@dataclass(frozen=True)
class OptimalityReport:
    """Best reachable concurrence at fixed couplings, the phase choice
    sin^2(kd) that attains it, and the probability paid for it."""

    omega_a: float
    omega_b: float
    phase_choice: float
    concurrence: float
    probability: float
    regime: Regime


class UnitPhase(NamedTuple):
    """Result of the unit-concurrence phase equation; ``sin2_kd`` is None
    when no phase can reach a = 1, with ``reason`` saying why."""

    sin2_kd: float | None
    reason: str | None


def probability_at_resonance(omega_a, omega_b):
    """Detection probability at the resonant phase sin^2(kd) = 1.

    This is the phase-optimal probability for the given couplings.  Its
    supremum over the quadrant is 1/2, approached along omega_a = 1/sqrt(2)
    as omega_b grows without bound; no finite point attains it.
    """
    return model1_probability(omega_a, omega_b, 1)


def unit_concurrence_phase(omega_a: float, omega_b: float) -> UnitPhase:
    """Solve sin^2(kd) for unit concurrence (a = 1) at fixed couplings:

        sin^2(kd) = (omega_b^2 - omega_a^2) / (4 omega_a^2 omega_b^2 (1 + omega_b^2))

    Feasible exactly when omega_a/omega_b <= 1 <= (omega_a/omega_b)(1 + 2 omega_b^2).
    """
    check_opacity("omega_a", omega_a)
    check_opacity("omega_b", omega_b)
    # as Python floats (exact for numpy scalars), whose overflow to inf below
    # is silent where numpy's would warn
    omega_a, omega_b = float(omega_a), float(omega_b)
    if omega_a == 0.0:
        return UnitPhase(None, "flip amplitude of A vanishes (omega_a = 0)")
    if omega_a > omega_b:
        return UnitPhase(None, "minimum ratio omega_a/omega_b exceeds 1 at every phase")
    if omega_a == omega_b:
        return UnitPhase(0.0, None)
    b2 = omega_b * omega_b
    # grouped so the squares of tiny opacities never underflow; the positive
    # numerator over a denominator that still underflows to 0 is +inf
    den = 4.0 * omega_a * omega_b * (1.0 + b2)
    s = ((omega_b - omega_a) / omega_a) * ((omega_b + omega_a) / omega_b) / den if den else math.inf
    # feasibility judged on the solved phase itself; the relative slack lets
    # points on the float-rounded boundary curve through, clamped to 1
    if not s <= 1.0 + 1e-12:
        return UnitPhase(None, "maximum ratio stays below 1 even at resonance")
    return UnitPhase(min(max(s, 0.0), 1.0), None)


def optimal_concurrence(omega_a: float, omega_b: float) -> OptimalityReport:
    """Best concurrence over all phases at fixed couplings.

    The region is the verdict of :func:`unit_concurrence_phase` alone: where
    it solves a phase the report carries C = 1 there; elsewhere the region
    is right when omega_a > omega_b, with the anti-resonant phase optimal,
    and left otherwise, with the resonant one.  So at the region's edges,
    where the solved phase rounds just past 1, the report and that verdict
    never disagree.  The degenerate corners (either opacity zero) report
    C = 0: one or both flip branches are empty there.  Raises NumericError
    where the probability is not finite in float64 (opacities beyond about
    1e77).
    """
    unit = unit_concurrence_phase(omega_a, omega_b)
    if unit.sin2_kd is not None:
        s, c, regime = unit.sin2_kd, 1.0, Regime.UNIT_CONCURRENCE_REGION
    else:
        s, regime = (0.0, Regime.RIGHT_REGION) if omega_a > omega_b else (1.0, Regime.LEFT_REGION)
        ratio = 0.0 if omega_a == 0.0 else model1_ratio(omega_a, omega_b, s)
        c = concurrence(ratio, 1.0) if ratio <= 1.0 else concurrence(1.0, ratio)
    try:
        p = model1_probability(omega_a, omega_b, s)
    except OverflowError:  # its (1 + a + b) ** 2
        p = math.nan
    if not math.isfinite(p):
        raise NumericError(f"probability is not finite in float64 at omega_a={omega_a!r}, omega_b={omega_b!r}")
    return OptimalityReport(omega_a, omega_b, s, c, p, regime)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
P_OPT_BRACKET = (0.1, 10.0)  # omega_b range searched by find_global_p_opt
_P_OPT_TOL = 1e-10


def golden_section_maximize(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi].

    One new function evaluation per iteration; returns the midpoint of the
    final bracket once its width drops below ``tol``.
    """
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _parabolic_refine(f: Callable[[float], float], x: float, steps=(1e-3, 1e-4, 1e-5)) -> float:
    # Quadratic-vertex polish: comparison-based search stalls at the
    # function-value noise floor (~1e-8 in position here); fitting the
    # local parabola over well-separated points recovers ~1e-10.
    for h in steps:
        fl, fc, fr = f(x - h), f(x), f(x + h)
        curvature = fl - 2.0 * fc + fr
        if curvature < 0.0:
            x += 0.5 * h * (fl - fr) / curvature
    return x


def resonance_curve_probability(omega_b: float) -> float:
    """Resonant probability on the unit-concurrence curve
    omega_a = omega_b/(1 + 2 omega_b^2)."""
    return probability_at_resonance(omega_b / (1.0 + 2.0 * omega_b * omega_b), omega_b)


def reference_optimum_omega_b() -> float:
    """Algebraic root of the on-curve probability's stationarity condition,
    used as an independent cross-check of the search:

        omega_b = sqrt((1 + cbrt(37 - 3 sqrt(114)) + cbrt(37 + 3 sqrt(114))) / 6)
    """
    s = 3.0 * math.sqrt(114.0)
    return math.sqrt((1.0 + (37.0 - s) ** (1.0 / 3.0) + (37.0 + s) ** (1.0 / 3.0)) / 6.0)


def find_global_p_opt():
    """Maximize the detection probability subject to unit concurrence.

    Searches the resonance curve with golden section on the compact
    P_OPT_BRACKET (whose endpoints slope inward, so the maximum is
    interior), then polishes the vertex.  Returns (omega_a, omega_b, p).
    """
    omega_b = golden_section_maximize(resonance_curve_probability, *P_OPT_BRACKET, _P_OPT_TOL)
    omega_b = _parabolic_refine(resonance_curve_probability, omega_b)
    omega_a = omega_b / (1.0 + 2.0 * omega_b * omega_b)
    return omega_a, omega_b, probability_at_resonance(omega_a, omega_b)
