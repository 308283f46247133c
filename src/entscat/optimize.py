"""Optimization of concurrence and detection probability (exchange model).

The (omega_a, omega_b) quadrant splits into three regimes.  The weight
ratio ranges over

    omega_a/omega_b  <=  a  <=  (omega_a/omega_b)(1 + 2 omega_b^2)

as sin^2(kd) sweeps [0, 1], so a = 1 (unit concurrence) is reachable
exactly when omega_b/(1 + 2 omega_b^2) <= omega_a <= omega_b.  Left of
that region the best phase is the resonance sin^2(kd) = 1; right of it,
sin^2(kd) = 0.  The detection probability is always maximal at resonance,
and along the unit-concurrence resonance curve
omega_a = omega_b/(1 + 2 omega_b^2) it has a single interior maximum, at
the algebraic root that :func:`find_global_p_opt` returns.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .core import NumericError, _dataclass_fields, check_opacity
from .observables import concurrence, model1_probability, model1_ratio


class Regime(Enum):
    LEFT_REGION = "left"
    UNIT_CONCURRENCE_REGION = "unit"
    RIGHT_REGION = "right"


@_dataclass_fields
class OptimalityReport(NamedTuple):
    """Best reachable concurrence at fixed couplings, the phase choice
    sin^2(kd) that attains it, and the probability paid for it.  ``reason``
    is None in the unit-concurrence region, else why no phase reaches C = 1
    (the :class:`UnitPhase` reason)."""

    omega_a: float
    omega_b: float
    phase_choice: float
    concurrence: float
    probability: float
    regime: Regime
    reason: str | None


@_dataclass_fields
class UnitPhase(NamedTuple):
    """Result of the unit-concurrence phase equation; ``sin2_kd`` is None
    when no phase can reach a = 1, with ``reason`` saying why."""

    sin2_kd: float | None
    reason: str | None


def unit_concurrence_phase(omega_a: float, omega_b: float) -> UnitPhase:
    """Solve sin^2(kd) for unit concurrence (a = 1) at fixed couplings:

        sin^2(kd) = (omega_b^2 - omega_a^2) / (4 omega_a^2 omega_b^2 (1 + omega_b^2))

    Feasible exactly when omega_a/omega_b <= 1 <= (omega_a/omega_b)(1 + 2 omega_b^2).
    """
    omega_a, omega_b = check_opacity("omega_a", omega_a), check_opacity("omega_b", omega_b)
    if omega_a == 0.0:
        return UnitPhase(None, "flip amplitude of A vanishes (omega_a = 0)")
    if omega_a > omega_b:
        return UnitPhase(None, "minimum ratio omega_a/omega_b exceeds 1 at every phase")
    if omega_a == omega_b:
        return UnitPhase(0.0, None)
    # grouped so the squares of tiny opacities never underflow; the positive
    # numerator over a denominator that still underflows to 0 is +inf
    den = 4.0 * omega_a * omega_b * (1.0 + omega_b * omega_b)
    if den == math.inf:
        # here omega_b > 1e76, so 1 + omega_b^2 is omega_b^2 in float64, and
        # s = (1 - (omega_a/omega_b)^2) / (2 omega_a omega_b)^2 with no square formed
        ab = 2.0 * omega_a * omega_b
        s = (omega_b - omega_a) / omega_b * (1.0 + omega_a / omega_b) / ab / ab
    else:
        s = ((omega_b - omega_a) / omega_a) * ((omega_b + omega_a) / omega_b) / den if den else math.inf
    # feasibility judged on the solved phase itself; the relative slack lets
    # points on the float-rounded boundary curve through, clamped to 1
    if not s <= 1.0 + 1e-12:
        return UnitPhase(None, "maximum ratio stays below 1 even at resonance")
    return UnitPhase(min(s, 1.0), None)  # s >= 0, as omega_a < omega_b


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
    1e77).  Every field of the report is a Python float, as :func:`check_opacity`
    returns the opacities, so an overflow is silent for numpy scalars too."""
    omega_a, omega_b = check_opacity("omega_a", omega_a), check_opacity("omega_b", omega_b)
    s, reason = unit_concurrence_phase(omega_a, omega_b)
    if s is not None:
        c, regime = 1.0, Regime.UNIT_CONCURRENCE_REGION
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
    return OptimalityReport(omega_a, omega_b, s, c, p, regime, reason)


def find_global_p_opt():
    """Maximize the detection probability subject to unit concurrence.

    The maximum lies on the resonance curve omega_a = omega_b/(1 + 2 omega_b^2),
    where dP/d omega_b vanishes for omega_b > 0 only at the one positive root
    of 4x^3 - 2x^2 - 2x - 1 in x = omega_b^2:

        omega_b = sqrt((1 + cbrt(37 - 3 sqrt(114)) + cbrt(37 + 3 sqrt(114))) / 6)

    Returns (omega_a, omega_b, p).
    """
    surd = 3.0 * math.sqrt(114.0)
    omega_b = math.sqrt((1.0 + (37.0 - surd) ** (1.0 / 3.0) + (37.0 + surd) ** (1.0 / 3.0)) / 6.0)
    omega_a = omega_b / (1.0 + 2.0 * omega_b * omega_b)
    return omega_a, omega_b, model1_probability(omega_a, omega_b, 1)
