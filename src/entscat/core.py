"""Parameter space, spin channels, and shared result containers.

A spin-1/2 mediator X is scattered off two qubits A and B pinned at
x = -d/2 and x = +d/2, each acting through a delta-shaped spin-dependent
potential.  All physics downstream is a function of three dimensionless
numbers:

    omega_a = m g_a / (hbar^2 k)    opacity of site A
    omega_b = m g_b / (hbar^2 k)    opacity of site B
    phase   = k d                   propagation phase across the gap

plus the choice of coupling model.  The phase enters every amplitude only
through exp(2i*phase), so observables are periodic in ``phase`` with period
pi; :func:`validate` folds the phase into [0, pi) once so that everything
downstream sees a canonical value.

The physical-unit layer speaks the conventional units g in [hbar^2 pi/(m d)]
and k in [pi/d], in which omega = g/k and phase = pi*k*d.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DomainError(ValueError):
    """An input parameter lies outside its physical domain."""


class ValidationError(DomainError):
    """A parameter failed one of the domain rules of :func:`check_rules`."""


class UnsupportedModelError(ValueError):
    """The requested operation is not defined for this coupling model."""


class NumericError(RuntimeError):
    """A numeric solve failed; carries the offending parameter point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ModelKind(Enum):
    """Coupling model between the mediator and each qubit.

    SPIN_EXCHANGE: pure exchange coupling g (s+ s- + s- s+); the mediator
    does not feel a site whose spin matches its own.
    HEISENBERG_CONTACT: full sigma.sigma contact coupling; the mediator
    scatters off a site in either relative spin state.
    """

    SPIN_EXCHANGE = "xy"
    HEISENBERG_CONTACT = "heis"


@dataclass(frozen=True)
class DimensionlessPoint:
    """A complete parameter point: site opacities, gap phase, model.

    ``phase_original`` is populated by :func:`validate` when the phase had
    to be folded into [0, pi); it preserves the caller's raw value.
    """

    omega_a: float
    omega_b: float
    phase: float
    model: ModelKind
    phase_original: float | None = None

    @property
    def sin2_kd(self) -> float:
        s = math.sin(self.phase)
        return s * s


@dataclass(frozen=True)
class PhysicalPoint:
    """Couplings and momentum in paper-style units: g in [hbar^2 pi/(m d)],
    k in [pi/d], separation d as a multiple of the unit length."""

    g_a: float
    g_b: float
    k: float
    d: float = 1.0


@dataclass(frozen=True)
class SiteCoefficients:
    """Single-scatterer amplitudes.

    t, r, f: transmission, reflection, and spin-flip amplitude when the
    mediator spin differs from the site spin (the flip amplitude is the
    same in transmission and reflection).  t_same, r_same: transmission and
    reflection when the spins match; the exchange model is transparent
    there (1, 0).
    """

    t: complex
    r: complex
    f: complex
    t_same: complex
    r_same: complex


@dataclass(frozen=True)
class AmplitudeSet:
    """Two-site transmission/reflection amplitudes for the three open
    channels, with unit incident normalization.  All channels share the
    incident momentum, so the fluxes |.|^2 sum to exactly 1."""

    t_noflip: complex
    r_noflip: complex
    t_flipb: complex
    r_flipb: complex
    t_flipa: complex
    r_flipa: complex

    def as_tuple(self) -> tuple[complex, ...]:
        return (
            self.t_noflip,
            self.r_noflip,
            self.t_flipb,
            self.r_flipb,
            self.t_flipa,
            self.r_flipa,
        )

    def flux(self) -> float:
        return sum(abs(z) ** 2 for z in self.as_tuple())


@dataclass(frozen=True)
class ObservableSet:
    """Concurrence, amplitude ratio, and detection probability per side.

    Concurrence and ratio are ``None`` exactly when both flip amplitudes of
    that side are 0, never a silent 0.  The probability is their squared
    norm and can underflow to 0.0 while C is still defined (at opacities
    near 1e-300, P = 0.0 with C = 1.0).  The ratio may be ``inf`` when only
    the A-flip branch survives.
    """

    concurrence_t: float | None
    probability_t: float
    ratio_a_t: float | None
    concurrence_r: float | None
    probability_r: float
    ratio_a_r: float | None


def opacity_ok(omega):
    """Whether ``omega`` is a finite, non-negative opacity, the domain of
    every opacity.  Elementwise on numpy arrays."""
    return (omega >= 0.0) & (omega < math.inf)


_OPACITY = "must be finite and non-negative"


def first_cell(bad, *arrays):
    """The values of ``arrays`` at the first cell, in row-major order, where
    ``bad`` is true, all broadcast together; as Python scalars."""
    bad, *arrays = np.broadcast_arrays(bad, *arrays)
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return [a[index].item() for a in arrays]


def check_rules(*rules):
    """Raise ValidationError for the first failing rule, each a (name, value,
    ok, requirement) with ``ok`` the verdict on ``value``.  Elementwise: where
    a verdict is a numpy array, the error is the one that the first failing
    cell, in row-major order, raises as a point of its own."""
    for i, (name, value, ok, requirement) in enumerate(rules):
        if ok is False:
            raise ValidationError(f"{name} {requirement}, got {value!r}")
        if ok is not True:  # numpy verdicts from here on: find the first failing cell
            names, values, oks, requirements = zip(*rules[i:])
            bad = ~functools.reduce(operator.and_, oks)
            if bad.any():
                cell = first_cell(bad, *values, *oks)
                check_rules(*zip(names, cell[: len(oks)], cell[len(oks):], requirements))
            return


def check_point(pt: DimensionlessPoint, *rules) -> None:
    """:func:`check_rules` on ``rules``, then on the domain of ``pt``: each
    opacity finite and non-negative, the phase finite."""
    check_rules(
        *rules,
        ("omega_a", pt.omega_a, opacity_ok(pt.omega_a), _OPACITY),
        ("omega_b", pt.omega_b, opacity_ok(pt.omega_b), _OPACITY),
        ("phase", pt.phase, abs(pt.phase) < math.inf, "must be finite"),
    )


def check_opacity(name: str, omega: float) -> None:
    """Raise ValidationError unless ``omega`` passes :func:`opacity_ok`."""
    if not opacity_ok(omega):
        check_rules((name, omega, False, _OPACITY))


def fold_phase(phase):
    """``phase`` folded into [0, pi).  Elementwise on numpy arrays."""
    folded = phase % math.pi
    return folded - math.pi * (folded >= math.pi)  # a tiny negative phase rounds up to pi


def validate(pt: DimensionlessPoint) -> DimensionlessPoint:
    """Check domains and fold the phase into the canonical window [0, pi).

    Raises ValidationError for non-finite or negative opacities and for a
    non-finite phase.  Returns the point unchanged when already canonical.
    Elementwise on a point whose fields are equal-shape numpy arrays: the
    error is the one that the first failing cell raises on its own, and
    ``phase_original`` keeps the raw phases of every cell.
    """
    phase = pt.phase
    if (
        not isinstance(phase, np.ndarray)
        and 0.0 <= phase < math.pi
        and opacity_ok(pt.omega_a)
        and opacity_ok(pt.omega_b)
    ):
        return pt
    check_point(pt)
    original = phase if pt.phase_original is None else pt.phase_original
    return DimensionlessPoint(pt.omega_a, pt.omega_b, fold_phase(phase), pt.model, original)


def to_dimensionless(p: PhysicalPoint, model: ModelKind) -> DimensionlessPoint:
    """Convert paper-unit couplings and momentum to the dimensionless point.

    In these units omega = g/k and phase = pi*k*d.  Raises ValidationError
    when k or d is not positive and finite, a coupling is negative or not
    finite, or the conversion overflows.  Elementwise on numpy arrays."""
    k, d = p.k, p.d
    rules = [(n, x, (x > 0.0) & (x < math.inf), "must be positive and finite") for n, x in (("k", k), ("d", d))]
    for n, g in (("g_a", p.g_a), ("g_b", p.g_b)):
        rules.append((n, g, opacity_ok(g), "must be a finite non-negative coupling"))
    if not isinstance(k, np.ndarray):
        check_rules(rules[0])  # a zero k must not reach the division
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pt = DimensionlessPoint(p.g_a / k, p.g_b / k, math.pi * k * d, model)
    check_point(pt, *rules)
    return pt
