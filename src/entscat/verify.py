"""Seeded randomized cross-validation of the closed forms against the
boundary-matching solver, plus the structural identities each model must
satisfy.  This is what the ``verify`` CLI command runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import _dressed, _partial_sum, _site_terms, amplitudes
from .core import DimensionlessPoint, DomainError, ModelKind, NumericError, UnsupportedModelError
from .core import check_count, point_at, validate
from .matching import solve_amplitudes_numeric
from .observables import _observables


@dataclass
class CheckResult:
    name: str
    tolerance: float
    worst: float = 0.0
    worst_point: DimensionlessPoint | None = None

    @property
    def ok(self) -> bool:
        return self.worst <= self.tolerance

    @classmethod
    def from_deviations(cls, name: str, tolerance: float, deviations: np.ndarray, stack: DimensionlessPoint):
        """The check of ``deviations``, one per sample of ``stack``: the worst
        is the first NaN, so the check fails, or else the first largest
        value, with its sample; no sample when every deviation is 0."""
        i = int(np.argmax(deviations))  # the first NaN if there is one
        worst = float(deviations[i])
        return cls(name, tolerance, worst, None if worst == 0.0 else point_at(stack, i))


@dataclass
class VerificationReport:
    samples_per_model: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def sample_points(model: ModelKind, samples: int, seed: int) -> DimensionlessPoint:
    """Seeded sample, as one point whose fields are arrays, unvalidated: the
    transparent corners, then opacities uniform on [0, 20] and phases
    uniform on [0, pi).  Each entry it is handed to validates it."""
    rng = np.random.default_rng(seed)
    corners = [(0.0, 0.0, 1.0), (0.0, 1.0, 2.0), (1.0, 0.0, 0.5)]
    n = max(samples - len(corners), 0)
    omegas = rng.uniform(0.0, 20.0, size=(n, 2))
    phases = rng.uniform(0.0, math.pi, size=n)
    values = np.concatenate([corners, np.column_stack([omegas, phases])])[:samples]
    return DimensionlessPoint(*values.T, model)


def _series_sigma(f, r_own, r_same_partner, e2):
    """Direct summation of the dressing self-energy, f^2 r_same E^2 times
    the partial sum 1 + q + ... + q^(n-1) of :func:`closedform._partial_sum`
    with q = r_own r_same E^2, which never forms the closed form 1/(1 - q).
    Elementwise on numpy arrays.  NaN where |q| >= 1 - 4 eps: q carries a
    few ulps of rounding, so nearer the unit circle float64 cannot tell a
    convergent series from a divergent one (at opacities of about 1e8 and
    above)."""
    q = r_own * r_same_partner * e2
    converges = np.abs(q) < 1.0 - 2.0**-50
    # 2^j terms, j <= 60: wherever q converges, |q|^(2^(j-1)) <= exp(-1500), far below the least
    # subnormal even after the squarings' rounding, so the last doubling's power is 0 and it and each
    # further one up to 2^60 terms multiply the sum by exactly 1 + 0j: every cell has its 2^60-term bits
    largest = np.max(np.abs(q), where=converges, initial=0.0)
    j = 1 if largest == 0.0 else min(60, math.ceil(math.log2(1500.0 / -math.log(largest))) + 1)
    total = _partial_sum(q, 2**j)
    return np.where(converges, f * f * r_same_partner * e2 * total, np.nan)[()]


def dressing_series_deviation(pt: DimensionlessPoint):
    """Worst difference between the closed dressing sums and their direct
    series evaluation at this point: a float, or an array of them, one per
    cell, on a stacked point.

    Raises NumericError where the series does not converge in float64 (see
    :func:`_series_sigma`) or a sum is not finite; on a stack, the error
    that its first failing sample raises alone."""
    pt = validate(pt)
    if pt.model is not ModelKind.HEISENBERG_CONTACT:
        raise UnsupportedModelError("the dressing check exists only for the contact model")
    # a single point runs as a stack of one, so that it rounds as a stack does
    omega_a, omega_b, phase = np.atleast_1d(*np.broadcast_arrays(pt.omega_a, pt.omega_b, pt.phase))
    with np.errstate(all="ignore"):
        a = _site_terms(omega_a, pt.model)
        b = _site_terms(omega_b, pt.model)
        e2 = np.exp(2j * phase)
        *_, sigma_a, sigma_b = _dressed(a, b, e2)
        _, a_r, a_f, _, a_rs = a
        _, b_r, b_f, _, b_rs = b
        # both sites in one call, stacked on a new leading axis
        series_a, series_b = _series_sigma(np.stack([a_f, b_f]), np.stack([a_r, b_r]), np.stack([b_rs, a_rs]), e2)
    bad = ~np.isfinite(sigma_a + sigma_b + series_a + series_b)
    if bad.any():
        cell = point_at(pt, int(np.argmax(bad)))
        raise NumericError(f"dressing check not computable in float64 (|q| ~ 1 or overflow) at {cell!r}", cell)
    deviation = np.maximum(abs(sigma_a - series_a), abs(sigma_b - series_b))
    return float(deviation[0]) if type(pt.phase) is float else deviation  # a stack's phase is an array


def _deviations(stack: DimensionlessPoint) -> list[tuple[str, float, np.ndarray]]:
    """(name, tolerance, deviation per sample) of each check on the stacked
    sample ``stack``: one oracle solve, and the closed side through the same
    stacked :func:`amplitudes` that ``entscat scan`` uses."""
    numeric = solve_amplitudes_numeric(stack)
    closed = amplitudes(stack)
    checks = [
        ("closed vs numeric amplitudes", 1e-10, np.abs(np.subtract(closed, numeric)).max(axis=0)),
        ("closed-form flux unitarity", 1e-12, np.abs(closed.flux() - 1.0)),
        ("numeric flux unitarity", 1e-10, np.abs(numeric.flux() - 1.0)),
    ]
    if stack.model is ModelKind.SPIN_EXCHANGE:
        obs = _observables(closed)
        c_t, p_t, c_r, p_r = obs.concurrence_t, obs.probability_t, obs.concurrence_r, obs.probability_r
        c_gap = np.where(np.isnan(c_t), 0.0, np.abs(c_t - c_r))  # C counts where C_t is defined
        no_flip = abs(closed.t_noflip) ** 2 + abs(closed.r_noflip) ** 2
        return checks + [
            ("no-flip flux + 2P closure", 1e-12, np.abs(no_flip + p_t + p_r - 1.0)),
            ("transmitted/reflected symmetry", 1e-12, np.maximum(c_gap, np.abs(p_t - p_r))),
        ]
    return checks + [("dressing vs direct series", 1e-12, dressing_series_deviation(stack))]


def run_verification(
    samples: int,
    seed: int,
    models: tuple[ModelKind, ...] = tuple(ModelKind),
) -> VerificationReport:
    """Run the full cross-validation battery and collect worst deviations.

    Checks per model: componentwise closed-form vs numeric-solve agreement
    and both unitarity sums.  Exchange model adds the side-symmetry and
    flux-closure identities; contact model adds the dressing series check.
    Each model's samples are checked as one stack.  Raises DomainError for
    a count that is not an integer, fewer than one sample, a negative seed,
    no model or a model given twice, before any sampling.
    """
    samples, seed = check_count("samples", samples, 1), check_count("seed", seed, 0)
    if not models:
        raise DomainError("need at least one model")
    if len(set(models)) != len(models):
        raise DomainError(f"model given twice in {list(models)}")
    report = VerificationReport(samples_per_model=samples, seed=seed)
    for model in models:
        stack = sample_points(model, samples, seed)
        for name, tolerance, deviations in _deviations(stack):
            report.checks.append(CheckResult.from_deviations(f"{model.value}: {name}", tolerance, deviations, stack))
    return report
