"""Seeded randomized cross-validation of the closed forms against the
boundary-matching solver, plus the structural identities each model must
satisfy.  This is what the ``verify`` CLI command runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import amplitudes, dressed_coefficients, site_coefficients
from .core import DimensionlessPoint, ModelKind, validate
from .matching import amplitude_set, build_matching_system, solve_system
from .observables import observables_at


@dataclass
class CheckResult:
    name: str
    tolerance: float
    worst: float = 0.0
    worst_point: DimensionlessPoint | None = None

    @property
    def ok(self) -> bool:
        return self.worst <= self.tolerance

    def update(self, deviation: float, point: DimensionlessPoint) -> None:
        """Keep the largest deviation seen and its point; the first NaN is
        kept as the worst, so the check fails."""
        if deviation > self.worst or (math.isnan(deviation) and not math.isnan(self.worst)):
            self.worst = deviation
            self.worst_point = point


@dataclass
class VerificationReport:
    samples_per_model: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def sample_points(model: ModelKind, samples: int, seed: int) -> list[DimensionlessPoint]:
    """Seeded sample: opacities uniform on [0, 20], phase uniform on [0, pi),
    with the transparent corners forced in."""
    rng = np.random.default_rng(seed)
    points = [
        DimensionlessPoint(0.0, 0.0, 1.0, model),
        DimensionlessPoint(0.0, 1.0, 2.0, model),
        DimensionlessPoint(1.0, 0.0, 0.5, model),
    ]
    n = max(samples - len(points), 0)
    omegas = rng.uniform(0.0, 20.0, size=(n, 2))
    phases = rng.uniform(0.0, math.pi, size=n)
    points += [
        DimensionlessPoint(float(w[0]), float(w[1]), float(p), model)
        for w, p in zip(omegas, phases)
    ]
    return points[:samples]


_BLOCK = 64


def _series_sigma(f: complex, r_own: complex, r_same_partner: complex, e2: complex) -> complex:
    """Direct term-by-term summation of the dressing self-energy, with
    enough terms that the analytic tail bound drops below 1e-14.

    The powers are built as q^(64j) * q^i, so that only one exponent in 64
    takes numpy's general complex power; the others multiply."""
    q = r_own * r_same_partner * e2
    prefactor = f * f * r_same_partner * e2
    mag_q = abs(q)
    if abs(prefactor) == 0.0:
        return complex(0.0)
    if mag_q == 0.0:
        return prefactor
    terms = 50
    tail_target = 1e-14 * (1.0 - mag_q) / abs(prefactor)
    if tail_target < 1.0:
        terms = max(terms, min(int(math.log(tail_target) / math.log(mag_q)) + 2, 500_000))
    block_powers = np.power(q, _BLOCK * np.arange(-(-terms // _BLOCK)))
    powers = (block_powers[:, None] * np.power(q, np.arange(_BLOCK))).ravel()[:terms]
    return prefactor * complex(powers[::-1].sum())  # small terms first


def dressing_series_deviation(pt: DimensionlessPoint) -> float:
    """Worst difference between the closed dressing sums and their direct
    series evaluation at this point."""
    pt = validate(pt)
    a = site_coefficients(pt.omega_a, pt.model)
    b = site_coefficients(pt.omega_b, pt.model)
    e2 = complex(math.cos(2.0 * pt.phase), math.sin(2.0 * pt.phase))
    _, _, _, _, sigma_a, sigma_b = dressed_coefficients(pt)
    series_a = _series_sigma(a.f, a.r, b.r_same, e2)
    series_b = _series_sigma(b.f, b.r, a.r_same, e2)
    return max(abs(sigma_a - series_a), abs(sigma_b - series_b))


def run_verification(
    samples: int,
    seed: int,
    models: tuple[ModelKind, ...] = (ModelKind.SPIN_EXCHANGE, ModelKind.HEISENBERG_CONTACT),
    tolerance: float = 1e-10,
) -> VerificationReport:
    """Run the full cross-validation battery and collect worst deviations.

    Checks per model: componentwise closed-form vs numeric-solve agreement
    and both unitarity sums.  Exchange model adds the side-symmetry and
    flux-closure identities; contact model adds the dressing series check.
    The oracle solves each model's samples as one stack; the closed side
    runs point by point through the scalar path that ``entscat point`` uses.
    """
    report = VerificationReport(samples_per_model=samples, seed=seed)
    for model in models:
        tag = model.value
        agree = CheckResult(f"{tag}: closed vs numeric amplitudes", tolerance)
        uni_closed = CheckResult(f"{tag}: closed-form flux unitarity", 1e-12)
        uni_numeric = CheckResult(f"{tag}: numeric flux unitarity", tolerance)
        extras: list[CheckResult] = []
        if model is ModelKind.SPIN_EXCHANGE:
            closure = CheckResult(f"{tag}: no-flip flux + 2P closure", 1e-12)
            sides = CheckResult(f"{tag}: transmitted/reflected symmetry", 1e-12)
            extras = [closure, sides]
        else:
            dressing = CheckResult(f"{tag}: dressing vs direct series", 1e-12)
            extras = [dressing]

        points = sample_points(model, samples, seed)
        values = np.array([(p.omega_a, p.omega_b, p.phase) for p in points], dtype=float).reshape(-1, 3)
        stack = DimensionlessPoint(*values.T, model)
        solutions = solve_system(build_matching_system(stack), stack)
        for pt, solution in zip(points, solutions):
            closed = amplitudes(pt)
            numeric = amplitude_set(solution)
            deviation = max(
                abs(x - y) for x, y in zip(closed.as_tuple(), numeric.as_tuple())
            )
            agree.update(deviation, pt)
            uni_closed.update(abs(closed.flux() - 1.0), pt)
            uni_numeric.update(abs(numeric.flux() - 1.0), pt)
            if model is ModelKind.SPIN_EXCHANGE:
                obs = observables_at(pt)
                total = (
                    abs(closed.t_noflip) ** 2
                    + abs(closed.r_noflip) ** 2
                    + obs.probability_t
                    + obs.probability_r
                )
                closure.update(abs(total - 1.0), pt)
                if obs.concurrence_t is not None:
                    sides.update(abs(obs.concurrence_t - obs.concurrence_r), pt)
                sides.update(abs(obs.probability_t - obs.probability_r), pt)
            else:
                dressing.update(dressing_series_deviation(pt), pt)

        report.checks += [agree, uni_closed, uni_numeric, *extras]
    return report
