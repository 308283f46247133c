"""The verification battery: its checks, its stacked oracle solve against the
per-point loop it replaced, and the direct dressing series against a
high-precision sum."""

import math

import numpy as np
import pytest

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    amplitudes,
    dressed_coefficients,
    observables_at,
    run_verification,
    site_coefficients,
    solve_amplitudes_numeric,
)
from entscat.verify import CheckResult, VerificationReport, _series_sigma, sample_points

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT
DRESSING = "heis: dressing vs direct series"


def _reference_series_sigma(f, r_own, r_same_partner, e2):
    """The direct series with every power from ``np.power``."""
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
    powers = np.power(q, np.arange(terms))
    return prefactor * complex(powers[::-1].sum())


def _reference_dressing_deviation(pt):
    a = site_coefficients(pt.omega_a, pt.model)
    b = site_coefficients(pt.omega_b, pt.model)
    e2 = complex(math.cos(2.0 * pt.phase), math.sin(2.0 * pt.phase))
    *_, sigma_a, sigma_b = dressed_coefficients(pt)
    series_a = _reference_series_sigma(a.f, a.r, b.r_same, e2)
    series_b = _reference_series_sigma(b.f, b.r, a.r_same, e2)
    return max(abs(sigma_a - series_a), abs(sigma_b - series_b))


def _reference_verification(samples, seed, models=(XY, HEIS), tolerance=1e-10):
    """The battery solved one point at a time, as it ran before the oracle
    was stacked."""
    report = VerificationReport(samples_per_model=samples, seed=seed)
    for model in models:
        tag = model.value
        agree = CheckResult(f"{tag}: closed vs numeric amplitudes", tolerance)
        uni_closed = CheckResult(f"{tag}: closed-form flux unitarity", 1e-12)
        uni_numeric = CheckResult(f"{tag}: numeric flux unitarity", tolerance)
        extras = []
        if model is XY:
            closure = CheckResult(f"{tag}: no-flip flux + 2P closure", 1e-12)
            sides = CheckResult(f"{tag}: transmitted/reflected symmetry", 1e-12)
            extras = [closure, sides]
        else:
            dressing = CheckResult(f"{tag}: dressing vs direct series", 1e-12)
            extras = [dressing]

        for pt in sample_points(model, samples, seed):
            closed = amplitudes(pt)
            numeric = solve_amplitudes_numeric(pt)
            deviation = max(abs(x - y) for x, y in zip(closed.as_tuple(), numeric.as_tuple()))
            agree.update(deviation, pt)
            uni_closed.update(abs(closed.flux() - 1.0), pt)
            uni_numeric.update(abs(numeric.flux() - 1.0), pt)
            if model is XY:
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
                dressing.update(_reference_dressing_deviation(pt), pt)

        report.checks += [agree, uni_closed, uni_numeric, *extras]
    return report


class TestCheckResult:
    def test_nan_deviation_is_the_worst_and_fails_the_check(self):
        check = CheckResult("x", 1e-12)
        first, bad, later = (DimensionlessPoint(w, 1.0, 0.5, HEIS) for w in (1.0, 2.0, 3.0))
        check.update(1e-15, first)
        check.update(math.nan, bad)
        check.update(1e-13, later)  # a later finite deviation does not hide it
        assert math.isnan(check.worst)
        assert check.worst_point == bad
        assert not check.ok

    def test_largest_deviation_wins(self):
        check = CheckResult("x", 1e-12)
        small, large = (DimensionlessPoint(w, 1.0, 0.5, HEIS) for w in (1.0, 2.0))
        check.update(1e-15, small)
        check.update(1e-14, large)
        check.update(1e-16, small)
        assert (check.worst, check.worst_point, check.ok) == (1e-14, large, True)


@pytest.mark.parametrize("samples", [0, -3])
def test_battery_rejects_fewer_than_one_sample(samples):
    with pytest.raises(DomainError, match="samples must be >= 1"):
        run_verification(samples, 1)


@pytest.mark.parametrize("seed", [1, 42])
def test_battery_matches_the_per_point_loop(seed):
    stacked = run_verification(200, seed)
    reference = _reference_verification(200, seed)
    assert [c.name for c in stacked.checks] == [c.name for c in reference.checks]
    for got, want in zip(stacked.checks, reference.checks):
        assert got.tolerance == want.tolerance
        assert type(got.worst) is float
        if got.name == DRESSING:
            # only the way the series' partial sum is formed changed
            assert abs(got.worst - want.worst) <= 1e-13
        else:
            assert (got.worst, got.worst_point) == (want.worst, want.worst_point), got.name
    assert stacked.ok and reference.ok


def _resonant_point(omega):
    """Equal opacities at the phase where q = r * r_same * e^{2i phase} is
    real and positive, so that |1 - q| = 1 - |q|."""
    c = site_coefficients(omega, HEIS)
    loop = c.r * c.r_same
    return DimensionlessPoint(omega, omega, (-0.5 * math.atan2(loop.imag, loop.real)) % math.pi, HEIS)


def _series_inputs(pt):
    """The two (f, r_own, r_same_partner, e2) argument sets of the dressing check."""
    a = site_coefficients(pt.omega_a, HEIS)
    b = site_coefficients(pt.omega_b, HEIS)
    e2 = complex(math.cos(2.0 * pt.phase), math.sin(2.0 * pt.phase))
    return [(a.f, a.r, b.r_same, e2), (b.f, b.r, a.r_same, e2)]


# Near resonance the float rounding of q alone moves the sum by about
# 1e-16 * |sum| / |1 - q|; the points keep |1 - q| >= 1e-3 so that this stays
# below the bound (at omega = 50 on resonance it is 1.6e-13 for any float sum).
NEAR_RESONANT = [_resonant_point(w) for w in (15.0, 20.0, 30.0)] + [
    DimensionlessPoint(20.0, 15.0, _resonant_point(20.0).phase + 0.01, HEIS),
    DimensionlessPoint(30.0, 20.0, _resonant_point(30.0).phase - 0.02, HEIS),
]


@pytest.mark.parametrize(
    "points",
    [sample_points(HEIS, 40, 42), NEAR_RESONANT],
    ids=["seeded", "near-resonant"],
)
def test_series_matches_a_high_precision_geometric_sum(points):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for pt in points:
            for f, r_own, r_same_partner, e2 in _series_inputs(pt):
                f_, r_, s_, e_ = (mpmath.mpc(z) for z in (f, r_own, r_same_partner, e2))
                exact = f_ * f_ * s_ * e_ / (1 - r_ * s_ * e_)
                error = abs(mpmath.mpc(_series_sigma(f, r_own, r_same_partner, e2)) - exact)
                assert error <= 1e-13, (pt, float(error))


def test_near_resonant_points_need_long_series():
    for pt in NEAR_RESONANT:
        f, r_own, r_same_partner, e2 = _series_inputs(pt)[0]
        assert abs(r_own * r_same_partner * e2) >= 0.995
        assert abs(1.0 - r_own * r_same_partner * e2) < 0.1
