"""The verification battery: its checks, its stacked oracle solve against the
per-point loop it replaced, and the direct dressing series against a
high-precision sum."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    UnsupportedModelError,
    amplitudes,
    dressed_coefficients,
    observables_at,
    run_verification,
    site_coefficients,
    solve_amplitudes_numeric,
    validate,
)
import entscat.verify as verify
from entscat.closedform import _partial_sum, _site_terms
from entscat.core import point_at
from entscat.verify import (
    CheckResult,
    VerificationReport,
    _deviations,
    _series_sigma,
    dressing_series_deviation,
    sample_points,
)

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
        terms = max(terms, int(math.log(tail_target) / math.log(mag_q)) + 2)
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


def _reference_samples(model, samples, seed):
    """The seeded sample one point at a time: the transparent corners, then
    the draws of :func:`sample_points` in the same order."""
    rng = np.random.default_rng(seed)
    points = [
        DimensionlessPoint(0.0, 0.0, 1.0, model),
        DimensionlessPoint(0.0, 1.0, 2.0, model),
        DimensionlessPoint(1.0, 0.0, 0.5, model),
    ]
    n = max(samples - len(points), 0)
    omegas = rng.uniform(0.0, 20.0, size=(n, 2))
    phases = rng.uniform(0.0, math.pi, size=n)
    points += [DimensionlessPoint(float(w[0]), float(w[1]), float(p), model) for w, p in zip(omegas, phases)]
    return points[:samples]


def _keep_worst(check, deviation, pt):
    """The per-point rule: keep the largest deviation seen and its point; the
    first NaN is kept as the worst, so the check fails."""
    if deviation > check.worst or (math.isnan(deviation) and not math.isnan(check.worst)):
        check.worst, check.worst_point = deviation, pt


def _reference_verification(samples, seed, models=(XY, HEIS)):
    """The battery run one point at a time through the scalar paths, as it
    ran before the oracle and the closed side were stacked."""
    report = VerificationReport(samples_per_model=samples, seed=seed)
    for model in models:
        tag = model.value
        agree = CheckResult(f"{tag}: closed vs numeric amplitudes", 1e-10)
        uni_closed = CheckResult(f"{tag}: closed-form flux unitarity", 1e-12)
        uni_numeric = CheckResult(f"{tag}: numeric flux unitarity", 1e-10)
        extras = []
        if model is XY:
            closure = CheckResult(f"{tag}: no-flip flux + 2P closure", 1e-12)
            sides = CheckResult(f"{tag}: transmitted/reflected symmetry", 1e-12)
            extras = [closure, sides]
        else:
            dressing = CheckResult(f"{tag}: dressing vs direct series", 1e-12)
            extras = [dressing]

        for pt in _reference_samples(model, samples, seed):
            closed = amplitudes(pt)
            numeric = solve_amplitudes_numeric(pt)
            deviation = max(abs(x - y) for x, y in zip(closed, numeric))
            _keep_worst(agree, deviation, pt)
            _keep_worst(uni_closed, abs(closed.flux() - 1.0), pt)
            _keep_worst(uni_numeric, abs(numeric.flux() - 1.0), pt)
            if model is XY:
                obs = observables_at(pt)
                total = (
                    abs(closed.t_noflip) ** 2
                    + abs(closed.r_noflip) ** 2
                    + obs.probability_t
                    + obs.probability_r
                )
                _keep_worst(closure, abs(total - 1.0), pt)
                if obs.concurrence_t is not None:
                    _keep_worst(sides, abs(obs.concurrence_t - obs.concurrence_r), pt)
                _keep_worst(sides, abs(obs.probability_t - obs.probability_r), pt)
            else:
                _keep_worst(dressing, _reference_dressing_deviation(pt), pt)

        report.checks += [agree, uni_closed, uni_numeric, *extras]
    return report


STACK = validate(DimensionlessPoint(np.arange(1.0, 6.0), np.ones(5), np.full(5, 0.5), HEIS))


def _sample(i):
    """Sample ``i`` of STACK on its own."""
    return DimensionlessPoint(i + 1.0, 1.0, 0.5, HEIS)


def _same(x, y):
    return x == y or math.isnan(x) and math.isnan(y)


class TestCheckResult:
    """A check is one reduction of its deviation array over the stack."""

    def test_nan_deviation_is_the_worst_and_fails_the_check(self):
        check = CheckResult.from_deviations("x", 1e-12, np.array([1e-15, math.nan, 1e-13, math.nan, 0.0]), STACK)
        assert math.isnan(check.worst)  # a later finite deviation does not hide it
        assert check.worst_point == _sample(1)
        assert not check.ok

    def test_largest_deviation_wins(self):
        check = CheckResult.from_deviations("x", 1e-12, np.array([1e-15, 1e-14, 1e-16, 0.0, 1e-15]), STACK)
        assert (check.worst, check.worst_point, check.ok) == (1e-14, _sample(1), True)
        assert type(check.worst) is float

    @pytest.mark.parametrize(
        "deviations, index",
        [
            ([1e-15, 3e-14, 2e-15, 3e-14, 1e-16], 1),  # the first of tied maxima
            ([1e-15, 3e-14, math.nan, 5e-13, math.nan], 2),  # the first NaN beats any value
            ([math.nan, 1.0, 2.0, 3.0, 4.0], 0),
        ],
    )
    def test_the_first_nan_or_else_the_first_largest_wins(self, deviations, index):
        check = CheckResult.from_deviations("x", 1e-12, np.array(deviations), STACK)
        assert check.worst_point == _sample(index)
        assert type(check.worst) is float
        assert _same(check.worst, deviations[index])

    def test_all_zero_leaves_the_point_unset(self):
        check = CheckResult.from_deviations("x", 1e-12, np.zeros(5), STACK)
        assert (check.worst, check.worst_point, check.ok) == (0.0, None, True)
        assert type(check.worst) is float

    @given(st.lists(st.sampled_from([0.0, 1e-15, 3e-14, 5e-13, math.nan]), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_point_rule(self, deviations):
        check = CheckResult.from_deviations("x", 1e-12, np.array(deviations), STACK)
        reference = CheckResult("x", 1e-12)
        for i, d in enumerate(deviations):
            _keep_worst(reference, d, _sample(i))
        assert _same(check.worst, reference.worst)
        assert check.worst_point == reference.worst_point


@pytest.mark.parametrize("samples", [0, -3, 5.5])
def test_battery_rejects_fewer_than_one_sample(samples):
    with pytest.raises(DomainError, match=rf"samples must be an integer >= 1, got {samples}$"):
        run_verification(samples, 1)


def test_battery_rejects_a_negative_seed():
    for seed in (-1, np.int64(-1)):  # a numpy integer shows as a Python int
        with pytest.raises(DomainError, match=r"seed must be an integer >= 0, got -1$"):
            run_verification(1, seed)
    with pytest.raises(DomainError, match=r"seed must be an integer >= 0, got 2\.5"):
        run_verification(5, 2.5)
    report = run_verification(np.int64(3), np.int64(1))  # numpy integers are counts, kept as Python ints
    assert report.ok and type(report.samples_per_model) is int and type(report.seed) is int


def test_battery_rejects_no_model_and_a_repeated_model_before_sampling(monkeypatch):
    def sample_points(*args):
        raise AssertionError("sampled before the models were checked")

    monkeypatch.setattr(verify, "sample_points", sample_points)
    with pytest.raises(DomainError, match=r"^need at least one model$"):
        run_verification(10, 1, models=())
    for models in ((XY, XY), (HEIS, XY, HEIS), ("xy", "xy")):
        with pytest.raises(DomainError, match="^model given twice in " + re.escape(str(list(models))) + "$"):
            run_verification(10, 1, models=models)
    monkeypatch.undo()
    with pytest.raises(UnsupportedModelError, match="unknown model 'xy'"):
        run_verification(10, 1, models=("xy",))


@pytest.mark.parametrize("model", [XY, HEIS])
@pytest.mark.parametrize("samples", [1, 2, 3, 10])
def test_sample_is_the_seeded_points_in_order(model, samples):
    stack = sample_points(model, samples, 42)
    assert stack.phase.shape == (samples,)
    assert [point_at(stack, i) for i in range(samples)] == _reference_samples(model, samples, 42)


def _per_sample_checks(samples, seed, models=(XY, HEIS)):
    """The battery's deviations of each sample alone, as a stack of one,
    kept by the per-point rule: the stacked battery, one point at a time."""
    checks = []
    for model in models:
        model_checks = []
        for pt in _reference_samples(model, samples, seed):
            one = validate(DimensionlessPoint(*(np.array([x]) for x in (pt.omega_a, pt.omega_b, pt.phase)), model))
            rows = _deviations(one)
            model_checks = model_checks or [CheckResult(f"{model.value}: {name}", tol) for name, tol, _ in rows]
            for check, (_, _, deviation) in zip(model_checks, rows):
                _keep_worst(check, float(deviation[0]), pt)
        checks += model_checks
    return checks


@pytest.mark.parametrize("seed", [1, 42])
def test_battery_matches_the_per_point_loop(seed):
    stacked = run_verification(200, seed)
    reference = _reference_verification(200, seed)
    per_sample = _per_sample_checks(200, seed)
    assert [c.name for c in stacked.checks] == [c.name for c in reference.checks]
    for got, want, alone in zip(stacked.checks, reference.checks, per_sample):
        assert got.tolerance == want.tolerance
        assert type(got.worst) is float
        assert got.ok == want.ok, got.name
        # the closed side rounds like the grid path, not the scalar one, so only the last digits may move
        assert abs(got.worst - want.worst) <= 1e-13, got.name
        # each sample alone rounds as it does in the stack: the same worst, at the same sample
        assert (got.worst, got.worst_point) == (alone.worst, alone.worst_point), got.name
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
    [_reference_samples(HEIS, 40, 42), NEAR_RESONANT],
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


def test_series_is_within_1e_12_relative_of_the_exact_sum_on_log_uniform_opacities():
    """Each sum against the exact series of its own float inputs, relative to
    its size: a series cut by a 1e-14 absolute tail bound was off by up to
    0.25 relative here, where large opacities make the sum small and long."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    omegas = np.exp(rng.uniform(math.log(1e-3), math.log(3e7), (1500, 2)))
    phases = rng.uniform(0.0, math.pi, 1500)
    inputs = [args for (omega_a, omega_b), phase in zip(omegas, phases)
              for args in _series_inputs(DimensionlessPoint(omega_a, omega_b, phase, HEIS))]
    sums = _series_sigma(*map(np.array, zip(*inputs)))
    with mpmath.workdps(50):
        for (f, r_own, r_same_partner, e2), value in zip(inputs, sums):
            f_, r_, s_, e_ = (mpmath.mpc(z) for z in (f, r_own, r_same_partner, e2))
            exact = f_ * f_ * s_ * e_ / (1 - r_ * s_ * e_)
            assert abs(mpmath.mpc(value) - exact) <= 1e-12 * abs(exact), (f, r_own, r_same_partner, e2)


def _series_sigma_of_2_60_terms(f, r_own, r_same_partner, e2):
    """The direct series as it was first cut: 2^60 terms in every cell."""
    q = r_own * r_same_partner * e2
    return np.where(np.abs(q) < 1.0 - 2.0**-50, f * f * r_same_partner * e2 * _partial_sum(q, 2**60), np.nan)


def _wide_series_inputs(n, seed):
    """(f, r_own, r_same_partner, e2) of both sites at opacities log-uniform
    in [1e-8, 1e9], 30% of the phases within 1e-15..1e-1 of 0 or pi, each
    stacked on a leading axis of two, as the dressing check passes them."""
    rng = np.random.default_rng(seed)
    omega_a, omega_b = 10.0 ** rng.uniform(-8.0, 9.0, (2, n))
    near = 10.0 ** rng.uniform(-15.0, -1.0, n)
    kind = rng.uniform(0.0, 1.0, n)
    phase = np.where(kind < 0.7, rng.uniform(0.0, math.pi, n), np.where(kind < 0.85, near, math.pi - near))
    with np.errstate(all="ignore"):
        _, a_r, a_f, _, a_rs = _site_terms(omega_a, HEIS)
        _, b_r, b_f, _, b_rs = _site_terms(omega_b, HEIS)
    return np.stack([a_f, b_f]), np.stack([a_r, b_r]), np.stack([b_rs, a_rs]), np.exp(2j * phase)


def _near_unit_q(n, seed):
    """q of modulus 1 - 10^u, u uniform in [-15, 0], at uniform arguments."""
    rng = np.random.default_rng(seed)
    return (1.0 - 10.0 ** rng.uniform(-15.0, 0.0, n)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_series_cut_where_every_power_underflowed_keeps_the_bits_of_2_60_terms(seed):
    """The cut takes its length from the stack's largest convergent |q|, so a
    stack of one and a whole stack may sum different lengths: each cell has
    the bits of 2^60 terms either way."""
    with np.errstate(all="ignore"):
        args = _wide_series_inputs(5000, seed)
        stacked = _series_sigma(*args)
        assert _same_bits(stacked, _series_sigma_of_2_60_terms(*args))
        # a stack whose largest |q| is below 0.999 sums fewer terms
        keep = (np.abs(args[1] * args[2] * args[3]) < 0.999).all(axis=0)
        assert _same_bits(_series_sigma(*(x[..., keep] for x in args)), stacked[:, keep])
        q = _near_unit_q(5000, seed)
        ones = np.ones_like(q)
        near_unit = _series_sigma(ones, q, ones, ones)
        assert _same_bits(near_unit, _series_sigma_of_2_60_terms(ones, q, ones, ones))
        # each cell on its own: a stack of one equals its cell in the stack,
        # and a point, in Python complex arithmetic, its own 2^60-term sum
        cells = [(tuple(x[0, i] for x in args[:3]), args[3][i], stacked[0, i]) for i in range(0, 5000, 25)]
        cells += [((1.0, x, 1.0), 1.0, value) for x, value in zip(q[:200], near_unit)]
        for (f, r_own, r_same_partner), e2, value in cells:
            cell = tuple(complex(x) for x in (f, r_own, r_same_partner, e2))
            assert _same_bits(_series_sigma(*(np.array([x]) for x in cell)), [value]), cell
            assert _same_bits(_series_sigma(*cell), _series_sigma_of_2_60_terms(*cell)), cell


def test_series_cut_at_q_zero():
    zero = np.zeros(3, dtype=complex)
    f, e2 = np.array([0.5 + 0.25j, 1.0, 0.0]), np.exp(2j * np.array([0.1, 1.3, 2.9]))
    r_same = np.array([0.3 - 0.1j, -0.5j, 1.0])
    for r_own in (zero, -zero, np.array([0.0, 0.5 - 0.5j, 0.0])):  # every q 0, or some
        args = (f, r_own, r_same, e2)
        assert _same_bits(_series_sigma(*args), _series_sigma_of_2_60_terms(*args))
    # the transparent corners of the sample have q = 0
    stack = sample_points(HEIS, 3, 42)
    assert np.array_equal(dressing_series_deviation(stack), [dressing_series_deviation(point_at(stack, i)) for i in range(3)])


def test_near_resonant_points_need_long_series():
    for pt in NEAR_RESONANT:
        f, r_own, r_same_partner, e2 = _series_inputs(pt)[0]
        assert abs(r_own * r_same_partner * e2) >= 0.995
        assert abs(1.0 - r_own * r_same_partner * e2) < 0.1


def _stack(points):
    values = np.array([(p.omega_a, p.omega_b, p.phase) for p in points])
    return DimensionlessPoint(*values.T, HEIS)


def test_stacked_dressing_deviation_matches_per_point_calls():
    points = _reference_samples(HEIS, 200, 42) + NEAR_RESONANT
    stacked = dressing_series_deviation(_stack(points))
    single = [dressing_series_deviation(pt) for pt in points]
    assert all(type(d) is float for d in single)
    assert stacked.shape == (len(points),)
    assert np.abs(stacked - single).max() <= 1e-15


@pytest.mark.parametrize("omega", [150.0, 300.0])
def test_series_is_uncapped_at_large_opacity_on_resonance(omega):
    """Here the series needs millions of terms; a cut series measured the cut
    (9.9e-11 at omega = 150, 1.7e-3 at 300) instead of the closed form."""
    pt = _resonant_point(omega)
    assert dressing_series_deviation(pt) <= 1e-12
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for f, r_own, r_same_partner, e2 in _series_inputs(pt):
            f_, r_, s_, e_ = (mpmath.mpc(z) for z in (f, r_own, r_same_partner, e2))
            exact = f_ * f_ * s_ * e_ / (1 - r_ * s_ * e_)
            assert abs(mpmath.mpc(_series_sigma(f, r_own, r_same_partner, e2)) - exact) <= 1e-12


@pytest.mark.parametrize("omega", [1e8, 1e160])
def test_dressing_check_raises_a_typed_error_where_float64_cannot_sum(omega):
    """At 1e8 |q| rounds to within an ulp of 1; at 1e160 omega^2 overflows."""
    bad = DimensionlessPoint(omega, omega, 0.3, HEIS)
    with pytest.raises(NumericError, match="dressing check not computable") as single:
        dressing_series_deviation(bad)
    assert single.value.point == bad
    good = DimensionlessPoint(2.0, 3.0, 0.3, HEIS)
    with pytest.raises(NumericError) as stacked:
        dressing_series_deviation(_stack([good, bad, DimensionlessPoint(1e160, 1.0, 0.1, HEIS)]))
    assert str(stacked.value) == str(single.value)
    assert stacked.value.point == bad


def test_dressing_check_is_for_the_contact_model_only():
    with pytest.raises(UnsupportedModelError):
        dressing_series_deviation(DimensionlessPoint(1.0, 1.0, 0.3, XY))
