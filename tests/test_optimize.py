import itertools
import math
import re
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    Regime,
    find_global_p_opt,
    model1_probability,
    model1_ratio,
    observables_at,
    optimal_concurrence,
    unit_concurrence_phase,
)
from entscat.closedform import _closed_forms

XY = ModelKind.SPIN_EXCHANGE


def curve_lower(omega_b):
    return omega_b / (1.0 + 2.0 * omega_b**2)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
P_OPT_BRACKET = (0.1, 10.0)  # omega_b range of the reference search


def golden_section_maximize(f, lo, hi, tol=1e-10):
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


def _parabolic_refine(f, x, steps=(1e-3, 1e-4, 1e-5)):
    # Quadratic-vertex polish: comparison-based search stalls at the
    # function-value noise floor (~1e-8 in position here); fitting the
    # local parabola over well-separated points recovers ~1e-10.
    for h in steps:
        fl, fc, fr = f(x - h), f(x), f(x + h)
        curvature = fl - 2.0 * fc + fr
        if curvature < 0.0:
            x += 0.5 * h * (fl - fr) / curvature
    return x


def resonance_curve_probability(omega_b):
    """Resonant probability on the unit-concurrence curve
    omega_a = omega_b/(1 + 2 omega_b^2)."""
    return model1_probability(curve_lower(omega_b), omega_b, 1)


def searched_p_opt():
    """(omega_a, omega_b, p) at the maximum of P along the resonance curve,
    found numerically by golden section on P_OPT_BRACKET and a parabolic
    polish: the reference for the algebraic root of :func:`find_global_p_opt`."""
    omega_b = golden_section_maximize(resonance_curve_probability, *P_OPT_BRACKET)
    omega_b = _parabolic_refine(resonance_curve_probability, omega_b)
    return curve_lower(omega_b), omega_b, resonance_curve_probability(omega_b)


# where the region's two former rules disagreed: the solved phase lands within
# the solve's 1e-12 slack of 1 at the first point and past it at the second
REGION_EDGES = [(0.016861808109802385, 29.635939059006105), (1.1192630858491662e-05, 1.1192630861295976e-05)]
P_FINITE_LIMIT = 1.1e77  # omega_b below it keeps the left region's probability finite


def assert_region_is_the_phase_verdict(omega_a, omega_b):
    report = optimal_concurrence(omega_a, omega_b)
    unit = unit_concurrence_phase(omega_a, omega_b)
    if unit.sin2_kd is None:
        assert report.regime is (Regime.RIGHT_REGION if omega_a > omega_b else Regime.LEFT_REGION)
    else:
        assert report.regime is Regime.UNIT_CONCURRENCE_REGION
        assert (report.phase_choice, report.concurrence) == (unit.sin2_kd, 1.0)
    assert report.reason == unit.reason


def exact_left_concurrence(omega_a, omega_b):
    """C at the resonant phase, from the exact ratio in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(omega_a), mpmath.mpf(omega_b)
        m = a / b * mpmath.sqrt(1 + 4 * b**2 * (1 + b**2))
        return float(2 * m / (1 + m**2))


def exact_probability(omega_a, omega_b, sin2_kd):
    """The exchange model's P in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, b, s = mpmath.mpf(omega_a) ** 2, mpmath.mpf(omega_b) ** 2, mpmath.mpf(sin2_kd)
        return float((a + b + 4 * a * b * (1 + b) * s) / ((1 + a + b) ** 2 + 4 * a * b * (1 + a) * (1 + b) * s))


class TestProbabilityAtResonance:
    def test_reduces_when_a_is_transparent(self):
        for omega_b in (0.3, 1.0, 4.0):
            b = omega_b**2
            assert model1_probability(0.0, omega_b, 1) == pytest.approx(b / (1 + b) ** 2, rel=1e-14)

    def test_supremum_half_approached_at_balanced_a(self):
        p = model1_probability(1.0 / math.sqrt(2.0), 1e6, 1)
        assert 0.5 - p < 1e-5
        assert p < 0.5 + 1e-15

    def test_rounded_literature_point(self):
        assert model1_probability(0.33, 1.07, 1) == pytest.approx(0.37082238933688394, abs=1e-12)

    @pytest.mark.parametrize("sin2_kd", [0.0, 1e-300])
    def test_vanishing_phase_factor_enters_before_the_product_overflows(self, sin2_kd):
        # 4ab(1+a)(1+b) overflows here; s must zero or shrink it first
        exact = exact_probability(1e76, 10.0, sin2_kd)
        assert model1_probability(1e76, 10.0, sin2_kd) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_exact_arithmetic_passes_through(self):
        # a=1/4, b=9/4: num = 10/4 + 117/16 = 157/16, den = 49/4 + 585/64 = 1369/64
        p = model1_probability(Fraction(1, 2), Fraction(3, 2), 1)
        assert isinstance(p, Fraction)
        assert p == Fraction(628, 1369)


class TestUnitConcurrencePhase:
    @given(omega=st.floats(1e-3, 20.0))
    @settings(max_examples=100)
    def test_equal_couplings_need_no_resonance(self, omega):
        result = unit_concurrence_phase(omega, omega)
        assert result.sin2_kd == pytest.approx(0.0, abs=1e-15)

    @given(omega_b=st.floats(0.05, 5.0))
    @settings(max_examples=100)
    def test_curve_boundary_needs_full_resonance(self, omega_b):
        result = unit_concurrence_phase(curve_lower(omega_b), omega_b)
        assert result.sin2_kd == pytest.approx(1.0, rel=1e-12)

    def test_infeasible_when_a_dominates(self):
        result = unit_concurrence_phase(2.0, 1.0)
        assert result.sin2_kd is None
        assert "exceeds 1" in result.reason

    def test_infeasible_without_a_flip(self):
        result = unit_concurrence_phase(0.0, 1.0)
        assert result.sin2_kd is None
        assert "flip amplitude" in result.reason

    @pytest.mark.parametrize("omega_a, omega_b", [(1e-200, 2e-200), (1e-170, 1e-160)])
    def test_infeasible_where_the_denominator_underflows(self, omega_a, omega_b):
        # 4 omega_a omega_b (1 + omega_b^2) rounds to 0, so the solved phase is +inf
        result = unit_concurrence_phase(omega_a, omega_b)
        assert result == (None, "maximum ratio stays below 1 even at resonance")

    def test_solved_phase_equals_the_exact_one_wherever_float64_holds_it(self):
        # three points where omega_b^2 overflows (s was NaN, reported
        # infeasible, or 0), then every pair omega_a < omega_b of the
        # opacities 10^(x/2), x = -646, -637, ..., 614 (1e-323 to 1e307): the
        # verdict, and where feasible s within 2 ulps, or within 5e-324 where
        # s is subnormal
        powers = [float(10.0 ** mpmath.mpf(x / 2)) for x in range(-646, 617, 9)]
        pairs = [(1e-200, 1e200), (1e-160, 1e160), (1e-154, 1e154), *itertools.combinations(powers, 2)]
        with mpmath.workdps(50):
            for omega_a, omega_b in pairs:
                a, b = mpmath.mpf(omega_a), mpmath.mpf(omega_b)
                exact = (b**2 - a**2) / (4 * a**2 * b**2 * (1 + b**2))
                s = unit_concurrence_phase(omega_a, omega_b).sin2_kd
                if exact > 1 + 1e-10:
                    assert s is None, (omega_a, omega_b)
                elif exact < 1 - 1e-10:
                    assert s is not None and abs(s - exact) <= 4.5e-16 * exact + 5e-324, (omega_a, omega_b, s)

    def test_infeasible_left_of_the_curve(self):
        omega_b = 1.5
        result = unit_concurrence_phase(0.5 * curve_lower(omega_b), omega_b)
        assert result.sin2_kd is None

    @given(omega_b=st.floats(0.05, 3.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_solved_phase_really_balances_the_weights(self, omega_b, frac):
        lower = curve_lower(omega_b)
        omega_a = min(lower + frac * (omega_b - lower), omega_b)  # the sum can round past omega_b
        s = unit_concurrence_phase(omega_a, omega_b).sin2_kd
        assert s is not None and 0.0 <= s <= 1.0
        assert model1_ratio(omega_a, omega_b, s) == pytest.approx(1.0, abs=1e-12)
        obs = observables_at(DimensionlessPoint(omega_a, omega_b, math.asin(math.sqrt(s)), XY))
        assert obs.concurrence_t == pytest.approx(1.0, abs=1e-12)


class TestOptimalConcurrence:
    def test_unit_region_interior_point(self):
        report = optimal_concurrence(0.33, 1.07)
        assert report.regime is Regime.UNIT_CONCURRENCE_REGION
        assert report.concurrence == 1.0
        assert report.probability == pytest.approx(0.37, abs=5e-3)

    def test_right_region_point(self):
        report = optimal_concurrence(3.0, 1.0)
        assert report.regime is Regime.RIGHT_REGION
        assert report.phase_choice == 0.0
        assert report.concurrence == pytest.approx(2.0 * 3.0 / (1.0 + 9.0), rel=1e-14)

    def test_equal_couplings_sit_in_the_unit_region(self):
        report = optimal_concurrence(1.0, 1.0)
        assert report.regime is Regime.UNIT_CONCURRENCE_REGION
        assert report.phase_choice == pytest.approx(0.0, abs=1e-15)
        assert report.concurrence == 1.0

    def test_transparent_a_reports_zero(self):
        report = optimal_concurrence(0.0, 1.0)
        assert report.regime is Regime.LEFT_REGION
        assert report.concurrence == 0.0

    def test_transparent_a_reports_zero_when_the_ratio_underflows(self):
        # omega_a/omega_b underflows to 0 against a finite root; the true C is about 4e-173
        assert model1_ratio(1e-250, 1.05e77, 1.0) == 0.0
        report = optimal_concurrence(1e-250, 1.05e77)
        assert report.regime is Regime.LEFT_REGION
        assert report.concurrence == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            optimal_concurrence(-1.0, 1.0)

    def test_ratio_root_stays_finite_where_the_probability_is(self):
        # 4 b (1 + b) with b = omega_b^2 overflows here, but the probability does not
        assert model1_ratio(1e-80, 1e77, 1.0) == pytest.approx(2e-3, rel=1e-15)
        report = optimal_concurrence(1e-80, 1e77)
        assert report.regime is Regime.LEFT_REGION
        assert report.concurrence == pytest.approx(exact_left_concurrence(1e-80, 1e77), rel=1e-15)
        assert report.concurrence == pytest.approx(0.0039999840000640, rel=1e-12)

    def test_left_region_concurrence_matches_50_digit_arithmetic(self):
        # log-uniform over the whole float range, and again over the top ten
        # decades, where the ratio's root once overflowed
        rng = np.random.default_rng(20)
        top = math.log10(P_FINITE_LIMIT)
        for log_b in np.concatenate([rng.uniform(-290.0, top, 1000), rng.uniform(top - 10.0, top, 1000)]):
            omega_b = 10.0**log_b
            omega_a = 10.0 ** rng.uniform(-300.0, math.log10(curve_lower(omega_b) * (1.0 - 1e-9)))
            report = optimal_concurrence(omega_a, omega_b)
            assert report.regime is Regime.LEFT_REGION
            assert abs(report.concurrence - exact_left_concurrence(omega_a, omega_b)) <= 1e-12, (omega_a, omega_b)

    @pytest.mark.parametrize("omega_a, omega_b", REGION_EDGES)
    def test_region_edges_follow_the_phase_solve(self, omega_a, omega_b):
        assert_region_is_the_phase_verdict(omega_a, omega_b)

    @given(
        log_b=st.floats(-300.0, 38.0),
        log_a=st.one_of(st.floats(-300.0, 38.0), st.none()),
        nudge=st.integers(-3, 3),
    )
    @settings(max_examples=500, deadline=None)
    def test_region_is_unit_exactly_where_the_phase_solves(self, log_b, log_a, nudge):
        # log-uniform opacities, or omega_a a few ulps from the region's lower
        # edge; the probability stays finite while omega_a omega_b < 1e76
        omega_b = 10.0**log_b
        if log_a is None:
            omega_a = curve_lower(omega_b)
            for _ in range(abs(nudge)):
                omega_a = math.nextafter(omega_a, math.copysign(math.inf, nudge))
        else:
            omega_a = 10.0**log_a
        assert_region_is_the_phase_verdict(omega_a, omega_b)

    @pytest.mark.parametrize("omega_a, omega_b", [(1e-175, 1e150), (1.0, 1e200), (1e200, 1.0)])
    def test_probability_overflow_raises_numeric_error(self, omega_a, omega_b):
        # model1_probability raises OverflowError at the first point and gives inf/inf at the others
        with pytest.raises(NumericError, match=re.escape(f"omega_a={omega_a!r}, omega_b={omega_b!r}")):
            optimal_concurrence(omega_a, omega_b)

    @pytest.mark.parametrize("omega_a, omega_b", [(1e300, 1e-10), (1e100, 1e-100)])
    def test_numpy_scalars_overflow_as_python_floats_do(self, omega_a, omega_b):
        # silently, into the same typed error: no RuntimeWarning from numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as as_float:
                optimal_concurrence(omega_a, omega_b)
            with pytest.raises(NumericError) as as_numpy:
                optimal_concurrence(np.float64(omega_a), np.float64(omega_b))
        assert str(as_numpy.value) == str(as_float.value)

    @pytest.mark.parametrize("omega_a, omega_b", [(0.5, 2.0), (2.0, 1.0), (1e-3, 1.0), (0.0, 1.0), (1e-80, 1e77)])
    def test_report_fields_are_python_floats(self, omega_a, omega_b):
        expected = optimal_concurrence(omega_a, omega_b)
        for convert in (float, np.float64, Fraction):
            report = optimal_concurrence(convert(omega_a), convert(omega_b))
            assert report == expected
            numeric = (name for name in report._fields if name not in ("regime", "reason"))
            assert all(type(getattr(report, name)) is float for name in numeric)

    @pytest.mark.parametrize("omega_b", [0.3, 1.0, 2.5])
    def test_regime_boundaries_agree(self, omega_b):
        # on each shared boundary the two adjacent phase rules coincide
        lower = curve_lower(omega_b)
        on_curve = optimal_concurrence(lower, omega_b)
        assert on_curve.regime is Regime.UNIT_CONCURRENCE_REGION
        assert on_curve.phase_choice == pytest.approx(1.0, rel=1e-12)
        assert on_curve.concurrence == pytest.approx(
            2 * model1_ratio(lower, omega_b, 1.0) / (1 + model1_ratio(lower, omega_b, 1.0) ** 2), abs=1e-12
        )
        diagonal = optimal_concurrence(omega_b, omega_b)
        assert diagonal.phase_choice == pytest.approx(0.0, abs=1e-15)
        assert diagonal.concurrence == pytest.approx(
            2 * model1_ratio(omega_b, omega_b, 0.0) / (1 + model1_ratio(omega_b, omega_b, 0.0) ** 2), abs=1e-12
        )

    @given(
        omega_a=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        omega_b=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_dominates_a_dense_phase_grid(self, omega_a, omega_b):
        report = optimal_concurrence(omega_a, omega_b)
        if omega_a == 0.0 or omega_b == 0.0:
            assert report.concurrence == 0.0
            return
        grid = np.linspace(0.0, 1.0, 2001)
        ratios = (omega_a / omega_b) * np.sqrt(1.0 + 4.0 * omega_b**2 * (1.0 + omega_b**2) * grid)
        best = (2.0 / (ratios + 1.0 / ratios)).max()
        assert report.concurrence >= best - 1e-10

    @given(omega_a=st.floats(0.0, 20.0), omega_b=st.floats(0.0, 20.0), s=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_resonance_is_the_probability_optimum(self, omega_a, omega_b, s):
        assert model1_probability(omega_a, omega_b, 1) >= model1_probability(omega_a, omega_b, s) - 1e-14


# repr of the report, captured before the report was stored slot by slot and
# the unit phase unpacked: all three regimes, the corners, both region
# boundaries (omega_a = omega_b and the resonance curve, with the global
# optimum on it), tiny and large opacities, and numpy and Fraction inputs
FROZEN_REPORTS = [
    (0.5, 2.0, "OptimalityReport(omega_a=0.5, omega_b=2.0, phase_choice=0.1875, concurrence=1.0, probability=0.24806201550387597, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (0.1, 2.0, "OptimalityReport(omega_a=0.1, omega_b=2.0, phase_choice=1.0, concurrence=0.7484407484407484, probability=0.18565622334327875, regime=<Regime.LEFT_REGION: 'left'>, reason='maximum ratio stays below 1 even at resonance')"),
    (2.0, 1.0, "OptimalityReport(omega_a=2.0, omega_b=1.0, phase_choice=0.0, concurrence=0.8, probability=0.1388888888888889, regime=<Regime.RIGHT_REGION: 'right'>, reason='minimum ratio omega_a/omega_b exceeds 1 at every phase')"),
    (1.3, 1.3, "OptimalityReport(omega_a=1.3, omega_b=1.3, phase_choice=0.0, concurrence=1.0, probability=0.17618481683034126, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (0.0, 1.0, "OptimalityReport(omega_a=0.0, omega_b=1.0, phase_choice=1.0, concurrence=0.0, probability=0.25, regime=<Regime.LEFT_REGION: 'left'>, reason='flip amplitude of A vanishes (omega_a = 0)')"),
    (1.0, 0.0, "OptimalityReport(omega_a=1.0, omega_b=0.0, phase_choice=0.0, concurrence=0.0, probability=0.25, regime=<Regime.RIGHT_REGION: 'right'>, reason='minimum ratio omega_a/omega_b exceeds 1 at every phase')"),
    (0.0, 0.0, "OptimalityReport(omega_a=0.0, omega_b=0.0, phase_choice=1.0, concurrence=0.0, probability=0.0, regime=<Regime.LEFT_REGION: 'left'>, reason='flip amplitude of A vanishes (omega_a = 0)')"),
    (0.2727272727272727, 1.5, "OptimalityReport(omega_a=0.2727272727272727, omega_b=1.5, phase_choice=1.0, concurrence=1.0, probability=0.3360981443617144, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (0.3258123994038707, 1.065253688583415, "OptimalityReport(omega_a=0.3258123994038707, omega_b=1.065253688583415, phase_choice=1.0, concurrence=1.0, probability=0.3684589675583181, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (0.7, 0.7000000000000001, "OptimalityReport(omega_a=0.7, omega_b=0.7000000000000001, phase_choice=1.0861751077397972e-16, concurrence=1.0, probability=0.24997449239873482, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (0.7000000000000001, 0.7, "OptimalityReport(omega_a=0.7000000000000001, omega_b=0.7, phase_choice=0.0, concurrence=1.0, probability=0.24997449239873476, regime=<Regime.RIGHT_REGION: 'right'>, reason='minimum ratio omega_a/omega_b exceeds 1 at every phase')"),
    (1e-200, 3e-200, "OptimalityReport(omega_a=1e-200, omega_b=3e-200, phase_choice=1.0, concurrence=0.6, probability=0.0, regime=<Regime.LEFT_REGION: 'left'>, reason='maximum ratio stays below 1 even at resonance')"),
    (1e70, 2e70, "OptimalityReport(omega_a=1e+70, omega_b=2e+70, phase_choice=4.6875e-282, concurrence=1.0, probability=2.8571428571428573e-141, regime=<Regime.UNIT_CONCURRENCE_REGION: 'unit'>, reason=None)"),
    (np.float64(0.3), np.float64(0.9), "OptimalityReport(omega_a=0.3, omega_b=0.9, phase_choice=1.0, concurrence=0.9908978593580596, probability=0.34114562996766934, regime=<Regime.LEFT_REGION: 'left'>, reason='maximum ratio stays below 1 even at resonance')"),
    (Fraction(1, 3), Fraction(2, 3), "OptimalityReport(omega_a=0.3333333333333333, omega_b=0.6666666666666666, phase_choice=1.0, concurrence=0.99836867862969, probability=0.3072510581421252, regime=<Regime.LEFT_REGION: 'left'>, reason='maximum ratio stays below 1 even at resonance')"),
]


@pytest.mark.parametrize("omega_a, omega_b, expected", FROZEN_REPORTS)
def test_report_is_bit_identical_to_the_frozen_repr(omega_a, omega_b, expected):
    assert repr(optimal_concurrence(omega_a, omega_b)) == expected


class TestGoldenSection:
    def test_finds_a_known_vertex(self):
        x = golden_section_maximize(lambda x: -((x - 1.234) ** 2), 0.0, 3.0, tol=1e-12)
        assert x == pytest.approx(1.234, abs=1e-9)

    def test_respects_the_bracket(self):
        x = golden_section_maximize(lambda x: x, 0.0, 1.0, tol=1e-10)
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(1.0, abs=1e-9)


class TestGlobalOptimum:
    def test_matches_the_algebraic_root(self):
        # the root against the numerical search it replaced
        start = time.perf_counter()
        omega_a, omega_b, p = find_global_p_opt()
        elapsed = time.perf_counter() - start
        searched_a, searched_b, searched_p = searched_p_opt()
        assert elapsed < 1.0
        assert omega_b == pytest.approx(searched_b, abs=1e-8)
        assert omega_a == pytest.approx(searched_a, abs=1e-8)
        assert omega_a == pytest.approx(curve_lower(omega_b), rel=1e-14)
        assert p == pytest.approx(searched_p, abs=1e-8)
        # headline digits
        assert omega_b == pytest.approx(1.0652536885834148, abs=1e-8)
        assert omega_a == pytest.approx(0.3258123994038707, abs=1e-8)
        assert p == pytest.approx(0.3684589675583181, abs=1e-8)

    def test_bracket_endpoints_slope_inward(self):
        # so the golden-section search on P_OPT_BRACKET finds an interior maximum
        lo, hi = P_OPT_BRACKET
        assert resonance_curve_probability(lo + 1e-6) > resonance_curve_probability(lo)
        assert resonance_curve_probability(hi - 1e-6) > resonance_curve_probability(hi)

    def test_is_a_local_maximum_along_the_curve(self):
        _, omega_b, p = find_global_p_opt()
        assert resonance_curve_probability(omega_b + 1e-3) < p
        assert resonance_curve_probability(omega_b - 1e-3) < p

    def test_sits_on_the_unit_concurrence_curve(self):
        omega_a, omega_b, _ = find_global_p_opt()
        result = unit_concurrence_phase(omega_a, omega_b)
        assert result.sin2_kd == pytest.approx(1.0, rel=1e-10)

    def test_root_is_within_an_ulp_of_the_50_digit_root(self):
        _, omega_b, p = find_global_p_opt()
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.findroot(lambda x: 4 * x**3 - 2 * x**2 - 2 * x - 1, 1.1))
            assert abs(omega_b - exact) <= math.ulp(omega_b)
        assert p == 0.3684589675583181

    def test_curve_carries_the_region_maximum(self):
        # the best unit-concurrence probability anywhere in the feasible
        # region is attained on the resonance boundary curve
        _, _, p_opt = find_global_p_opt()
        rng = np.random.default_rng(11)
        for _ in range(2000):
            omega_b = rng.uniform(0.05, 5.0)
            lower = curve_lower(omega_b)
            omega_a = rng.uniform(lower, omega_b)
            report = optimal_concurrence(omega_a, omega_b)
            assert report.probability <= p_opt + 1e-12


class TestExactProofs:
    """Symbolic proofs, in exact rational arithmetic, of the formulas the
    optimizer stands on."""

    def test_the_root_is_the_unique_stationary_point_on_the_curve(self):
        omega, x = sp.symbols("omega x", positive=True)
        p_on_curve = sp.cancel(model1_probability(omega / (1 + 2 * omega**2), omega, 1))
        slope = -4 * omega * (2 * omega**2 + 1) * (4 * omega**6 - 2 * omega**4 - 2 * omega**2 - 1)
        slope /= (2 * omega**4 + 4 * omega**2 + 1) ** 3
        assert sp.cancel(sp.diff(p_on_curve, omega) - slope) == 0
        # every other factor keeps one sign for omega > 0, so dP/d omega
        # vanishes only where the cubic in x = omega^2 does, and it has one
        # real root, which is positive
        cubic = 4 * x**3 - 2 * x**2 - 2 * x - 1
        (root,) = sp.real_roots(cubic)
        assert root.is_positive
        # omega_b^2 of find_global_p_opt is real, so it is that root
        surd = 3 * sp.sqrt(114)
        assert sp.minimal_polynomial((1 + sp.cbrt(37 - surd) + sp.cbrt(37 + surd)) / 6, x) == cubic

    def test_exchange_scalar_forms_follow_from_the_amplitudes(self):
        # E = (1 + iu)/(1 - iu) is e^{ip} exactly, with u = tan(p/2) real,
        # so sin^2 p = 4u^2/(1 + u^2)^2; |z|^2 is z times z with I -> -I
        omega_a, omega_b, u = sp.symbols("omega_a omega_b u", real=True)
        e = (1 + sp.I * u) / (1 - sp.I * u)
        _, _, t_flipb, _, t_flipa, _ = (
            sp.cancel(sp.nsimplify(z, rational=True)) for z in _closed_forms(omega_a, omega_b, e, 1 / e, e * e, XY)
        )
        flipb, flipa = (sp.cancel(sp.expand(z * z.subs(sp.I, -sp.I))) for z in (t_flipb, t_flipa))
        s = 4 * u**2 / (1 + u**2) ** 2

        def ratio_squared(sin2_kd):
            return (omega_a / omega_b) ** 2 * (1 + 4 * omega_b**2 * (1 + omega_b**2) * sin2_kd)

        assert sp.cancel(flipb + flipa - model1_probability(omega_a, omega_b, s)) == 0
        assert sp.cancel(flipa - ratio_squared(s) * flipb) == 0
        # unit_concurrence_phase's solved phase makes the ratio 1, and it
        # reaches s = 1 exactly on the resonance curve
        unit_phase = (omega_b**2 - omega_a**2) / (4 * omega_a**2 * omega_b**2 * (1 + omega_b**2))
        assert float(unit_phase.subs({omega_a: 0.5, omega_b: 0.75})) == pytest.approx(
            unit_concurrence_phase(0.5, 0.75).sin2_kd, rel=1e-15
        )
        assert sp.cancel(ratio_squared(unit_phase) - 1) == 0
        assert sp.cancel(unit_phase.subs(omega_a, omega_b / (1 + 2 * omega_b**2)) - 1) == 0
