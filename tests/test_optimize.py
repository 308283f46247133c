import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
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
    probability_at_resonance,
    reference_optimum_omega_b,
    resonance_curve_probability,
    unit_concurrence_phase,
)
from entscat.optimize import P_OPT_BRACKET, golden_section_maximize

XY = ModelKind.SPIN_EXCHANGE


def curve_lower(omega_b):
    return omega_b / (1.0 + 2.0 * omega_b**2)


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
            assert probability_at_resonance(0.0, omega_b) == pytest.approx(b / (1 + b) ** 2, rel=1e-14)

    def test_supremum_half_approached_at_balanced_a(self):
        p = probability_at_resonance(1.0 / math.sqrt(2.0), 1e6)
        assert 0.5 - p < 1e-5
        assert p < 0.5 + 1e-15

    def test_rounded_literature_point(self):
        assert probability_at_resonance(0.33, 1.07) == pytest.approx(0.37082238933688394, abs=1e-12)

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
        assert probability_at_resonance(omega_a, omega_b) >= model1_probability(omega_a, omega_b, s) - 1e-14


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
        start = time.perf_counter()
        omega_a, omega_b, p = find_global_p_opt()
        elapsed = time.perf_counter() - start
        reference = reference_optimum_omega_b()
        assert elapsed < 1.0
        assert omega_b == pytest.approx(reference, abs=1e-8)
        assert omega_a == pytest.approx(curve_lower(omega_b), rel=1e-14)
        assert p == pytest.approx(resonance_curve_probability(reference), abs=1e-8)
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
