import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    amplitudes,
    concurrence_and_ratio,
    model1_probability,
    model1_ratio,
    observables_at,
)
from entscat.observables import post_selected_state, probability

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT

omegas = st.floats(0.0, 50.0)
phases = st.floats(0.0, math.pi, exclude_max=True)


def test_post_selected_state_picks_the_right_amplitudes():
    amp = amplitudes(DimensionlessPoint(1.0, 1.0, math.pi / 2, XY))
    assert post_selected_state(amp, "t") == (amp.t_flipb, amp.t_flipa)
    assert post_selected_state(amp, "r") == (amp.r_flipb, amp.r_flipa)
    with pytest.raises(DomainError):
        post_selected_state(amp, "both")


class TestConcurrenceAndRatio:
    @given(x=st.floats(1e-6, 10.0), theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=100)
    def test_equal_magnitudes_are_maximally_entangled(self, x, theta):
        c, a = concurrence_and_ratio(x, abs(x * cmath.exp(1j * theta)))
        assert c == pytest.approx(1.0, abs=1e-12)
        assert a == pytest.approx(1.0, rel=1e-12)

    def test_single_branch_state_is_product(self):
        c, a = concurrence_and_ratio(1.0, 0.0)
        assert (c, a) == (0.0, 0.0)

    def test_other_single_branch_gives_infinite_ratio(self):
        c, a = concurrence_and_ratio(0.0, 0.5)
        assert c == 0.0
        assert math.isinf(a)

    def test_nothing_detected_is_flagged_undefined(self):
        c, a = concurrence_and_ratio(0.0, 0.0)
        assert c is None and a is None

    @given(
        re_x=st.floats(-2.0, 2.0),
        im_x=st.floats(-2.0, 2.0),
        re_y=st.floats(-2.0, 2.0),
        im_y=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=150)
    def test_invariant_under_global_rescaling(self, re_x, im_x, re_y, im_y):
        x = complex(re_x, im_x)
        y = complex(re_y, im_y)
        scale = 3.7 * cmath.exp(0.4j)
        c1, _ = concurrence_and_ratio(abs(x), abs(y))
        c2, _ = concurrence_and_ratio(abs(scale * x), abs(scale * y))
        if c1 is None:
            assert c2 is None
        else:
            assert c2 == pytest.approx(c1, abs=1e-13)


class TestProbability:
    def test_resonant_reference_point(self):
        amp = amplitudes(DimensionlessPoint(1.0, 1.0, math.pi / 2, XY))
        assert probability(*map(abs, post_selected_state(amp, "t"))) == pytest.approx(0.4, abs=1e-12)

    def test_antiresonant_reference_point(self):
        amp = amplitudes(DimensionlessPoint(1.0, 1.0, math.pi, XY))
        assert probability(*map(abs, post_selected_state(amp, "t"))) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_free_particle_detects_nothing(self):
        amp = amplitudes(DimensionlessPoint(0.0, 0.0, 1.0, XY))
        assert probability(*map(abs, post_selected_state(amp, "t"))) == 0.0


class TestObservablesAt:
    def test_reference_point_values(self):
        obs = observables_at(DimensionlessPoint(1.0, 1.0, math.pi / 2, XY))
        assert obs.concurrence_t == pytest.approx(0.6, abs=1e-12)
        assert obs.probability_t == pytest.approx(0.4, abs=1e-12)
        assert obs.ratio_a_t == pytest.approx(3.0, rel=1e-12)

    @given(omega_a=omegas, omega_b=omegas, phase=phases)
    @settings(max_examples=200, deadline=None)
    def test_exchange_sides_agree(self, omega_a, omega_b, phase):
        obs = observables_at(DimensionlessPoint(omega_a, omega_b, phase, XY))
        assert abs(obs.probability_t - obs.probability_r) < 1e-14
        if obs.concurrence_t is not None:
            assert abs(obs.concurrence_t - obs.concurrence_r) < 1e-14

    def test_contact_sides_differ(self):
        obs = observables_at(DimensionlessPoint(0.75, 0.75, 0.9, HEIS))
        assert abs(obs.concurrence_t - obs.concurrence_r) > 1e-3
        assert abs(obs.probability_t - obs.probability_r) > 1e-3

    def test_transparent_a_kills_the_entanglement(self):
        obs = observables_at(DimensionlessPoint(0.0, 1.0, 0.7, XY))
        assert obs.concurrence_t == 0.0 and obs.concurrence_r == 0.0
        assert obs.ratio_a_t == 0.0

    def test_degenerate_point_is_undefined_not_zero(self):
        obs = observables_at(DimensionlessPoint(0.0, 0.0, 0.7, XY))
        assert obs.concurrence_t is None and obs.ratio_a_t is None
        assert obs.probability_t == 0.0

    @given(omega_a=omegas, omega_b=omegas, phase=phases, model=st.sampled_from([XY, HEIS]))
    @settings(max_examples=300, deadline=None)
    def test_probability_bounds_and_closure(self, omega_a, omega_b, phase, model):
        pt = DimensionlessPoint(omega_a, omega_b, phase, model)
        obs = observables_at(pt)
        amp = amplitudes(pt)
        # each side is capped at 1/2 only when the sides are symmetric (the
        # exchange model); the contact model just shares the flip flux
        cap = 0.5 if model is XY else 1.0
        assert 0.0 <= obs.probability_t <= cap + 1e-15
        assert 0.0 <= obs.probability_r <= cap + 1e-15
        total = (
            abs(amp.t_noflip) ** 2
            + abs(amp.r_noflip) ** 2
            + obs.probability_t
            + obs.probability_r
        )
        assert abs(total - 1.0) < 1e-12


class TestScalarForms:
    @given(omega_a=st.floats(1e-3, 20.0), omega_b=st.floats(1e-3, 20.0), phase=phases)
    @settings(max_examples=400, deadline=None)
    def test_match_the_amplitude_route(self, omega_a, omega_b, phase):
        pt = DimensionlessPoint(omega_a, omega_b, phase, XY)
        obs = observables_at(pt)
        s = math.sin(phase) ** 2
        p_scalar = model1_probability(omega_a, omega_b, s)
        a_scalar = model1_ratio(omega_a, omega_b, s)
        assert abs(obs.probability_t - p_scalar) < 1e-12
        assert obs.ratio_a_t == pytest.approx(a_scalar, rel=1e-9)
        c_scalar = 2.0 * a_scalar / (1.0 + a_scalar * a_scalar)
        assert abs(obs.concurrence_t - c_scalar) < 1e-12

    @given(
        omega_a=st.floats(0.0, 20.0),
        omega_b=st.floats(0.0, 20.0),
        s1=st.floats(0.0, 1.0),
        s2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_probability_monotone_in_resonance_parameter(self, omega_a, omega_b, s1, s2):
        lo, hi = min(s1, s2), max(s1, s2)
        assert model1_probability(omega_a, omega_b, lo) <= model1_probability(omega_a, omega_b, hi) + 1e-15

    @given(omega_a=st.floats(1e-3, 20.0), omega_b=st.floats(1e-3, 20.0), phase=phases)
    @settings(max_examples=300)
    def test_ratio_bounds(self, omega_a, omega_b, phase):
        base = omega_a / omega_b
        a = model1_ratio(omega_a, omega_b, math.sin(phase) ** 2)
        assert base * (1.0 - 1e-12) <= a
        assert a <= base * (1.0 + 2.0 * omega_b**2) * (1.0 + 1e-12)
