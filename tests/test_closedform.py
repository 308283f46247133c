import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    UnsupportedModelError,
    amplitudes,
    dressed_coefficients,
    site_coefficients,
    truncated_amplitudes,
)
from entscat.verify import dressing_series_deviation

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT

omegas = st.floats(0.0, 50.0)
phases = st.floats(0.0, math.pi, exclude_max=True)


class TestSiteCoefficients:
    def test_transparent_site(self):
        c = site_coefficients(0.0, XY)
        assert (c.t, c.r, c.f) == (1.0, 0.0, 0.0)
        assert (c.t_same, c.r_same) == (1.0, 0.0)

    def test_exchange_at_unit_opacity(self):
        # direct substitution: t = 1/2, r = -1/2, f = -i/2
        c = site_coefficients(1.0, XY)
        assert c.t == pytest.approx(0.5, abs=1e-15)
        assert c.r == pytest.approx(-0.5, abs=1e-15)
        assert c.f == pytest.approx(-0.5j, abs=1e-15)
        assert c.t_same == 1.0 and c.r_same == 0.0

    def test_contact_at_unit_opacity(self):
        c = site_coefficients(1.0, HEIS)
        assert c.t == pytest.approx(0.3 - 0.1j, abs=1e-15)
        assert c.r == pytest.approx(-0.7 - 0.1j, abs=1e-15)
        assert c.f == pytest.approx(0.2 - 0.4j, abs=1e-15)
        assert c.t_same == pytest.approx(0.5 - 0.5j, abs=1e-15)
        assert c.r_same == pytest.approx(-0.5 - 0.5j, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_opacity(self, bad):
        with pytest.raises(DomainError):
            site_coefficients(bad, XY)

    @given(omega=omegas, model=st.sampled_from([XY, HEIS]))
    @settings(max_examples=300)
    def test_single_site_unitarity(self, omega, model):
        c = site_coefficients(omega, model)
        assert abs(abs(c.t) ** 2 + abs(c.r) ** 2 + 2.0 * abs(c.f) ** 2 - 1.0) < 1e-12
        assert abs(abs(c.t_same) ** 2 + abs(c.r_same) ** 2 - 1.0) < 1e-12

    @given(omega=st.floats(1e-6, 50.0))
    @settings(max_examples=200)
    def test_exchange_sign_structure(self, omega):
        c = site_coefficients(omega, XY)
        assert c.t.imag == 0.0 and c.t.real > 0.0
        assert c.r.imag == 0.0 and c.r.real < 0.0
        assert c.f.real == 0.0 and c.f.imag < 0.0


class TestAmplitudes:
    def test_free_propagation(self):
        amp = amplitudes(DimensionlessPoint(0.0, 0.0, 0.7, XY))
        assert abs(amp.t_noflip) == pytest.approx(1.0, abs=1e-15)
        assert amp.t_noflip == pytest.approx(cmath.exp(0.7j), abs=1e-15)
        for z in amp.as_tuple()[1:]:
            assert z == 0.0

    def test_single_flipping_site(self):
        # transparent A: t = t_B e^{i phi}, r = r_B e^{2i phi}, flip-B = f_B e^{i phi}
        amp = amplitudes(DimensionlessPoint(0.0, 1.0, math.pi / 2, XY))
        assert abs(amp.t_noflip) == pytest.approx(0.5, abs=1e-14)
        assert abs(amp.r_noflip) == pytest.approx(0.5, abs=1e-14)
        assert abs(amp.t_flipb) == pytest.approx(0.5, abs=1e-14)
        assert amp.t_flipa == 0.0 and amp.r_flipa == 0.0

    def test_frozen_point_exchange(self):
        # hand-evaluated from the closed forms at (1, 1, pi/2)
        amp = amplitudes(DimensionlessPoint(1.0, 1.0, math.pi / 2, XY))
        expected = (0.2j, -0.4 + 0.0j, 0.2 + 0.0j, 0.2j, 0.6 + 0.0j, -0.6j)
        for z, want in zip(amp.as_tuple(), expected):
            assert z == pytest.approx(want, abs=1e-12)

    def test_equal_couplings_at_resonant_phase_balance_the_flips(self):
        amp = amplitudes(DimensionlessPoint(1.0, 1.0, math.pi, XY))
        assert abs(amp.t_flipb) == pytest.approx(abs(amp.t_flipa), abs=1e-14)

    @given(omega_a=omegas, omega_b=omegas, phase=phases, model=st.sampled_from([XY, HEIS]))
    @settings(max_examples=400, deadline=None)
    def test_flux_unitarity(self, omega_a, omega_b, phase, model):
        amp = amplitudes(DimensionlessPoint(omega_a, omega_b, phase, model))
        assert abs(amp.flux() - 1.0) < 1e-12

    @given(omega_a=omegas, omega_b=omegas, phase=phases)
    @settings(max_examples=300)
    def test_exchange_flip_channels_have_equal_transmission_reflection(self, omega_a, omega_b, phase):
        amp = amplitudes(DimensionlessPoint(omega_a, omega_b, phase, XY))
        for t, r in ((amp.t_flipb, amp.r_flipb), (amp.t_flipa, amp.r_flipa)):
            assert abs(abs(t) - abs(r)) <= 1e-15 * max(abs(t), 1e-300)


class TestDressedCoefficients:
    def test_rejects_exchange_model(self):
        with pytest.raises(UnsupportedModelError):
            dressed_coefficients(DimensionlessPoint(1.0, 1.0, 0.5, XY))

    def test_no_dressing_without_flip_amplitude(self):
        t_a, r_a, _, _, sigma_a, _ = dressed_coefficients(DimensionlessPoint(0.0, 2.0, 0.5, HEIS))
        assert sigma_a == 0.0
        assert t_a == 1.0 and r_a == 0.0

    def test_no_dressing_off_transparent_partner(self):
        _, _, _, _, sigma_a, sigma_b = dressed_coefficients(DimensionlessPoint(1.0, 0.0, 0.8, HEIS))
        assert sigma_a == 0.0  # r_same of B vanishes
        assert sigma_b == 0.0  # f of B vanishes

    def test_matches_direct_series_at_reference_point(self):
        pt = DimensionlessPoint(1.0, 1.0, math.pi / 4, HEIS)
        assert dressing_series_deviation(pt) < 1e-12

    @given(omega_a=st.floats(0.0, 1.2), omega_b=st.floats(0.0, 1.2), phase=phases)
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_series_at_moderate_opacity(self, omega_a, omega_b, phase):
        # |r r_same| <= 1/2 here, so 50 series terms already beat 1e-12
        assert dressing_series_deviation(DimensionlessPoint(omega_a, omega_b, phase, HEIS)) < 1e-12

    @pytest.mark.parametrize("omega", [5.0, 12.0, 20.0])
    def test_matches_direct_series_at_high_opacity(self, omega):
        # adaptive term count keeps the tail below tolerance even near |q| ~ 1
        assert dressing_series_deviation(DimensionlessPoint(omega, omega, 0.3, HEIS)) < 1e-12


class TestTruncatedAmplitudes:
    def test_rejects_contact_model(self):
        with pytest.raises(UnsupportedModelError):
            truncated_amplitudes(DimensionlessPoint(1.0, 1.0, 0.5, HEIS), 3)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            truncated_amplitudes(DimensionlessPoint(1.0, 1.0, 0.5, XY), -1)

    def test_zero_bounces_keeps_direct_paths_only(self):
        pt = DimensionlessPoint(0.8, 1.3, 0.6, XY)
        a = site_coefficients(0.8, XY)
        b = site_coefficients(1.3, XY)
        ea = cmath.exp(0.6j)
        tr = truncated_amplitudes(pt, 0)
        assert tr.t_noflip == pytest.approx(a.t * b.t * ea, abs=1e-15)
        assert tr.r_noflip == pytest.approx(a.r, abs=1e-15)
        assert tr.t_flipb == pytest.approx(a.t * b.f * ea, abs=1e-15)
        assert tr.t_flipa == pytest.approx(a.f * ea, abs=1e-15)

    @given(omega_a=st.floats(0.0, 3.0), omega_b=st.floats(0.0, 3.0), phase=phases)
    @settings(max_examples=100, deadline=None)
    def test_many_bounces_recover_the_closed_form(self, omega_a, omega_b, phase):
        pt = DimensionlessPoint(omega_a, omega_b, phase, XY)
        tr = truncated_amplitudes(pt, 200)
        full = amplitudes(pt)
        for x, y in zip(tr.as_tuple()[:6], full.as_tuple()):
            assert abs(x - y) < 1e-12

    @given(omega_a=st.floats(0.0, 10.0), omega_b=st.floats(0.0, 10.0), phase=phases)
    @settings(max_examples=100, deadline=None)
    def test_geometric_tail_bound(self, omega_a, omega_b, phase):
        # each channel's truncation error is the tail of its own geometric
        # series: |first omitted term| / |1 - q| <= pref |q|^m / (1 - |q|)
        pt = DimensionlessPoint(omega_a, omega_b, phase, XY)
        a = site_coefficients(omega_a, XY)
        b = site_coefficients(omega_b, XY)
        q = abs(a.r * b.r)
        full = amplitudes(pt)
        prefs = (
            abs(a.t * b.t),      # t_noflip, first omitted index n+1
            abs(a.t * a.t * b.r),  # r_noflip, first omitted index n
            abs(a.t * b.f),      # t_flipb, n+1
            abs(a.t * b.f),      # r_flipb, n+1
            abs(a.f * a.t * b.r),  # t_flipa, n
            abs(a.f * a.t * b.r),  # r_flipa, n
        )
        offsets = (1, 0, 1, 1, 0, 0)
        for n in range(0, 21):
            tr = truncated_amplitudes(pt, n)
            for dev, pref, off in zip(
                (abs(x - y) for x, y in zip(tr.as_tuple()[:6], full.as_tuple())),
                prefs,
                offsets,
            ):
                bound = pref * q ** (n + off) / (1.0 - q)
                assert dev <= bound * (1.0 + 1e-9) + 1e-15

