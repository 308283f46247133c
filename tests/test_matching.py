import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    AmplitudeSet,
    DimensionlessPoint,
    ModelKind,
    NumericError,
    amplitudes,
    build_matching_system,
    site_coefficients,
    solve_amplitudes_numeric,
    solve_system,
)
from entscat.core import point_at
from entscat.verify import sample_points

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT

phases = st.floats(0.0, math.pi, exclude_max=True)
# log-uniform opacities exercise both the near-transparent and near-opaque ends
log_omegas = st.one_of(st.just(0.0), st.floats(-3.0, math.log(20.0)).map(math.exp))


def test_system_shape_and_labels():
    matrix, rhs = build_matching_system(DimensionlessPoint(1.0, 1.0, 1.3, HEIS))
    assert matrix.shape == (12, 12)
    assert rhs.shape == (12,)


def test_free_particle_solution():
    amp = solve_amplitudes_numeric(DimensionlessPoint(0.0, 0.0, 0.9, XY))
    assert abs(amp.t_noflip - cmath.exp(0.9j)) < 1e-14
    for z in amp[1:]:
        assert abs(z) < 1e-14


@pytest.mark.parametrize("model", [XY, HEIS])
def test_single_site_reduction(model):
    # with B transparent the two-site solve must reproduce the bare site A
    omega = 1.7
    amp = solve_amplitudes_numeric(DimensionlessPoint(omega, 0.0, 1.1, model))
    c = site_coefficients(omega, model)
    ea = cmath.exp(1.1j)
    assert abs(amp.t_noflip - c.t * ea) < 1e-12
    assert abs(amp.r_noflip - c.r) < 1e-12
    assert abs(amp.t_flipa - c.f * ea) < 1e-12
    assert abs(amp.r_flipa - c.f) < 1e-12
    assert abs(amp.t_flipb) < 1e-12 and abs(amp.r_flipb) < 1e-12


def test_solver_residual_is_tiny():
    pt = DimensionlessPoint(1.0, 1.0, 1.3, HEIS)
    matrix, rhs = build_matching_system(pt)
    x = solve_system(matrix, rhs, pt)
    assert np.abs(matrix @ x - rhs).max() < 1e-12


def _raised(matrix, rhs, point):
    with pytest.raises(NumericError) as info:
        solve_system(matrix, rhs, point)
    return type(info.value), str(info.value), info.value.point


@pytest.mark.parametrize("model", [XY, HEIS])
def test_stacked_systems_equal_the_per_point_ones_bit_for_bit(model):
    stack = sample_points(model, 300, 11)
    matrix, rhs = build_matching_system(stack)
    solution = solve_system(matrix, rhs, stack)
    assert matrix.shape == (300, 12, 12) and rhs.shape == (300, 12)
    for i in range(300):
        pt = point_at(stack, i)
        one_matrix, one_rhs = build_matching_system(pt)
        assert matrix[i].tobytes() == one_matrix.tobytes()
        assert rhs[i].tobytes() == one_rhs.tobytes()
        assert solution[i].tobytes() == solve_system(one_matrix, one_rhs, pt).tobytes()


@pytest.mark.parametrize("model", [XY, HEIS])
def test_stacked_numeric_amplitudes_equal_the_one_point_solves_bit_for_bit(model):
    stack = sample_points(model, 200, 13)
    amps = solve_amplitudes_numeric(stack)
    assert isinstance(amps, AmplitudeSet)
    for i in range(200):
        alone = solve_amplitudes_numeric(point_at(stack, i))
        for name, z, want in zip(AmplitudeSet._fields, amps, alone):
            assert type(want) is complex, name
            assert z.shape == (200,) and z[i].tobytes() == np.complex128(want).tobytes(), (name, i)


def test_singular_system_raises():
    point = DimensionlessPoint(1.0, 1.0, 0.5, XY)
    assert _raised(np.zeros((12, 12), dtype=complex), np.zeros(12, dtype=complex), point)[2] == point
    # in a stack, the error is the one its first failing system raises alone
    stack = sample_points(HEIS, 4, 5)
    matrix, rhs = build_matching_system(stack)
    matrix[2] = 0.0
    sample = DimensionlessPoint(*(float(x[2]) for x in (stack.omega_a, stack.omega_b, stack.phase)), HEIS)
    alone = _raised(matrix[2], rhs[2], sample)
    assert alone[2] == sample
    assert _raised(matrix, rhs, stack) == alone


def test_stack_raises_for_a_bad_residual_before_a_later_singular_system():
    stack = sample_points(XY, 4, 5)
    matrix, rhs = build_matching_system(stack)
    rhs[1] *= 1e12  # well conditioned, but the residual scales with the solution
    matrix[2] = 0.0
    alone = _raised(matrix[1], rhs[1], point_at(stack, 1))
    assert "residual" in alone[1]
    assert _raised(matrix, rhs, stack) == alone


def _wide_sample(model, n, seed):
    """Opacities log-uniform in [1e-300, 1e300]; half the phases uniform, a
    quarter within 1e-15..1e-1 of 0 and a quarter within that of pi."""
    rng = np.random.default_rng(seed)
    omega_a, omega_b = 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    near = 10.0 ** rng.uniform(-15.0, -1.0, n)
    kind = rng.integers(0, 4, n)
    phase = np.where(kind < 2, rng.uniform(0.0, math.pi, n), np.where(kind == 2, near, math.pi - near))
    return DimensionlessPoint(omega_a, omega_b, phase, model)


@pytest.mark.parametrize("model", [XY, HEIS])
def test_guard_refuses_every_system_the_2_norm_condition_number_refuses(model):
    stack = _wide_sample(model, 1500, 3)
    matrix, rhs = build_matching_system(stack)
    refused = np.flatnonzero(~(np.linalg.cond(matrix) <= 1e12))  # the SVD, as a reference only
    assert 0 < len(refused) < 1500
    for i in refused:
        sample = point_at(stack, i)
        assert _raised(matrix[i], rhs[i], sample)[2] == sample


def _samples_from(stack, start):
    """The stacked point of samples start, start + 1, ... of ``stack``."""
    return DimensionlessPoint(stack.omega_a[start:], stack.omega_b[start:], stack.phase[start:], stack.model)


@pytest.mark.parametrize("model", [XY, HEIS])
def test_stacked_verdicts_equal_the_one_point_verdicts(model):
    stack = sample_points(model, 300, 11)
    matrix, rhs = build_matching_system(stack)
    matrix[::7, :, 0] *= 1e-16  # a column scaled down puts cond far past 1e12
    alone = []
    for i in range(300):
        try:
            alone.append(solve_system(matrix[i], rhs[i], point_at(stack, i)))
        except NumericError as error:
            alone.append((type(error), str(error), error.point))
    # each failing system is the first failure of the stack that starts after the previous one
    start = 0
    for i, verdict in enumerate(alone):
        if isinstance(verdict, tuple):
            assert "ill-conditioned" in verdict[1]
            assert _raised(matrix[start:], rhs[start:], _samples_from(stack, start)) == verdict
            start = i + 1
    solution = solve_system(matrix[start:], rhs[start:], _samples_from(stack, start))
    assert solution.tobytes() == np.stack(alone[start:]).tobytes()


@pytest.mark.parametrize("model", [XY, HEIS])
def test_overflowing_opacity_is_a_typed_refusal_without_nan_or_warning(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (DimensionlessPoint(1e308, 1.0, 0.5, model), DimensionlessPoint(1.0, 1.7e308, 0.5, model)):
            matrix, _ = build_matching_system(point)
            assert not np.isnan(matrix).any()
            with pytest.raises(NumericError, match=r"cond ~ inf") as info:
                solve_amplitudes_numeric(point)
            assert info.value.point == point
        # in a stack the error is the one the overflowing sample raises alone
        stack = sample_points(model, 4, 5)
        omega_b = stack.omega_b.copy()
        omega_b[2] = 1.7e308
        stack = DimensionlessPoint(stack.omega_a, omega_b, stack.phase, model)
        with pytest.raises(NumericError) as alone:
            solve_amplitudes_numeric(point_at(stack, 2))
        with pytest.raises(NumericError) as stacked:
            solve_amplitudes_numeric(stack)
        assert (str(stacked.value), stacked.value.point) == (str(alone.value), alone.value.point)
        assert alone.value.point == point_at(stack, 2) and "cond ~ inf" in str(alone.value)


def test_degenerate_zero_phase_still_solves():
    # folded phase 0 puts both sites at the same spot; the equations stay regular
    for model in (XY, HEIS):
        pt = DimensionlessPoint(1.0, 2.0, 0.0, model)
        numeric = solve_amplitudes_numeric(pt)
        closed = amplitudes(pt)
        assert max(abs(x - y) for x, y in zip(numeric, closed)) < 1e-12


@given(omega_a=log_omegas, omega_b=log_omegas, phase=phases, model=st.sampled_from([XY, HEIS]))
@settings(max_examples=250, deadline=None)
def test_matches_closed_form(omega_a, omega_b, phase, model):
    pt = DimensionlessPoint(omega_a, omega_b, phase, model)
    numeric = solve_amplitudes_numeric(pt)
    closed = amplitudes(pt)
    assert max(abs(x - y) for x, y in zip(numeric, closed)) < 1e-10


@given(omega_a=log_omegas, omega_b=log_omegas, phase=phases, model=st.sampled_from([XY, HEIS]))
@settings(max_examples=150, deadline=None)
def test_numeric_unitarity(omega_a, omega_b, phase, model):
    pt = DimensionlessPoint(omega_a, omega_b, phase, model)
    amp = solve_amplitudes_numeric(pt)
    assert abs(amp.flux() - 1.0) < 1e-10
    # rows 0-2 and 6-8 are the wave functions' continuity at A and at B
    matrix, rhs = build_matching_system(pt)
    residual = matrix @ solve_system(matrix, rhs, pt) - rhs
    assert np.abs(residual).max() <= 1e-10
