import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    ModelKind,
    NumericError,
    amplitudes,
    build_matching_system,
    site_coefficients,
    solve_amplitudes_numeric,
    solve_system,
)
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
    for z in amp.as_tuple()[1:]:
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


def _stack(points):
    """The points as one point whose fields are arrays."""
    values = np.array([(p.omega_a, p.omega_b, p.phase) for p in points])
    return DimensionlessPoint(*values.T, points[0].model)


def _raised(matrix, rhs, point):
    with pytest.raises(NumericError) as info:
        solve_system(matrix, rhs, point)
    return type(info.value), str(info.value), info.value.point


@pytest.mark.parametrize("model", [XY, HEIS])
def test_stacked_systems_equal_the_per_point_ones_bit_for_bit(model):
    points = sample_points(model, 300, 11)
    stack = _stack(points)
    matrix, rhs = build_matching_system(stack)
    solution = solve_system(matrix, rhs, stack)
    assert matrix.shape == (300, 12, 12) and rhs.shape == (300, 12)
    for i, pt in enumerate(points):
        one_matrix, one_rhs = build_matching_system(pt)
        assert matrix[i].tobytes() == one_matrix.tobytes()
        assert rhs[i].tobytes() == one_rhs.tobytes()
        assert solution[i].tobytes() == solve_system(one_matrix, one_rhs, pt).tobytes()


def test_singular_system_raises():
    with pytest.raises(NumericError):
        solve_system(np.zeros((12, 12), dtype=complex), np.zeros(12, dtype=complex))
    # in a stack, the error is the one its first failing system raises alone
    points = sample_points(HEIS, 4, 5)
    stack = _stack(points)
    matrix, rhs = build_matching_system(stack)
    matrix[2] = 0.0
    alone = _raised(matrix[2], rhs[2], points[2])
    assert alone[2] == points[2]
    assert _raised(matrix, rhs, stack) == alone


def test_stack_raises_for_a_bad_residual_before_a_later_singular_system():
    points = sample_points(XY, 4, 5)
    stack = _stack(points)
    matrix, rhs = build_matching_system(stack)
    rhs[1] *= 1e12  # well conditioned, but the residual scales with the solution
    matrix[2] = 0.0
    alone = _raised(matrix[1], rhs[1], points[1])
    assert "residual" in alone[1]
    assert _raised(matrix, rhs, stack) == alone


def test_degenerate_zero_phase_still_solves():
    # folded phase 0 puts both sites at the same spot; the equations stay regular
    for model in (XY, HEIS):
        pt = DimensionlessPoint(1.0, 2.0, 0.0, model)
        numeric = solve_amplitudes_numeric(pt)
        closed = amplitudes(pt)
        assert max(abs(x - y) for x, y in zip(numeric.as_tuple(), closed.as_tuple())) < 1e-12


@given(omega_a=log_omegas, omega_b=log_omegas, phase=phases, model=st.sampled_from([XY, HEIS]))
@settings(max_examples=250, deadline=None)
def test_matches_closed_form(omega_a, omega_b, phase, model):
    pt = DimensionlessPoint(omega_a, omega_b, phase, model)
    numeric = solve_amplitudes_numeric(pt)
    closed = amplitudes(pt)
    assert max(abs(x - y) for x, y in zip(numeric.as_tuple(), closed.as_tuple())) < 1e-10


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
