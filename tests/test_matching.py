import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.linalg import _umath_linalg
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    AmplitudeSet,
    DimensionlessPoint,
    ModelKind,
    NumericError,
    amplitudes,
    site_coefficients,
    solve_amplitudes_numeric,
)
from entscat.closedform import _closed_forms
from entscat.core import point_at
from entscat.matching import _COUPLINGS, _fold, build_matching_system, solve_system
from entscat.verify import sample_points

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT

phases = st.floats(0.0, math.pi, exclude_max=True)
# log-uniform opacities exercise both the near-transparent and near-opaque ends
log_omegas = st.one_of(st.just(0.0), st.floats(-3.0, math.log(20.0)).map(math.exp))


def test_system_shape_and_labels():
    matrix, rhs = build_matching_system(DimensionlessPoint(1.0, 1.0, 1.3, HEIS))
    size = rhs.shape[-1]
    assert matrix.shape == (size, size)
    assert size == 6  # the unknowns (A+, A-) of three channels


@pytest.mark.parametrize("model", [XY, HEIS])
def test_continuity_and_jumps_reduce_exactly_to_the_rows_built(model):
    omega_a, omega_b, e = sp.symbols("omega_a omega_b E")
    a_plus, a_minus = sp.Matrix(sp.symbols("Ap0:3")), sp.Matrix(sp.symbols("Am0:3"))
    incident = sp.Matrix([1, 0, 0])
    m_a, m_b = (sp.Matrix(m.astype(int)) for m in _COUPLINGS[model])
    r = a_plus + a_minus - incident
    t = a_plus * e + a_minus / e
    # the twelve equations of the matching docstring, each as lhs - rhs, at k = 1
    continuity = [incident + r - (a_plus + a_minus), a_plus * e + a_minus / e - t]
    jumps = [
        sp.I * (a_plus - a_minus) - sp.I * (incident - r) - 2 * omega_a * m_a * (a_plus + a_minus),
        sp.I * t - sp.I * (a_plus * e - a_minus / e) - 2 * omega_b * m_b * t,
    ]
    # the six rows M x - b that build_matching_system writes, before its scaling
    rows = [
        2 * sp.I * a_plus - 2 * omega_a * m_a * (a_plus + a_minus) - 2 * sp.I * incident,
        2 * sp.I * a_minus / e - 2 * omega_b * m_b * (a_plus * e + a_minus / e),
    ]
    assert all(sp.expand(x) == 0 for equation in continuity for x in equation)
    assert all(sp.expand(x - y) == 0 for equation, row in zip(jumps, rows) for x, y in zip(equation, row))
    # and the builder writes those rows, each scaled by 2^-e where max|row| = m 2^e
    coefficients, constants = sp.linear_eq_to_matrix(list(rows[0]) + list(rows[1]), list(a_plus) + list(a_minus))
    for point in (DimensionlessPoint(1.0, 1.0, 1.3, model), DimensionlessPoint(0.3, 7.0, 2.9, model),
                  DimensionlessPoint(1e5, 1e-3, 0.2, model), DimensionlessPoint(0.0, 2.0, 0.0, model)):
        at = {omega_a: point.omega_a, omega_b: point.omega_b, e: cmath.exp(1j * point.phase)}
        want = np.array(coefficients.subs(at), dtype=complex), np.array(constants.subs(at), dtype=complex)[:, 0]
        _, exponent = np.frexp(np.abs(want[0]).max(axis=1))
        matrix, rhs = build_matching_system(point)
        assert np.abs(matrix - np.ldexp(1.0, -exponent)[:, None] * want[0]).max() < 4e-16
        assert np.abs(rhs - np.ldexp(1.0, -exponent) * want[1]).max() == 0.0


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
    size = rhs.shape[-1]
    assert matrix.shape == (300, size, size) and rhs.shape == (300, size)
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
def test_folds_equal_numpys_reductions_bit_for_bit(model):
    """The oracle's short-axis maxima and column sums, as chains of ufunc
    calls, against numpy's own reductions: on the wide sample's |M| and
    |[x | M^-1]|, with rows of inf and NaN, and on signed parts for sums,
    whose bits depend on the order of the additions."""
    matrix, rhs = build_matching_system(_wide_sample(model, 1500, 5))
    with np.errstate(all="ignore"):  # NaN, not LinAlgError, where M cannot be factored
        inverse = _umath_linalg.inv(matrix, signature="D->D")
    arrays = [np.abs(matrix), np.abs(inverse)]
    for x in arrays:
        x[::7, 2, 3] = np.inf
        x[3::11, 4, :2] = np.nan
        x[5::13, :, 1] = np.inf
    signed = [matrix.real, matrix.imag, inverse.real, inverse.imag]
    for x in arrays:
        assert np.isinf(x).any() and np.isnan(x).any()
        for rows in (x, x[..., 0, :], x[7]):
            assert _fold(np.maximum, rows).tobytes() == rows.max(axis=-1).tobytes()
    for x in arrays + signed:
        assert _fold(np.add, x, -2).tobytes() == x.sum(axis=-2).tobytes()


@pytest.mark.parametrize("model", [XY, HEIS])
def test_guard_refuses_every_system_the_2_norm_condition_number_refuses(model):
    stack = _wide_sample(model, 1500, 3)
    matrix, rhs = build_matching_system(stack)
    refused = np.flatnonzero(~(np.linalg.cond(matrix) <= 1e12))  # the SVD, as a reference only
    assert 0 < len(refused) < 1500
    for i in refused:
        sample = point_at(stack, i)
        assert _raised(matrix[i], rhs[i], sample)[2] == sample


def _twelve_equation_system(pt):
    """The continuity and jump equations at both sites as the dense 12x12
    system in (R, A+, A-, T) of each channel, unscaled: the reference for
    the reduced system that :func:`build_matching_system` writes."""
    m_a, m_b = _COUPLINGS[pt.model]
    omega_a, omega_b, phase = np.broadcast_arrays(pt.omega_a, pt.omega_b, pt.phase)
    ea, em = np.exp(1j * phase)[..., None], np.exp(-1j * phase)[..., None]
    coupling_a = omega_a[..., None, None] * (2.0 * m_a)
    coupling_b = omega_b[..., None, None] * (2.0 * m_b)
    r, a_plus, a_minus, t = (4 * np.arange(3) + i for i in range(4))
    row = np.arange(3)
    matrix = np.zeros(phase.shape + (12, 12), dtype=complex)
    rhs = np.zeros(phase.shape + (12,), dtype=complex)
    matrix[..., row, r], matrix[..., row, a_plus], matrix[..., row, a_minus] = 1.0, -1.0, -1.0
    rhs[..., row] = -1.0 * (row == 0)  # continuity at A: I + R = A+ + A-
    row = row + 3  # jump at A: i(A+ - A-) - i(I - R) = 2 omega_a M_A (A+ + A-)
    matrix[..., row, a_plus], matrix[..., row, a_minus], matrix[..., row, r] = 1j, -1j, 1j
    matrix[..., row[:, None], a_plus] -= coupling_a
    matrix[..., row[:, None], a_minus] -= coupling_a
    rhs[..., row] = 1j * (row == 3)
    row = row + 3  # continuity at B: A+ E + A- / E = T
    matrix[..., row, a_plus], matrix[..., row, a_minus], matrix[..., row, t] = ea, em, -1.0
    row = row + 3  # jump at B: iT - i(A+ E - A- / E) = 2 omega_b M_B T
    matrix[..., row, t], matrix[..., row, a_plus], matrix[..., row, a_minus] = 1j, -1j * ea, 1j * em
    matrix[..., row[:, None], t] -= coupling_b
    return matrix, rhs


def _accepted(build, stack):
    """Per sample of ``stack``, whether :func:`solve_system` accepts the
    system that ``build`` writes for it."""
    matrix, rhs = build(stack)
    verdicts = []
    for i in range(len(stack.phase)):
        try:
            solve_system(matrix[i], rhs[i], point_at(stack, i))
            verdicts.append(True)
        except NumericError:
            verdicts.append(False)
    return np.array(verdicts)


@pytest.mark.parametrize("model", [XY, HEIS])
def test_reduced_system_accepts_every_wide_sample_the_twelve_equations_accept(model):
    stack = _wide_sample(model, 1500, 3)
    accepted = _accepted(build_matching_system, stack)
    reference = _accepted(_twelve_equation_system, stack)
    assert reference.any() and not (reference & ~accepted).any()
    # the accepted amplitudes against the closed forms in 60-digit arithmetic
    chosen = np.flatnonzero(accepted)[::3]
    numeric = solve_amplitudes_numeric(DimensionlessPoint(stack.omega_a[chosen], stack.omega_b[chosen], stack.phase[chosen], model))
    with mpmath.workdps(60):
        for j, i in enumerate(chosen):
            e = mpmath.expj(stack.phase[i])
            exact = _closed_forms(mpmath.mpf(stack.omega_a[i]), mpmath.mpf(stack.omega_b[i]), e, 1 / e, e * e, model)
            assert max(abs(want - z[j]) for want, z in zip(exact, numeric)) <= 1e-14, point_at(stack, i)


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
@pytest.mark.parametrize("phase", [0.5, 0.0, math.pi / 2])  # at 0, inf * (1 + 0j) would give NaN
def test_overflowing_opacity_is_a_typed_refusal_without_nan_or_warning(model, phase):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (DimensionlessPoint(1e308, 1.0, phase, model), DimensionlessPoint(1.0, 1.7e308, phase, model)):
            matrix, _ = build_matching_system(point)
            assert not np.isnan(matrix).any()
            with pytest.raises(NumericError, match=r"cond ~ inf") as info:
                solve_amplitudes_numeric(point)
            assert info.value.point == point
        # in a stack the error is the one the overflowing sample raises alone
        stack = sample_points(model, 4, 5)
        omega_b, phases = stack.omega_b.copy(), stack.phase.copy()
        omega_b[2], phases[2] = 1.7e308, phase
        stack = DimensionlessPoint(stack.omega_a, omega_b, phases, model)
        assert not np.isnan(build_matching_system(stack)[0]).any()
        with pytest.raises(NumericError) as alone:
            solve_amplitudes_numeric(point_at(stack, 2))
        with pytest.raises(NumericError) as stacked:
            solve_amplitudes_numeric(stack)
        assert (str(stacked.value), stacked.value.point) == (str(alone.value), alone.value.point)
        assert alone.value.point == point_at(stack, 2) and "cond ~ inf" in str(alone.value)


def _two_call_solve(matrix, rhs, point):
    """The guard and the solve as two LAPACK calls, np.linalg.cond(M, 1) then
    np.linalg.solve, with the refusals of :func:`solve_system`: the reference
    that its one stacked [b | I] solve must equal bit for bit."""
    shape = rhs.shape
    size = shape[-1]
    matrix = matrix.reshape(-1, size, size)
    rhs = rhs.reshape(-1, size, 1)
    cond = np.linalg.cond(matrix, 1)
    well = cond <= 1e12
    n = len(well) if well.all() else int(np.argmin(well))
    solution = np.linalg.solve(matrix[:n], rhs[:n])
    residual = np.abs(matrix[:n] @ solution - rhs[:n]).max(axis=(1, 2))
    bad = residual > 1e-10
    if bad.any():
        i = int(np.argmax(bad))
        sample = point_at(point, i)
        raise NumericError(f"matching solve residual {residual[i]:.3e} too large at {sample!r}", sample)
    if n < len(well):
        sample = point_at(point, n)
        raise NumericError(f"matching matrix ill-conditioned (cond ~ {cond[n]:.3e}) at {sample!r}", sample)
    return solution.reshape(shape)


def _outcome(solve, matrix, rhs, point):
    """The solution's bytes, or the (type, message, point) of the error raised;
    a leaked RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return solve(matrix, rhs, point).tobytes()
        except NumericError as error:
            return type(error), str(error), error.point


@pytest.mark.parametrize("model", [XY, HEIS])
@pytest.mark.parametrize("seed", [1, 42])
def test_fused_solve_equals_cond_then_solve_bit_for_bit(model, seed):
    stack = sample_points(model, 1503, seed)
    matrix, rhs = build_matching_system(stack)
    assert (np.linalg.cond(matrix, 1) <= 1e12).all()
    assert _outcome(solve_system, matrix, rhs, stack) == _outcome(_two_call_solve, matrix, rhs, stack)
    # every kappa_1 verdict, system by system, on opacities up to 1e300 where most are refused
    wide = _wide_sample(model, 500, seed)
    matrix, rhs = build_matching_system(wide)
    verdicts = set()
    for i in range(500):
        sample = point_at(wide, i)
        fused = _outcome(solve_system, matrix[i], rhs[i], sample)
        assert fused == _outcome(_two_call_solve, matrix[i], rhs[i], sample), i
        verdicts.add(type(fused))
    assert verdicts == {bytes, tuple}  # both accepted and refused systems


@pytest.mark.parametrize("model", [XY, HEIS])
def test_fused_solve_raises_as_cond_then_solve(model):
    stack = sample_points(model, 6, 5)
    matrix, rhs = build_matching_system(stack)
    singular = matrix.copy()
    singular[3] = 0.0  # exactly singular mid-stack: LAPACK cannot factor it
    fused = _outcome(solve_system, singular, rhs, stack)
    assert fused == _outcome(_two_call_solve, singular, rhs, stack)
    assert "cond ~ inf" in fused[1] and fused[2] == point_at(stack, 3)
    omega_b = stack.omega_b.copy()
    omega_b[2] = 1.7e308  # 2 omega overflows to inf in the matrix
    overflowing = DimensionlessPoint(stack.omega_a, omega_b, stack.phase, model)
    matrix, rhs = build_matching_system(overflowing)
    fused = _outcome(solve_system, matrix, rhs, overflowing)
    assert fused == _outcome(_two_call_solve, matrix, rhs, overflowing)
    assert "cond ~ inf" in fused[1] and fused[2] == point_at(overflowing, 2)
    # a matrix holding NaN keeps cond ~ nan, as np.linalg.cond gives it
    singular[1, 0, 0] = math.nan
    fused = _outcome(solve_system, singular, rhs, stack)
    assert fused == _outcome(_two_call_solve, singular, rhs, stack)
    assert "cond ~ nan" in fused[1] and fused[2] == point_at(stack, 1)


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
    # the jump rows, with continuity built into R and T
    matrix, rhs = build_matching_system(pt)
    residual = matrix @ solve_system(matrix, rhs, pt) - rhs
    assert np.abs(residual).max() <= 1e-10
