"""The error contract of every public entry that takes a point or an opacity,
and of a sweep axis.

A call returns finite values, or None, NaN or inf where its docstring says
so, or it raises DomainError, NumericError or UnsupportedModelError; a
NumericError raised at a point carries that point (on a stack, the first
failing cell as a point of its own).  Nothing else escapes, and nothing
warns: each call runs with every warning turned into an error.

The inputs are every kind of number a caller can pass: floats from the
subnormals to 1.8e308 with both zeros, infinities and NaN, ints up to
10**400, Fractions, numpy float32 and float64 scalars, bools, and stacks of
float64 or float32 arrays, whose shapes need not broadcast.  An entry that
takes one opacity gets arrays too: a 0-d array counts as its one value, and
any other is refused with a DomainError naming its shape.  Non-numbers
(str, None, complex) are outside the contract: they raise Python's TypeError
from a comparison, or, for a numpy complex array or scalar, one that names
the field.
"""

import contextlib
import io
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entscat import (
    AmplitudeSet,
    Axis,
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    PhysicalPoint,
    UnsupportedModelError,
    ValidationError,
    amplitudes,
    dressed_coefficients,
    observables_at,
    optimal_concurrence,
    run_verification,
    site_coefficients,
    solve_amplitudes_numeric,
    to_dimensionless,
    truncated_amplitudes,
    unit_concurrence_phase,
    validate,
)
from entscat.cli import main
from entscat.matching import build_matching_system

FLOATS = st.one_of(
    st.floats(),  # both zeros, subnormals, negatives, infinities and NaN among them
    st.floats(1e-300, 1.8e308),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
INTS = st.one_of(st.integers(-3, 10), st.integers(-(10**400), 10**400), st.sampled_from([2**1024, 10**400]))
NUMBERS = st.one_of(
    FLOATS,
    INTS,
    st.builds(Fraction, INTS, st.integers(1, 10**400)),
    st.floats(width=32).map(np.float32),
    FLOATS.map(np.float64),
    st.booleans(),
)
SHAPES = st.sampled_from([(), (1,), (2,), (3,), (2, 1), (1, 3)])
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(np.float32, SHAPES, elements=st.floats(width=32)),
)
MODELS = st.sampled_from(list(ModelKind))
EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def fields(draw, count, stack):
    """``count`` field values; on a stack at least one is an array, and the
    others are arrays or numbers."""
    values = [draw(st.one_of(NUMBERS, ARRAYS) if stack else NUMBERS) for _ in range(count)]
    if stack and not any(isinstance(x, np.ndarray) for x in values):
        values[draw(st.integers(0, count - 1))] = draw(ARRAYS)
    return values


def points(stack):
    return st.builds(lambda values, model: DimensionlessPoint(*values, model), fields(3, stack), MODELS)


POINTS = st.one_of(points(False), points(True))


def _is_point(pt):
    return isinstance(pt, DimensionlessPoint) and all(type(x) is float for x in (pt.omega_a, pt.omega_b, pt.phase))


def call(entry, *args, at_point=True):
    """``entry(*args)``, or None where it raises one of the typed errors; a
    NumericError from an entry that takes a point must carry one."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return entry(*args)
    except NumericError as exc:
        if at_point:
            assert _is_point(exc.point), exc.point
    except (DomainError, UnsupportedModelError):
        pass
    return None


def finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


@EXAMPLES
@given(POINTS)
def test_validate(pt):
    out = call(validate, pt)
    if out is not None:
        assert finite(out.omega_a, out.omega_b, out.phase)
        assert np.all((out.omega_a >= 0.0) & (out.omega_b >= 0.0) & (out.phase >= 0.0) & (out.phase < np.pi))
        if isinstance(out.phase, np.ndarray):  # a stack keeps its arrays
            assert any(isinstance(x, np.ndarray) for x in (pt.omega_a, pt.omega_b, pt.phase))
        else:
            assert _is_point(out)


@EXAMPLES
@given(POINTS, st.one_of(st.integers(-2, 6), st.booleans(), st.integers(0, 6).map(np.int64)))
def test_amplitude_entries(pt, n):
    for entry, args in ((amplitudes, ()), (solve_amplitudes_numeric, ()), (truncated_amplitudes, (n,))):
        out = call(entry, pt, *args)
        assert out is None or (isinstance(out, AmplitudeSet) and finite(*out))


@EXAMPLES
@given(POINTS)
def test_observables_at(pt):
    out = call(observables_at, pt)
    if out is not None:
        for side in ("t", "r"):
            c, p, a = (getattr(out, f"{name}_{side}") for name in ("concurrence", "probability", "ratio_a"))
            c, a = (np.asarray(np.nan if x is None else x, dtype=float) for x in (c, a))
            assert finite(p) and np.all(np.asarray(p) >= 0.0)
            assert np.all(np.isnan(c) | ((c >= 0.0) & (c <= 1.0)))  # None, or NaN on a stack, where undefined
            assert np.all(np.isnan(a) | (a >= 0.0))  # inf where only the A flip survives


@EXAMPLES
@given(POINTS)
def test_dressed_coefficients(pt):
    out = call(dressed_coefficients, pt)
    assert out is None or (len(out) == 6 and finite(*out))


@EXAMPLES
@given(POINTS)
def test_build_matching_system(pt):
    out = call(build_matching_system, pt)
    if out is not None:
        matrix, rhs = out
        assert finite(rhs) and not np.isnan(matrix).any()  # an opacity near 1.8e308 overflows an entry to inf


NOT_MODELS = st.sampled_from(["xy", "heis", None, 0, ("xy",)])


@EXAMPLES
@given(st.one_of(fields(3, False), fields(3, True)), NOT_MODELS)
def test_a_model_that_is_not_a_model_kind(values, model):
    # every entry that computes with the model refuses it; to_dimensionless only carries it
    pt = DimensionlessPoint(*values, model)
    for entry in (amplitudes, solve_amplitudes_numeric, build_matching_system, observables_at, dressed_coefficients):
        assert call(entry, pt) is None, entry
    assert call(truncated_amplitudes, pt, 3) is None
    assert call(site_coefficients, values[0], model, at_point=False) is None
    out = call(to_dimensionless, PhysicalPoint(*values), model)
    assert out is None or out.model is model


@pytest.mark.parametrize(
    "entry",
    [amplitudes, solve_amplitudes_numeric, build_matching_system, lambda pt: run_verification(3, 1, (pt.model,))],
    ids=["closed", "numeric", "system", "verify"],
)
def test_an_unknown_model_is_an_unsupported_model_error(entry):
    with pytest.raises(UnsupportedModelError, match=r"^unknown model 'xy'$"):
        entry(DimensionlessPoint(1.0, 2.0, 0.5, "xy"))


@EXAMPLES
@given(st.one_of(fields(4, False), fields(4, True)), MODELS)
def test_to_dimensionless(values, model):
    out = call(to_dimensionless, PhysicalPoint(*values), model)
    assert out is None or finite(out.omega_a, out.omega_b, out.phase)


def _is_vector(x):
    """Whether ``x`` is an array of one or more dimensions, which an entry
    that takes one opacity refuses; a 0-d array counts as its one value."""
    return isinstance(x, np.ndarray) and x.ndim > 0


@EXAMPLES
@given(st.one_of(NUMBERS, ARRAYS), NUMBERS, st.one_of(st.integers(-2, 6), st.booleans(), st.integers(0, 6).map(np.int64), NUMBERS))
def test_axis(start, stop, count):
    # a sweep axis: its ends are numbers as a point's fields are (an array of one or more
    # dimensions is refused, naming its shape), its count an integer >= 2
    ax = call(Axis, "k", start, stop, count, at_point=False)
    if ax is not None:
        assert type(ax.start) is float and type(ax.stop) is float and type(ax.count) is int and ax.count >= 2
        assert finite(ax.start, ax.stop, ax.stop - ax.start) and not _is_vector(start)


def test_an_axis_end_beyond_float64_names_its_axis():
    with pytest.raises(ValidationError, match=r"^k must lie within the float64 range"):
        Axis("k", 10**400, 1.0, 3)


@EXAMPLES
@given(st.one_of(NUMBERS, ARRAYS), MODELS)
def test_site_coefficients(omega, model):
    # it takes one opacity, not a point
    out = call(site_coefficients, omega, model, at_point=False)
    assert out is None or finite(out.t, out.r, out.f, out.t_same, out.r_same)
    assert out is None or not _is_vector(omega)


@EXAMPLES
@given(st.one_of(NUMBERS, ARRAYS), st.one_of(NUMBERS, ARRAYS))
def test_optimizer(omega_a, omega_b):
    # scalar entries: each field of a report is a Python float
    report = call(optimal_concurrence, omega_a, omega_b, at_point=False)
    if report is not None:
        values = (report.omega_a, report.omega_b, report.phase_choice, report.concurrence, report.probability)
        assert all(type(x) is float for x in values) and finite(*values)
        assert 0.0 <= report.phase_choice <= 1.0 and 0.0 <= report.concurrence <= 1.0
    unit = call(unit_concurrence_phase, omega_a, omega_b, at_point=False)
    if unit is not None and unit.sin2_kd is not None:
        assert type(unit.sin2_kd) is float and 0.0 <= unit.sin2_kd <= 1.0
    if _is_vector(omega_a) or _is_vector(omega_b):
        assert report is None and unit is None


def run_cli(argv):
    """(exit code, stderr) of ``entscat argv``; a usage error exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


CLI_NUMBERS = st.one_of(FLOATS.map(repr), INTS.map(str))


@settings(max_examples=100, deadline=None)
@given(MODELS, CLI_NUMBERS, CLI_NUMBERS, CLI_NUMBERS)
def test_cli_point_and_report(model, omega_a, omega_b, phase):
    for argv in (
        ["point", "--model", model.value, "--omegaA", omega_a, "--omegaB", omega_b, "--phase", phase],
        ["optimize", "report", "--omegaA", omega_a, "--omegaB", omega_b],
    ):
        code, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        assert (code == 0) == ("error:" not in err), (argv, err)


@pytest.mark.parametrize(
    "entry",
    [
        lambda v: observables_at(DimensionlessPoint(v, 1.0, 0.5, ModelKind.HEISENBERG_CONTACT)),
        lambda v: observables_at(DimensionlessPoint(Fraction(v), 1.0, 0.5, ModelKind.HEISENBERG_CONTACT)),
        lambda v: observables_at(DimensionlessPoint(1.0, 1.0, v, ModelKind.HEISENBERG_CONTACT)),
        lambda v: solve_amplitudes_numeric(DimensionlessPoint(v, 1.0, 0.5, ModelKind.HEISENBERG_CONTACT)),
        lambda v: optimal_concurrence(v, 1.0),
        lambda v: to_dimensionless(PhysicalPoint(v, 1.0, 1.0), ModelKind.SPIN_EXCHANGE),
    ],
    ids=["opacity", "fraction", "phase", "numeric", "optimizer", "coupling"],
)
@pytest.mark.parametrize("value", [10**400, Decimal("1e400")], ids=["int", "decimal"])
def test_a_number_beyond_float64_names_its_field(entry, value):
    # float(Decimal("1e400")) is inf, where float(10**400) raises OverflowError
    with pytest.raises(ValidationError, match=r"(omega_a|phase|g_a) must lie within the float64 range"):
        entry(value)


def test_a_stack_that_does_not_broadcast_names_the_shapes():
    with pytest.raises(DomainError, match=r"'omega_a': \(2,\), 'omega_b': \(3,\)"):
        validate(DimensionlessPoint(np.ones(2), np.ones(3), 0.5, ModelKind.SPIN_EXCHANGE))


@pytest.mark.parametrize("model", list(ModelKind))
def test_site_coefficients_refuse_a_value_float64_cannot_hold(model):
    with pytest.raises(NumericError, match="omega=1e"):
        site_coefficients(1e200, model)


@pytest.mark.parametrize(
    "entry, field",
    [
        (lambda v: site_coefficients(v, ModelKind.SPIN_EXCHANGE), "omega"),
        (lambda v: optimal_concurrence(0.5, v), "omega_b"),
        (lambda v: unit_concurrence_phase(v, 2.0), "omega_a"),
    ],
    ids=["site", "optimizer", "unit-phase"],
)
@pytest.mark.parametrize("shape", [(1,), (2,), (2, 1)])
def test_a_scalar_entry_refuses_an_array_naming_its_field_and_shape(entry, field, shape):
    with pytest.raises(DomainError, match=rf"{field} must be one opacity, got an array of shape {re.escape(str(shape))}"):
        entry(np.full(shape, 2.0))


def test_a_scalar_entry_takes_a_0d_array_as_its_one_value():
    assert repr(site_coefficients(np.array(2.0), ModelKind.SPIN_EXCHANGE)) == repr(
        site_coefficients(2.0, ModelKind.SPIN_EXCHANGE)
    )
    report = optimal_concurrence(np.array(0.5), np.array(2.0, dtype=np.float32))
    assert repr(report) == repr(optimal_concurrence(0.5, 2.0))
    assert type(report.omega_a) is float and type(report.probability) is float


@pytest.mark.parametrize("value", ["1.0", None, 1j])
def test_a_non_number_raises_type_error(value):
    with pytest.raises(TypeError):
        validate(DimensionlessPoint(value, 1.0, 0.5, ModelKind.SPIN_EXCHANGE))


def _bits(record):
    return [np.asarray(x).tobytes() for x in record]


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0.1, 2.5, 7.3], [1.7, 0.3, 19.9], [0.5, 2.9, -1.2]], dtype=np.float32),
        np.array([[0, 1, 1], [1, 0, 1], [True, True, False]]),
        np.array([[Fraction(1, 3), 5, Fraction(7, 2)], [Fraction(2, 7), 1, 0], [Fraction(1, 2), -4, 3]], dtype=object),
        np.array([[0, 2, 7], [1, 3, 19], [0, 5, -2]], dtype=np.int64),
        np.array([[0, 2, 7], [1, 3, 19], [0, 5, 2]], dtype=np.uint8),
    ],
    ids=["float32", "bool", "fraction", "int64", "uint8"],
)
def test_a_stack_is_evaluated_at_its_float64_values_whatever_its_dtype(rows, model):
    # rows: omega_a, omega_b and phase of three cells; validate converts them once, so each
    # entry gives the bits of the stack of the same values as float64 arrays
    raw, twin = DimensionlessPoint(*rows, model), DimensionlessPoint(*rows.astype(float), model)
    for name in ("omega_a", "omega_b", "phase"):
        assert getattr(validate(raw), name).dtype == np.float64
    for entry in (amplitudes, observables_at, solve_amplitudes_numeric):
        assert _bits(entry(raw)) == _bits(entry(twin)), entry.__name__


def test_an_int64_stack_does_not_overflow():
    # omega^2 of an int64 omega wraps around above 3.04e9: P_t came out 43 times too large
    got = observables_at(DimensionlessPoint(np.array([4_000_000_000]), np.array([3_000_000_000]), 0.5, ModelKind.SPIN_EXCHANGE))
    want = observables_at(DimensionlessPoint(np.array([4e9]), np.array([3e9]), 0.5, ModelKind.SPIN_EXCHANGE))
    assert _bits(got) == _bits(want) and got.probability_t[0] == pytest.approx(6.25e-20, rel=1e-3)


def test_a_float64_stack_is_not_copied():
    omega = np.array([0.5, 2.0])
    assert validate(DimensionlessPoint(omega, omega, 0.5, ModelKind.SPIN_EXCHANGE)).omega_a is omega


@pytest.mark.parametrize("value", [np.array([0.5 + 0.3j]), np.array(0.5 + 0j), np.complex128(0.5 + 0.3j), np.complex64(2.0),
                                   np.array([-1 + 1j]), np.array(-0.5 + 0j), np.complex128(-1 + 1j), np.complex64(-2.0)])
def test_a_numpy_complex_value_is_refused_naming_its_field(value):
    # of either sign: numpy orders complex numbers by their real part, so -1+1j would fail a rule and 1+1j pass it
    for i, name in enumerate(("omega_a", "omega_b", "phase")):
        fields = [1.0, 1.0, 0.5]
        fields[i] = value
        for entry in (validate, amplitudes, solve_amplitudes_numeric):
            with pytest.raises(TypeError, match=f"^{name} must be real, got dtype complex"):
                entry(DimensionlessPoint(*fields, ModelKind.HEISENBERG_CONTACT))
    with pytest.raises(TypeError, match="^g_a must be real"):
        to_dimensionless(PhysicalPoint(value, 1.0, 1.0), ModelKind.SPIN_EXCHANGE)
    if np.ndim(value) == 0:  # an opacity at a point kept only its real part
        with pytest.raises(TypeError, match="^omega must be real"):
            site_coefficients(value, ModelKind.SPIN_EXCHANGE)
        with pytest.raises(TypeError, match="^omega_b must be real"):
            optimal_concurrence(0.5, value)
        with pytest.raises(TypeError, match="^omega_a must be real"):
            unit_concurrence_phase(value, 0.5)


def test_a_numpy_point_comes_back_as_python_floats_with_the_same_bits():
    raw = DimensionlessPoint(np.float64(0.3), np.float32(1.5), np.float64(-0.0), ModelKind.HEISENBERG_CONTACT)
    pt = validate(raw)
    assert _is_point(pt) and pt.phase_original is None
    assert repr((pt.omega_a, pt.omega_b, pt.phase)) == repr((0.3, 1.5, -0.0))
    assert repr(amplitudes(raw)) == repr(amplitudes(DimensionlessPoint(0.3, 1.5, -0.0, ModelKind.HEISENBERG_CONTACT)))
