"""The closed forms evaluated per point and over whole grids.

The scalar path (``amplitudes``, ``observables_at``) is frozen bit for bit;
grids run the same closed forms through numpy and must agree with it cell by
cell within a stated bound; both paths raise typed errors at the first bad
point; and the streaming writers reproduce the plain ``json``/per-cell
writers byte for byte, however many forked processes format the rows.
"""

import cmath
import errno
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    AmplitudeSet,
    Axis,
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    ObservableSet,
    amplitudes,
    dressed_coefficients,
    observables_at,
    run_scan,
    run_truncation,
    solve_amplitudes_numeric,
    truncated_amplitudes,
    validate,
    write_csv,
    write_json,
)
from entscat.cli import main
from entscat.core import point_at, resolve_point
from entscat import sweep
from entscat.observables import _observables
from entscat.sweep import _BLOCK, _WRITE_BLOCK, SweepGrid, make_grid, _resolve_grid
from entscat.verify import dressing_series_deviation

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT
ALL_COLUMNS = ("C_t", "P_t", "C_r", "P_r", "a_t", "a_r")
FIELDS = ("concurrence_t", "probability_t", "concurrence_r", "probability_r", "ratio_a_t", "ratio_a_r")
# Grid cells may differ from observables_at in the last digits (numpy's complex
# loops round differently); the absolute floor covers values near P = 0.
GRID_REL, GRID_ABS = 1e-12, 1e-15

FROZEN = Path(__file__).parent / "data" / "scalar_frozen.json"


def _cell(axes, index):
    """Axis values of the cell at ``index`` in row-major order."""
    if len(axes) == 1:
        return {axes[0].name: axes[0].values()[index]}
    outer, inner = axes
    row, col = divmod(index, inner.count)
    return {outer.name: outer.values()[row], inner.name: inner.values()[col]}


class TestFrozenScalarPath:
    """``repr`` of both results at 100 points (50 per model: the zero-opacity
    corners, phase 0, folded phases, large and tiny opacities, and seeded
    points on [0, 20] x [0, pi)), captured before the closed forms were
    shared with the grid path."""

    @pytest.mark.parametrize("entry", json.loads(FROZEN.read_text("utf-8"))["points"])
    def test_bit_identical(self, entry):
        pt = DimensionlessPoint(entry["omega_a"], entry["omega_b"], entry["phase"], ModelKind(entry["model"]))
        assert repr(amplitudes(pt)) == entry["amplitudes"]
        assert repr(observables_at(pt)) == entry["observables"]


@pytest.mark.parametrize("bounces", [None, 2])
def test_amplitudes_on_a_grid_is_an_amplitude_set_of_cell_arrays(bounces):
    cells = _resolve_grid((Axis("omegaA", 0.1, 3.0, 7), Axis("omegaB", 0.2, 2.0, 5)), {"phase": 4.1}, XY)
    amps = amplitudes(cells) if bounces is None else truncated_amplitudes(cells, bounces)
    assert isinstance(amps, AmplitudeSet)
    assert [z.shape for z in amps] == [(7, 5)] * 6
    for i in range(35):
        pt = point_at(cells, i)
        alone = amplitudes(pt) if bounces is None else truncated_amplitudes(pt, bounces)
        for name, z, want in zip(AmplitudeSet._fields, amps, alone):
            assert cmath.isclose(z.flat[i], want, rel_tol=GRID_REL, abs_tol=GRID_ABS), (name, i)


# ---------------------------------------------------------------------------
# every entry on a stacked point answers as its one-point calls do, cell by cell

# (entry, models, exact): the oracle, validate and the dressing check must match
# their one-point calls bit for bit, the closed forms within GRID_REL/GRID_ABS
STACK_ENTRIES = {
    "validate": (validate, (XY, HEIS), True),
    "amplitudes": (amplitudes, (XY, HEIS), False),
    "truncated_amplitudes": (lambda pt: truncated_amplitudes(pt, 3), (XY,), False),
    "observables_at": (observables_at, (XY, HEIS), False),
    "dressed_coefficients": (dressed_coefficients, (HEIS,), False),
    "solve_amplitudes_numeric": (solve_amplitudes_numeric, (XY, HEIS), True),
    "dressing_series_deviation": (dressing_series_deviation, (HEIS,), True),
}
COLUMN, ROW = np.array([[0.0], [0.7], [3.0]]), np.array([[0.0, 0.4, 1.9, 12.0]])
STACKS = {
    # (3,1) x (1,4) opacities with a scalar phase outside [0, pi), and inside it, as `scan --sin2kd 1` builds
    "broadcast": (COLUMN, ROW, 4.1),
    "broadcast-sin2kd-1": (COLUMN, ROW, math.pi / 2),
    "equal-shape": (np.array([0.0, 1.0, 0.3, 7.0, 2.0]), np.array([0.5, 0.0, 2.2, 7.0, 19.0]),
                    np.array([-1.0, 0.5, 3.5, 10.0, 0.0])),
    # non-finite cells: each stack must raise the error of its first bad cell
    "broadcast-nan": (np.array([[0.7], [math.nan], [3.0]]), ROW, 4.1),
    "equal-shape-inf": (np.array([0.0, 1.0, 0.3, 7.0, 2.0]), np.array([0.5, 0.0, math.inf, 7.0, 19.0]),
                        np.array([-1.0, 0.5, 3.5, 10.0, math.nan])),
}
# an overflowing cell: every entry that raises NumericError there alone must raise it on the stack
OVERFLOW = (np.array([0.3, 1e160, 2.0]), np.array([1.0, 1.0, 1e160]), np.array([0.5, 0.5, 0.5]))


def _values(result):
    """The numbers an entry returned, in a fixed order, None as NaN."""
    if isinstance(result, DimensionlessPoint):
        raw = result.phase if result.phase_original is None else result.phase_original
        return (result.omega_a, result.omega_b, result.phase, raw)
    if isinstance(result, ObservableSet):
        return tuple(math.nan if getattr(result, f) is None else getattr(result, f) for f in FIELDS)
    return tuple(result) if isinstance(result, tuple) else (result,)


def _stack_cases():
    for name, (_, models, _) in STACK_ENTRIES.items():
        for model in models:
            for stack in STACKS:
                yield pytest.param(name, model, STACKS[stack], id=f"{name}-{model.value}-{stack}")
            if name != "validate":  # it does not raise where amplitudes overflow
                yield pytest.param(name, model, OVERFLOW, id=f"{name}-{model.value}-overflow")


@pytest.mark.parametrize("name, model, fields", list(_stack_cases()))
def test_every_entry_answers_a_stack_cell_by_cell(name, model, fields):
    entry, _, exact = STACK_ENTRIES[name]
    stack = DimensionlessPoint(*fields, model)
    shape = np.broadcast_shapes(*(np.shape(x) for x in fields))
    alone = []
    for i in range(math.prod(shape)):
        try:
            alone.append(_values(entry(point_at(stack, i))))
        except (DomainError, NumericError) as exc:
            with pytest.raises(type(exc)) as excinfo:
                entry(stack)
            assert str(excinfo.value) == str(exc)
            assert getattr(excinfo.value, "point", None) == getattr(exc, "point", None)
            return
    stacked = [np.broadcast_to(v, shape) for v in _values(entry(stack))]
    for i, values in enumerate(alone):
        for field, (array, want) in enumerate(zip(stacked, values)):
            got = complex(array.flat[i])
            if exact:
                assert repr(got) == repr(complex(want)), (i, field)
            elif math.isnan(abs(complex(want))):
                assert math.isnan(abs(got)), (i, field)
            else:
                assert cmath.isclose(got, want, rel_tol=GRID_REL, abs_tol=GRID_ABS), (i, field, got, want)


class TestNumericError:
    @pytest.mark.parametrize(
        "pt",
        [
            DimensionlessPoint(1e160, 1.0, 1.0, XY),  # omega^2 overflows
            DimensionlessPoint(1.0, 2e160, 1.0, HEIS),
            DimensionlessPoint(1e9, 1e9, 0.0, XY),  # r rounds to -1: the bounce denominator is exactly 0
        ],
    )
    def test_scalar_path_raises_with_point(self, pt):
        for fn in (amplitudes, observables_at):
            with pytest.raises(NumericError, match="not finite") as excinfo:
                fn(pt)
            assert excinfo.value.point == validate(pt)

    def test_truncated_raises_with_point(self):
        pt = DimensionlessPoint(1e160, 1.0, 1.0, XY)
        with pytest.raises(NumericError) as excinfo:
            truncated_amplitudes(pt, 2)
        assert excinfo.value.point == pt

    def test_grid_raises_at_first_bad_cell(self):
        axes = (Axis("omegaA", 1.0, 1e160, 2), Axis("omegaB", 1.0, 3.0, 3))
        with pytest.raises(NumericError) as excinfo:
            run_scan(axes, {"phase": 1.0}, HEIS)
        assert excinfo.value.point == DimensionlessPoint(1e160, 1.0, 1.0, HEIS)

    def test_truncation_grid_raises(self):
        with pytest.raises(NumericError) as excinfo:
            run_truncation(Axis("omegaA", 1e160, 2e160, 2), {"omegaB": 1.0, "phase": 1.0}, (0, 1))
        assert excinfo.value.point.omega_a == 1e160

    @pytest.mark.parametrize(
        "axes, fixed, first_bad_row",
        [
            # phase on the second axis: the raw phase 4.0 is one value per column
            ((Axis("omegaA", 1.0, 1e154, 50), Axis("phase", 4.0, 5.0, 300)), {"omegaB": 1.0}, 38),
            # phase = pi k d on the first axis: the raw phases are cut with the rows
            ((Axis("k", 1.0, 1e-160, 50), Axis("gB", 0.5, 2.0, 300)), {"gA": 1.0, "d": 1e160}, 49),
        ],
    )
    def test_grid_error_in_a_later_block_keeps_the_raw_phase(self, axes, fixed, first_bad_row):
        assert first_bad_row >= _BLOCK // axes[1].count  # past the first block of rows
        cells = _resolve_grid(axes, fixed, HEIS)
        with pytest.raises(NumericError) as whole:
            observables_at(cells)
        with pytest.raises(NumericError) as blocked:
            run_scan(axes, fixed, HEIS)
        assert whole.value.point == point_at(cells, first_bad_row * axes[1].count)
        assert blocked.value.point == whole.value.point
        assert whole.value.point.phase_original is not None

    def test_truncation_error_in_a_later_block_keeps_the_raw_phase(self):
        axis, fixed = Axis("omegaA", 1.0, 1.6e154, 20000), {"omegaB": 1.0, "phase": 4.0}
        cells = _resolve_grid((axis,), fixed, XY)
        with pytest.raises(NumericError) as whole:
            truncated_amplitudes(cells, 1)
        with pytest.raises(NumericError) as blocked:
            run_truncation(axis, fixed, (1, 0))
        assert blocked.value.point == whole.value.point
        assert whole.value.point.phase_original == 4.0
        assert axis.values().index(whole.value.point.omega_a) >= _BLOCK

    def test_cli_exits_1_with_message(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["scan", "--axis", "omegaA=1e160:2e160:2", "--omegaB", "1", "--phase", "1", "--out", str(out)]
        assert main(argv) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_exits_1_under_optimize_flag(self, tmp_path):
        # no assert guards the result, so -O (which strips asserts) changes nothing
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "entscat", "scan", "--axis", "omegaA=1e160:2e160:2",
             "--omegaB", "1", "--phase", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "not finite" in proc.stderr
        assert not out.exists()


def scalar_message(axes, fixed, model, index):
    """The error a single-point evaluation of cell ``index`` raises."""
    with pytest.raises(DomainError) as excinfo:
        validate(resolve_point({**fixed, **_cell(axes, index)}, model))
    return str(excinfo.value)


class TestGridValidation:
    @pytest.mark.parametrize(
        "axes, fixed, first_bad",
        [
            ((Axis("omegaA", 1.0, -1.0, 3), Axis("omegaB", 0.5, 1.0, 2)), {"phase": 1.0}, 4),  # negative
            ((Axis("omegaA", 0.0, 1.0, 3),), {"omegaB": math.inf, "phase": 1.0}, 0),  # inf
            ((Axis("omegaB", 0.5, 1.0, 2),), {"omegaA": math.nan, "phase": 1.0}, 0),  # nan
            ((Axis("gA", 1.0, 1e300, 2),), {"gB": 1.0, "k": 1e-10}, 1),  # g/k overflows to inf
            ((Axis("k", 1.0, -1.0, 3),), {"gA": 1.0, "gB": 1.0}, 1),  # k = 0, then k < 0
            ((Axis("gB", 1.0, 2.0, 2), Axis("k", 2.0, -2.0, 5)), {"gA": 1.0}, 2),
            ((Axis("sin2kd", 0.5, 1.5, 3),), {"omegaA": 1.0, "omegaB": 1.0}, 2),
            ((Axis("sin2kd", -0.5, 0.5, 3),), {"omegaA": 1.0, "omegaB": 1.0}, 0),
            # an overflowing conversion in an earlier cell comes before a bad input in a later one
            ((Axis("d", 1.0, -1.0, 2),), {"gA": 1.0, "gB": 1.0, "k": 1e308}, 0),  # pi*k*d overflows
            ((Axis("gB", 1e300, -1.0, 2),), {"gA": 1.0, "k": 1e-300}, 0),
        ],
    )
    def test_first_bad_cell_raises_the_scalar_message(self, axes, fixed, first_bad):
        for model in (XY, HEIS):
            with pytest.raises(DomainError) as excinfo:
                run_scan(axes, fixed, model)
            assert str(excinfo.value) == scalar_message(axes, fixed, model, first_bad)
            for index in range(first_bad):
                validate(resolve_point({**fixed, **_cell(axes, index)}, model))  # earlier cells pass

    @pytest.mark.parametrize("axis", [Axis("phase", -7.0, 7.0, 2001), Axis("phase", -1e3, 1e3, 20001)])
    def test_phase_axis_folds_exactly_like_validate(self, axis):
        folded = _resolve_grid((axis,), {"omegaA": 1.0, "omegaB": 2.0}, XY).phase
        expected = [validate(DimensionlessPoint(1.0, 2.0, v, XY)).phase for v in axis.values()]
        assert folded.tolist() == expected


# Values inside each parameter's domain, and values outside it or that overflow the conversion:
# g/k overflows for gA = 1e300 at k = 1e-300, pi*k*d for k = 1e308 at d >= 1.
GOOD_VALUES = {
    "omegaA": st.floats(0.0, 20.0),
    "omegaB": st.floats(0.0, 20.0),
    "phase": st.floats(-1e3, 1e3),
    "sin2kd": st.floats(0.0, 1.0),
    "k": st.floats(1e-3, 10.0),
    "d": st.floats(0.1, 3.0),
    "gA": st.floats(0.0, 10.0),
    "gB": st.floats(0.0, 10.0),
}
BAD_VALUES = {
    "omegaA": (-1.0, -1e-300),
    "omegaB": (-2.0, 1e308),
    "phase": (1e300,),
    "sin2kd": (-0.5, -1e-300, 1.5),
    "k": (0.0, -1.0, 1e-300, 1e308),
    "d": (0.0, -1.0),
    "gA": (-1.0, 1e300),
    "gB": (-0.5,),
}
NON_FINITE = (math.inf, -math.inf, math.nan)


@st.composite
def resolver_cases(draw):
    """A 1D or 2D grid in either unit system; in half the cases, bad values
    are mixed in, on the axes and in the fixed parameters."""
    system = draw(st.sampled_from(("phase", "sin2kd", "physical")))
    names = ("k", "gA", "gB", "d") if system == "physical" else ("omegaA", "omegaB", system)
    mixed = draw(st.booleans())

    def value(name, *extra_bad):
        bad = st.sampled_from(BAD_VALUES[name] + extra_bad)
        return draw(st.one_of(GOOD_VALUES[name], GOOD_VALUES[name], bad) if mixed else GOOD_VALUES[name])

    axis_names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    axes = tuple(Axis(name, value(name), value(name), draw(st.integers(2, 5))) for name in axis_names)
    fixed = {
        name: value(name, *NON_FINITE)
        for name in names
        if name not in axis_names and (name != "d" or draw(st.booleans()))
    }
    return axes, fixed, draw(st.sampled_from((XY, HEIS)))


@settings(max_examples=300, deadline=None)
@given(resolver_cases())
def test_grid_resolves_exactly_as_its_cells(case):
    """resolve_point on broadcast axis arrays equals resolve_point cell by
    cell, bit for bit; with a bad value, the grid raises the error of the
    first bad cell in row-major order."""
    axes, fixed, model = case
    shape = tuple(ax.count for ax in axes)
    cells, error = [], None
    for index in range(math.prod(shape)):
        try:
            cells.append(resolve_point({**fixed, **_cell(axes, index)}, model))
        except DomainError as exc:
            error = exc
            break
    if error is not None:
        with pytest.raises(DomainError) as excinfo:
            run_scan(axes, fixed, model)
        assert (type(excinfo.value), str(excinfo.value)) == (type(error), str(error))
        return
    params = dict(fixed)
    for i, ax in enumerate(axes):
        params[ax.name] = np.reshape(ax.values(), [-1 if j == i else 1 for j in range(len(axes))])
    grid = resolve_point(params, model)
    for field in ("omega_a", "omega_b", "phase"):
        values = np.broadcast_to(getattr(grid, field), shape).ravel()
        assert values.tobytes() == np.array([getattr(c, field) for c in cells]).tobytes(), field
    folded = _resolve_grid(axes, fixed, model).phase
    assert np.broadcast_to(folded, shape).ravel().tolist() == [validate(c).phase for c in cells]


@pytest.mark.parametrize("model", [XY, HEIS])
def test_probability_underflows_while_concurrence_is_defined(model):
    # C and a are undefined only where both flip amplitudes are 0; their squared norm P underflows first
    obs = observables_at(DimensionlessPoint(1e-300, 1e-300, 1.0, model))
    assert (obs.concurrence_t, obs.probability_t) == (1.0, 0.0)
    grid = run_scan((Axis("phase", 1.0, 1.0, 2),), {"omegaA": 1e-300, "omegaB": 1e-300}, model)
    assert (grid.columns["C_t"][0], grid.columns["P_t"][0]) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# grid cells against observables_at at the same point

# Opacities stay within [0, 20], where the bound holds: the contact model's
# drift grows about as omega^2 near resonance (measured with numpy 2.4 on
# x86-64: up to 7e-13 at omega = 20 and phase 1e-4, 3e-12 at omega = 50).
OPACITY = st.one_of(st.just(0.0), st.floats(0.01, 20.0))
COUPLING = st.one_of(st.just(0.0), st.floats(0.01, 10.0))  # with k >= 0.5, omega = g/k <= 20
COUNT = st.integers(2, 6)


@st.composite
def grids(draw):
    """A 1D or 2D grid in either unit system, with opacities on [0, 20] and
    zero-opacity corners drawn often."""
    system = draw(st.sampled_from(("phase", "sin2kd", "physical")))
    if system == "physical":
        ranges = {"gA": COUPLING, "gB": COUPLING, "k": st.floats(0.5, 10.0), "d": st.floats(0.5, 2.0)}
        required = ("gA", "gB", "k")
    else:
        if system == "phase":
            phase = st.floats(-7.0, 7.0)
        else:
            phase = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
        ranges = {"omegaA": OPACITY, "omegaB": OPACITY, system: phase}
        required = tuple(ranges)
    names = draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1, max_size=2, unique=True))
    axes = tuple(Axis(name, draw(ranges[name]), draw(ranges[name]), draw(COUNT)) for name in names)
    fixed = {name: draw(ranges[name]) for name in required if name not in names}
    return axes, fixed, draw(st.sampled_from((XY, HEIS)))


@settings(max_examples=150, deadline=None, derandomize=True)  # a fixed sample: the bound has little headroom
@given(grids())
def test_scan_cells_match_point_evaluation(case):
    axes, fixed, model = case
    grid = run_scan(axes, fixed, model, ALL_COLUMNS)
    cells = math.prod(ax.count for ax in axes)
    assert [values.shape for values in grid.columns.values()] == [(cells,)] * len(ALL_COLUMNS)
    for index in range(cells):
        obs = observables_at(resolve_point({**fixed, **_cell(axes, index)}, model))
        row = [values[index] for values in grid.columns.values()]
        expected = tuple(getattr(obs, name) for name in FIELDS)
        assert [math.isnan(v) for v in row] == [v is None for v in expected]
        for value, ref in zip(row, expected):
            if ref is not None:
                assert math.isclose(value, ref, rel_tol=GRID_REL, abs_tol=GRID_ABS), (index, value, ref)


# ---------------------------------------------------------------------------
# scans run in blocks of rows of the first axis; the blocks must give the bits
# one evaluation of the whole grid gives

BLOCKED_SCANS = {
    # 61 rows of 300 cells, in blocks of _BLOCK // 300 rows: the last block is short
    "rows-not-a-multiple": ((Axis("omegaA", 0.0, 20.0, 61), Axis("omegaB", 0.0, 3.0, 300)), {"phase": 4.1}),
    # a row wider than a block: one row per block
    "row-wider-than-a-block": ((Axis("omegaA", 0.5, 2.0, 3), Axis("phase", -7.0, 7.0, _BLOCK + 809)), {"omegaB": 1.3}),
    "one-axis": ((Axis("phase", -7.0, 7.0, 2 * _BLOCK + 17),), {"omegaA": 0.7, "omegaB": 2.2}),
    # omega = g/k varies along both axes, so that field is cut as a whole grid
    "physical": ((Axis("gA", 0.0, 9.0, 40), Axis("k", 0.5, 5.0, 301)), {"gB": 1.7}),
}


def _rows_per_block(shape):
    return max(1, _BLOCK // math.prod(shape[1:]))


def test_blocked_scans_cover_a_short_last_block_and_one_row_per_block():
    shapes = {name: tuple(ax.count for ax in axes) for name, (axes, _) in BLOCKED_SCANS.items()}
    short = shapes["rows-not-a-multiple"]
    assert short[0] % _rows_per_block(short)
    assert _rows_per_block(shapes["row-wider-than-a-block"]) == 1


@pytest.mark.parametrize("model", [XY, HEIS])
@pytest.mark.parametrize("name", list(BLOCKED_SCANS))
def test_blocked_scan_equals_the_whole_grid_bit_for_bit(name, model):
    axes, fixed = BLOCKED_SCANS[name]
    shape = tuple(ax.count for ax in axes)
    assert shape[0] > _rows_per_block(shape)  # several blocks
    grid = run_scan(axes, fixed, model, ALL_COLUMNS)
    whole = observables_at(_resolve_grid(axes, fixed, model))
    for column, field in zip(ALL_COLUMNS, FIELDS):
        assert grid.columns[column].tobytes() == np.broadcast_to(getattr(whole, field), shape).tobytes(), column


def test_blocked_truncation_equals_the_whole_axis_bit_for_bit():
    axis, fixed, orders = Axis("k", 0.05, 10.0, 2 * _BLOCK + 17), {"gA": 3.0, "gB": 2.5}, (0, 1, 3)
    grid = run_truncation(axis, fixed, orders)
    cells = _resolve_grid((axis,), fixed, XY)
    sets = {f"n{n}": _observables(truncated_amplitudes(cells, n)) for n in orders}
    sets["exact"] = observables_at(cells)
    want = {f"{c}_{suffix}": getattr(obs, field)
            for suffix, obs in sets.items() for c, field in (("C", "concurrence_t"), ("P", "probability_t"))}
    assert list(grid.columns) == list(want)
    for name, values in want.items():
        assert grid.columns[name].tobytes() == values.tobytes(), name


def test_scan_memory_is_its_columns_and_one_block():
    """The tracemalloc peak of a 400x400 heis scan is its four columns
    (4.9 MiB) and the temporaries of one block: 6.3 MiB, measured with numpy
    2.4 on x86-64.  One pass over the whole grid, whose temporaries are each
    grid-sized, peaks at 41.8 MiB there."""
    axes, fixed = (Axis("omegaA", 0.01, 3.0, 400), Axis("omegaB", 0.02, 3.1, 400)), {"phase": 1.3}
    run_scan(axes, fixed, HEIS)  # what the first call loads stays out of the peak
    tracemalloc.start()
    try:
        run_scan(axes, fixed, HEIS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_json_write_memory_is_one_block(monkeypatch, tmp_path):
    """The tracemalloc peak of writing a 400x400 heis grid to JSON in one
    process is one write block's matrices: 3.2 MiB, measured with numpy 2.4
    on x86-64, where the file is 15.7 MiB."""
    axes, fixed = (Axis("omegaA", 0.01, 3.0, 400), Axis("omegaB", 0.02, 3.1, 400)), {"phase": 1.3}
    grid = run_scan(axes, fixed, HEIS)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
    write_json(grid, tmp_path / "g.json")  # what the first call loads stays out of the peak
    tracemalloc.start()
    try:
        write_json(grid, tmp_path / "g.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "g.json").stat().st_size > 15 * 2**20
    assert peak < 8 * 2**20, peak


# ---------------------------------------------------------------------------
# the streaming writers against the plain writers they replace

def reference_rows(grid):
    """Cell i of every column, for each cell i in row-major order."""
    cells = math.prod(ax.count for ax in grid.axes)
    return [[float(values[i]) for values in grid.columns.values()] for i in range(cells)]


def reference_csv(grid):
    lines = ["# meta: " + ";".join(f"{k}={v}" for k, v in sorted(grid.meta.items()))]
    lines.append(",".join([ax.name for ax in grid.axes] + list(grid.columns)))
    for index, row in enumerate(reference_rows(grid)):
        coords = _cell(grid.axes, index)
        cells = [repr(float(coords[ax.name])) for ax in grid.axes]
        cells += ["" if math.isnan(v) else repr(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_json(grid):
    document = {
        "meta": dict(sorted(grid.meta.items())),
        "axes": [
            {"name": ax.name, "start": ax.start, "stop": ax.stop, "count": ax.count, "spacing": "linear"}
            for ax in grid.axes
        ],
        "columns": list(grid.columns),
        "rows": [[v if math.isfinite(v) else None for v in row] for row in reference_rows(grid)],
    }
    return json.dumps(document, indent=1, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "grid",
    [
        run_scan(
            (Axis("omegaA", 0.0, 3.0, 70), Axis("omegaB", 0.0, 2.0, 90)), {"sin2kd": 1.0}, XY, ALL_COLUMNS
        ),
        run_scan((Axis("phase", 0.1, 1.0, 3),), {"omegaA": 0.0, "omegaB": 0.0}, HEIS),
        make_grid("scan", HEIS, (Axis("phase", 0.1, 1.0, 3),), {"omegaA": 0.0, "omegaB": 1.0}, {}),
        run_truncation(Axis("k", 0.05, 10.0, 9), {"gA": 3.0, "gB": 3.0}, (0, 1, 3)),
        SweepGrid(
            (Axis("omegaA", 0.0, 1.0, 3),), {"x": [1, math.inf, -math.inf], "y": [0.5, None, math.nan]},
            {"tool": "t", "note": "ü"},
        ),
        # a column repeated bit for bit is written once; 0.0 == -0.0, but
        # their bits differ
        SweepGrid((Axis("omegaA", 0.0, 1.0, 3),), {"x": [0.0] * 3, "y": [-0.0] * 3, "z": [0.0] * 3}, {"tool": "t"}),
        # equal in the first block of cells the writers format, one cell
        # apart in the second
        SweepGrid(
            (Axis("omegaA", 0.0, 1.0, 4), Axis("omegaB", 0.0, 1.0, _WRITE_BLOCK // 2)),
            {"x": [i / 7 for i in range(2 * _WRITE_BLOCK)],
             "y": [0.5 if i == _WRITE_BLOCK + 100 else i / 7 for i in range(2 * _WRITE_BLOCK)]},
            {"tool": "t"},
        ),
        SweepGrid(
            (Axis("omegaA", 0.0, 1.0, 3),),
            {"x": [0.5, None, 0.125], "y": [0.5, 0.25, 0.125], "z": [0.5, None, 0.125]}, {"tool": "t"},
        ),
        # an undefined-bearing column bit-identical to an earlier one reuses
        # its text, the empty or null cells included
        SweepGrid(
            (Axis("omegaA", 0.0, 1.0, 4),),
            {"x": [None, 0.25, math.inf, -0.0], "y": [0.5] * 4, "z": [math.nan, 0.25, math.inf, -0.0]},
            {"tool": "t"},
        ),
        # the grid-scan workload's xy grid: at sin2kd = 1 the reflected
        # columns repeat the transmitted ones
        run_scan((Axis("omegaA", 0.03, 3.1, 200), Axis("omegaB", 0.02, 2.9, 200)), {"sin2kd": 1.0}, XY),
    ],
    ids=[
        "2d-multiblock", "undefined", "no-columns", "truncation", "mixed-values",
        "signed-zero", "split-in-second-block", "none-beside-equal", "repeated-undefined",
        "resonant-200x200",
    ],
)
def test_writers_match_reference_bytes(grid, tmp_path):
    write_csv(grid, tmp_path / "g.csv")
    write_json(grid, tmp_path / "g.json")
    assert (tmp_path / "g.csv").read_bytes() == reference_csv(grid).encode("utf-8")
    assert (tmp_path / "g.json").read_bytes() == reference_json(grid).encode("utf-8")


def test_grid_refuses_columns_that_do_not_fill_its_axes():
    axes = (Axis("omegaA", 0.0, 1.0, 3),)
    with pytest.raises(DomainError, match=r"grid column 'y' has shape \(2,\), its axes make \(3,\)"):
        SweepGrid(axes, {"x": [0.5] * 3, "y": [0.5] * 2}, {})
    with pytest.raises(DomainError, match=r"grid column 'x' has shape \(3, 1\), its axes make \(3,\)"):
        SweepGrid(axes, {"x": np.zeros((3, 1))}, {})


# ---------------------------------------------------------------------------
# a grid of more than one write block is formatted by forked children, one
# range of whole blocks per usable CPU: the bytes do not depend on how many


@pytest.fixture(scope="module")
def forked_grid():
    """Five write blocks and a short sixth, with NaN and +-inf cells, a
    column repeated bit for bit, and the reference bytes of both files."""
    cells = 105 * 100
    assert 5 * _WRITE_BLOCK < cells < 6 * _WRITE_BLOCK
    x = np.arange(cells) / 7
    x[::11], x[3::13], x[5::17] = math.nan, math.inf, -math.inf
    y = np.where(np.arange(cells) % 5 == 0, -0.0, np.sqrt(np.arange(cells)))
    grid = SweepGrid(
        (Axis("omegaA", 0.0, 3.0, 105), Axis("omegaB", 0.5, 2.0, 100)), {"C_t": x, "P_t": y, "C_r": x.copy()},
        {"tool": "t"},
    )
    return grid, {"csv": reference_csv(grid).encode("utf-8"), "json": reference_json(grid).encode("utf-8")}


WRITERS = {"csv": write_csv, "json": write_json}


def write_forked(grid, fmt, path):
    """The bytes ``fmt``'s writer puts in ``path``; no child outlives it."""
    WRITERS[fmt](grid, path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return path.read_bytes()


@pytest.fixture
def forks(monkeypatch):
    """The number of forks made, counted in this process."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
    return made


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_forked_writers_write_the_same_bytes_on_any_cpu_count(forked_grid, fmt, cpus, forks, monkeypatch, tmp_path):
    grid, expected = forked_grid
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected[fmt]
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cpus, blocks", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (3, 4)])
def test_one_n_and_n_plus_one_blocks_write_the_same_bytes(fmt, cpus, blocks, forks, monkeypatch, tmp_path):
    """Grids of exactly 1, N and N + 1 write blocks on N CPUs: a range per
    CPU where there are enough blocks, never an empty one."""
    cells = blocks * _WRITE_BLOCK
    x = np.arange(cells) / 3
    x[::7] = math.nan
    grid = SweepGrid((Axis("omegaA", 0.0, 1.0, cells),), {"C_t": x, "P_t": np.sqrt(np.arange(cells))}, {"tool": "t"})
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    expected = reference_csv(grid) if fmt == "csv" else reference_json(grid)
    assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected.encode("utf-8")
    assert len(forks) == min(blocks, cpus) - 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_child_leaves_its_range_to_the_parent(forked_grid, fmt, forks, monkeypatch, tmp_path):
    grid, expected = forked_grid
    parent, write_blocks = os.getpid(), sweep._write_blocks

    def fail_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child")
        write_blocks(*args)

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sweep, "_write_blocks", fail_in_a_child)
    assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected[fmt]
    assert len(forks) == 2


def test_a_write_that_raises_reaps_every_child_first(forked_grid, forks, monkeypatch, tmp_path):
    grid, _ = forked_grid
    parent, write_blocks = os.getpid(), sweep._write_blocks

    def fail_in_the_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent")
        write_blocks(*args)

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sweep, "_write_blocks", fail_in_the_parent)
    with pytest.raises(RuntimeError, match="parent"):
        write_csv(grid, tmp_path / "g.csv")
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("failing", ["os.fork", "tempfile.TemporaryFile"])
def test_a_fork_or_temporary_file_that_fails_leaves_its_range_to_the_parent(forked_grid, fmt, failing, monkeypatch, tmp_path):
    grid, expected = forked_grid

    def refuse(*args):
        raise OSError(errno.EAGAIN, "refused")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(failing, refuse)
    assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_fork_while_another_thread_runs(forked_grid, fmt, monkeypatch, tmp_path):
    grid, expected = forked_grid
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a second thread"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected[fmt]
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_forked_write_warns_nothing(forked_grid, fmt, forks, monkeypatch, tmp_path):
    # Python >= 3.12 warns so at a fork where the OS reports other threads,
    # such as OpenBLAS's pool; here every version does
    grid, expected = forked_grid
    fork = os.fork

    def warn_and_fork():
        message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child."
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warn_and_fork)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert write_forked(grid, fmt, tmp_path / f"g.{fmt}") == expected[fmt]
    assert len(forks) == 1


def test_a_forked_write_streams_to_a_fifo(forked_grid, monkeypatch, tmp_path):
    grid, expected = forked_grid
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with open(tmp_path / "copy.csv", "wb") as out:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=out)
    try:
        write_csv(grid, fifo)
    finally:
        assert reader.wait(timeout=60) == 0
    assert (tmp_path / "copy.csv").read_bytes() == expected["csv"]
