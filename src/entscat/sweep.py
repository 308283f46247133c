"""Deterministic parameter sweeps with CSV/JSON serialization.

Axes are linear grids over either the physical flags (k, gA, gB, with d
fixed) or the dimensionless ones (omegaA, omegaB, phase or sin2kd); the two
unit systems never mix in one sweep.  A grid holds one float64 array per
column, its cells in row-major axis order, with NaN where a cell is
undefined; the files write that NaN as an empty cell (CSV) or null (JSON).
A grid is evaluated in blocks of rows straight into its columns.
Rows are written in row-major axis order and floats with their shortest
round-trip representation, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._digits import WIDTH, reprs
from .closedform import truncated_amplitudes
from .core import (
    COLUMNS,
    DEFAULT_COLUMNS,
    DimensionlessPoint,
    DomainError,
    ModelKind,
    _float,
    check_count,
    check_single,
    resolve_point,
    validate,
)
from .observables import _observables, observables_at


@dataclass(frozen=True)
class Axis:
    """One linear sweep axis; ``count`` >= 2 grid points including both ends."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "count", check_count(f"axis {self.name!r} count", self.count, 2))
        for end in (self.start, self.stop):
            check_single(self.name, end, "value")
        if not (abs(self.start) < math.inf and abs(self.stop) < math.inf):  # a non-number raises TypeError here
            raise DomainError(f"axis {self.name!r} range must be finite")
        object.__setattr__(self, "start", float(_float(self.name, self.start)))  # a 0-d array as its one value
        object.__setattr__(self, "stop", float(_float(self.name, self.stop)))
        if not math.isfinite(self.stop - self.start):
            raise DomainError(f"axis {self.name!r} span stop - start is not finite in float64")

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        vals = [self.start + i * step for i in range(self.count)]
        vals[-1] = self.stop  # endpoint exact regardless of rounding
        return vals


@dataclass(frozen=True)
class SweepGrid:
    """Axis definitions and the observable columns: each column name maps to
    a 1-D float64 array of its cells in row-major axis order.

    NaN marks an undefined cell, never 0: C and a are undefined exactly where
    both flip amplitudes of that side are 0.  P can underflow to 0.0 where C
    is still defined (opacities near 1e-300).  A column given as a list
    reads None as NaN.
    """

    axes: tuple[Axis, ...]
    columns: dict[str, np.ndarray]
    meta: dict[str, str]

    def __post_init__(self):
        cells = math.prod(ax.count for ax in self.axes)
        columns = {name: np.asarray(values, dtype=float) for name, values in self.columns.items()}
        for name, values in columns.items():
            if values.shape != (cells,):
                raise DomainError(f"grid column {name!r} has shape {values.shape}, its axes make ({cells},)")
        object.__setattr__(self, "columns", columns)


def _check_request(axes: tuple[Axis, ...], fixed: dict[str, float], item: str, requested) -> None:
    """One or two axes, each fixed parameter one value (a 0-d array counts),
    and each parameter and each ``requested`` ``item`` (column or bounce
    order) given once; :func:`resolve_point` refuses an unknown name."""
    if not 1 <= len(axes) <= 2:
        raise DomainError(f"need 1 or 2 axes, got {len(axes)}")
    for what, values in (("parameter", [ax.name for ax in axes] + list(fixed)), (item, list(requested))):
        if len(set(values)) != len(values):
            raise DomainError(f"{what} given twice in {values}")
    for name, value in fixed.items():
        check_single(name, value, "value")


def make_grid(
    kind: str,
    model: ModelKind,
    axes: tuple[Axis, ...],
    fixed: dict[str, float],
    columns: dict[str, np.ndarray],
    **extra: str,
) -> SweepGrid:
    """A SweepGrid of ``columns`` with its meta: the tool, ``kind``,
    ``model``, the units, the axes, each fixed parameter and the ``extra``
    entries."""
    meta = {
        "tool": f"entscat {__version__}",
        "kind": kind,
        "model": model.value,
        "units": "g in hbar^2*pi/(m*d), k in pi/d",
        "axes": "|".join(f"{ax.name}:{ax.start!r}:{ax.stop!r}:{ax.count}" for ax in axes),
    }
    for name in sorted(fixed):
        meta[name] = repr(float(fixed[name]))
    return SweepGrid(tuple(axes), columns, {**meta, **extra})


def _resolve_grid(axes: tuple[Axis, ...], fixed: dict[str, float], model: ModelKind) -> DimensionlessPoint:
    """Every cell as one validated stacked point, fields broadcasting to the
    grid in row-major axis order: :func:`resolve_point` run once on the axes."""
    params = dict(fixed)
    for i, ax in enumerate(axes):
        params[ax.name] = np.reshape(ax.values(), [-1 if j == i else 1 for j in range(len(axes))])
    return validate(resolve_point(params, model))


_BLOCK = 4096  # cells evaluated at once: each complex temporary of the closed forms is this long


def _evaluate(cells: DimensionlessPoint, axes: tuple[Axis, ...], evaluate, fields: dict[str, str]):
    """Column name -> the ObservableSet field ``fields`` names, of
    ``evaluate`` on the grid ``cells`` of ``axes``, raveled.  Blocks of whole
    first-axis rows, about _BLOCK cells each, are evaluated in turn into the
    preallocated columns.  A block cuts each field that varies along the
    first axis, ``phase_original`` too, so an error carries its point."""
    shape = tuple(ax.count for ax in axes)
    step = max(1, _BLOCK // math.prod(shape[1:]))
    columns = {name: np.empty(shape) for name in fields}
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        cut = {f: x[rows] for f in ("omega_a", "omega_b", "phase", "phase_original")
               if np.ndim(x := getattr(cells, f)) == len(shape) and np.shape(x)[0] > 1}
        obs = evaluate(replace(cells, **cut))
        for name, field in fields.items():
            columns[name][rows] = getattr(obs, field)
    return {name: values.ravel() for name, values in columns.items()}


def run_scan(
    axes: tuple[Axis, ...],
    fixed: dict[str, float],
    model: ModelKind,
    columns: tuple[str, ...] = DEFAULT_COLUMNS,
) -> SweepGrid:
    """Evaluate the observables on a 1D or 2D grid: :func:`observables_at`
    on blocks of rows of the first axis (see :func:`_evaluate`)."""
    _check_request(axes, fixed, "column", columns)
    if not columns:
        raise DomainError("need at least one column")
    for col in columns:
        if col not in COLUMNS:
            raise DomainError(f"unknown column {col!r}; known: {tuple(COLUMNS)}")
    values = _evaluate(_resolve_grid(axes, fixed, model), axes, observables_at, {c: COLUMNS[c] for c in columns})
    return make_grid("scan", model, axes, fixed, values)


def run_truncation(
    axis: Axis,
    fixed: dict[str, float],
    bounce_orders: tuple[int, ...],
) -> SweepGrid:
    """Concurrence and probability with the bounce series cut at each order,
    next to the exact values (exchange model, transmitted side).  Every
    order is checked before any cell is evaluated; each then runs over the
    whole axis in turn, so the first with a bad cell raises."""
    model = ModelKind.SPIN_EXCHANGE
    bounce_orders = tuple(check_count("bounce count", n, 0) for n in bounce_orders)
    _check_request((axis,), fixed, "bounce order", bounce_orders)
    cells = _resolve_grid((axis,), fixed, model)
    sets = {f"n{n}": lambda pt, n=n: _observables(truncated_amplitudes(pt, n)) for n in bounce_orders}
    sets["exact"] = observables_at
    columns = {}
    for suffix, evaluate in sets.items():
        columns |= _evaluate(cells, (axis,), evaluate, {f"C_{suffix}": "concurrence_t", f"P_{suffix}": "probability_t"})
    orders = ",".join(str(n) for n in bounce_orders)
    return make_grid("truncate", model, (axis,), fixed, columns, bounce_orders=orders)


_WRITE_BLOCK = 2048  # cells per column formatted and written at once; their text is all held until written


def _rows(pieces: list, count: int) -> np.ndarray:
    """``count`` rows side by side: each piece is a (count, width) uint8
    matrix or bytes repeated on every row."""
    widths = [len(piece) if isinstance(piece, bytes) else piece.shape[1] for piece in pieces]
    rows = np.empty((count, sum(widths)), dtype=np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        rows[:, at : at + width] = np.frombuffer(piece, dtype=np.uint8) if isinstance(piece, bytes) else piece
        at += width
    return rows


def _between(separator: bytes, fields: list) -> list:
    """``fields`` with ``separator`` between each two."""
    return [piece for field in fields for piece in (separator, field)][1:]


def _write_blocks(grid: SweepGrid, as_json: bool, start: int, stop: int, fh) -> None:
    """Write the rows of cells ``start`` (a multiple of _WRITE_BLOCK) to
    ``stop`` to the binary ``fh``, a block at a time, as the non-NUL bytes
    of one uint8 matrix per block, a row per cell: each column's slice as
    ``repr`` of each float (:func:`_digits.reprs`), a NaN (undefined) cell
    as "" (CSV) or a non-finite one as "null" (JSON), and a slice with the
    float64 bits of an earlier one in its block as its text.  A CSV row
    leads with the ``repr`` of each axis value, formatted once per axis; a
    JSON row after cell 0 with its ",\\n"."""
    shape = [ax.count for ax in grid.axes]
    strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
    coords = [] if as_json else [(reprs(ax.values()), stride, ax.count) for ax, stride in zip(grid.axes, strides)]
    null = np.frombuffer(b"null".ljust(WIDTH, b"\0") if as_json else bytes(WIDTH), dtype=np.uint8)
    for first in range(start, stop, _WRITE_BLOCK):
        count = min(stop - first, _WRITE_BLOCK)
        slices = {}  # the float64 bits of each distinct column slice -> its row in ``values``
        order = [slices.setdefault(col[first : first + count].tobytes(), len(slices)) for col in grid.columns.values()]
        values = np.frombuffer(b"".join(slices), dtype=np.float64).reshape(len(slices), count)
        text = reprs(values).reshape(len(slices), count, WIDTH)
        text[~np.isfinite(values) if as_json else np.isnan(values)] = null
        columns = [text[i] for i in order]
        if as_json:
            pieces = [b",\n  [\n   ", *_between(b",\n   ", columns), b"\n  ]"] if columns else [b",\n  []"]
            rows = _rows(pieces, count)
            if first == 0:
                rows[0, :2] = 0  # cell 0 opens the list
        else:
            cells = np.arange(first, first + count)
            labels = [axis_text[cells // stride % n] for axis_text, stride, n in coords]
            rows = _rows([*_between(b",", labels + columns), b"\n"], count)
        fh.write(rows[rows != 0])


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _reap(pid: int) -> bool:
    """Wait for child ``pid``: whether it exited 0 (False where something else reaped it)."""
    try:
        return os.waitpid(pid, 0)[1] == 0
    except ChildProcessError:
        return False


def _write_rows(grid: SweepGrid, as_json: bool, fh) -> None:
    """Write every cell's row to ``fh``, one range of whole blocks per usable
    CPU: range 0 here, each later one by a forked child into a temporary
    file, copied after it in order.  Where a fork fails or a child does not
    exit 0, this process writes that range."""
    cells = math.prod(ax.count for ax in grid.axes)
    blocks = -(-cells // _WRITE_BLOCK)
    parts = min(blocks, _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    edges = [min(cells, blocks * i // parts * _WRITE_BLOCK) for i in range(parts + 1)]
    children = []  # [pid, temporary file, start, stop] of each later range; None where not made, pid once reaped
    try:
        for start, stop in zip(edges[1:], edges[2:]):
            pid = tmp = None
            try:
                tmp = tempfile.TemporaryFile()
                # Python >= 3.12 warns at a fork whenever the OS reports other threads, such
                # as OpenBLAS's idle pool.  The child is safe: no other Python thread exists,
                # OpenBLAS shuts its pool down in its own pthread_atfork handler, and the
                # child runs no BLAS and takes no lock that another thread holds.
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pass
            if pid == 0:  # the child leaves by os._exit: no flush, unwinding or exit handler runs
                try:
                    _write_blocks(grid, as_json, start, stop, tmp)
                    tmp.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append([pid, tmp, start, stop])
        _write_blocks(grid, as_json, 0, edges[1], fh)
        for child in children:
            pid, tmp, start, stop = child
            exited_0 = pid is not None and _reap(pid)
            child[0] = None
            if exited_0:
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
            else:
                _write_blocks(grid, as_json, start, stop, fh)
    finally:
        for pid, tmp, _, _ in children:
            if pid is not None:
                _reap(pid)
            if tmp is not None:
                tmp.close()


def write_csv(grid: SweepGrid, path) -> None:
    meta_line = "# meta: " + ";".join(f"{k}={v}" for k, v in sorted(grid.meta.items()))
    header = ",".join([ax.name for ax in grid.axes] + list(grid.columns))
    with open(path, "wb") as fh:
        fh.write(f"{meta_line}\n{header}\n".encode())
        _write_rows(grid, False, fh)


def write_json(grid: SweepGrid, path) -> None:
    """Write the bytes ``json.dump(document, fh, indent=1, sort_keys=True)``
    would, with the rows streamed rather than run through the pure-Python
    encoder (which ``indent`` selects)."""
    document = {
        "meta": dict(sorted(grid.meta.items())),
        "axes": [
            {"name": ax.name, "start": ax.start, "stop": ax.stop, "count": ax.count, "spacing": "linear"}
            for ax in grid.axes
        ],
        "columns": list(grid.columns),
        "rows": [],
    }
    # "rows" sorts last, so the encoded document ends with its empty list
    head = json.dumps(document, indent=1, sort_keys=True, allow_nan=False).removesuffix("[]\n}")
    with open(path, "wb") as fh:
        fh.write(f"{head}[\n".encode())
        _write_rows(grid, True, fh)
        fh.write(b"\n ]\n}\n")


def write_grid(grid: SweepGrid, path, fmt: str) -> None:
    if fmt == "csv":
        write_csv(grid, path)
    elif fmt == "json":
        write_json(grid, path)
    else:
        raise DomainError(f"unknown format {fmt!r}")
