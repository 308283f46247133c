"""Deterministic parameter sweeps with CSV/JSON serialization.

Axes are linear grids over either the physical flags (k, gA, gB, with d
fixed) or the dimensionless ones (omegaA, omegaB, phase or sin2kd); the two
unit systems never mix in one sweep.  Rows are emitted in row-major axis
order and floats are written with their shortest round-trip representation,
so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .closedform import grid_amplitudes
from .core import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    PhysicalPoint,
    check_point,
    fold_phase,
    to_dimensionless,
)
from .observables import post_selected_state, side_arrays

PHYSICAL_NAMES = ("k", "gA", "gB", "d")
DIMENSIONLESS_NAMES = ("omegaA", "omegaB", "phase", "sin2kd")

DEFAULT_COLUMNS = ("C_t", "P_t", "C_r", "P_r")
KNOWN_COLUMNS = ("C_t", "P_t", "C_r", "P_r", "a_t", "a_r")


@dataclass(frozen=True)
class Axis:
    """One linear sweep axis; ``count`` >= 2 grid points including both ends."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise DomainError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(f"axis {self.name!r} range must be finite")

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        vals = [self.start + i * step for i in range(self.count)]
        vals[-1] = self.stop  # endpoint exact regardless of rounding
        return vals


@dataclass(frozen=True)
class SweepGrid:
    """Axis definitions, observable columns, and the row-major value table.

    An undefined entry is None, never 0: C and a are undefined exactly where
    both flip amplitudes of that side are 0.  P can underflow to 0.0 where C
    is still defined (opacities near 1e-300).
    """

    axes: tuple[Axis, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]
    meta: dict[str, str]


def _phase_of_sin2(s):
    """asin(sqrt(s)) with :mod:`math`, value by value on numpy arrays; NaN where undefined."""
    if isinstance(s, np.ndarray):
        return np.reshape([_phase_of_sin2(v) for v in s.ravel().tolist()], s.shape)
    try:
        return math.asin(math.sqrt(s))
    except ValueError:  # s outside [0, 1], which resolve_point rejects
        return math.nan


def resolve_point(params: dict[str, float], model: ModelKind) -> DimensionlessPoint:
    """The point named by ``params``, in one unit system: physical k, gA, gB
    and optionally d, or dimensionless omegaA, omegaB and one of phase or
    sin2kd; the phase is not folded.  Raises DomainError for a mix, a missing
    name or a bad value.  Elementwise on numpy arrays that broadcast together:
    a bad value raises the error that the first bad cell, in row-major order,
    raises on its own."""
    names = set(params)
    physical = names & set(PHYSICAL_NAMES)
    dimensionless = names & set(DIMENSIONLESS_NAMES)
    if physical and dimensionless:
        raise DomainError(f"mixed unit systems: {sorted(physical)} with {sorted(dimensionless)}")
    if physical:
        missing = {"k", "gA", "gB"} - names
        if missing:
            raise DomainError(f"physical point needs k, gA, gB; missing {sorted(missing)}")
        p = PhysicalPoint(params["gA"], params["gB"], params["k"], params.get("d", 1.0))
        return to_dimensionless(p, model)
    missing = {"omegaA", "omegaB"} - names
    if missing:
        raise DomainError(f"dimensionless point needs omegaA, omegaB; missing {sorted(missing)}")
    if ("phase" in names) == ("sin2kd" in names):
        raise DomainError("give exactly one of phase or sin2kd")
    s = params.get("sin2kd")
    if s is None:
        phase, rules = params["phase"], ()
    else:
        phase, rules = _phase_of_sin2(s), (("sin2kd", s, (s >= 0.0) & (s <= 1.0), "must lie in [0, 1]"),)
    pt = DimensionlessPoint(params["omegaA"], params["omegaB"], phase, model)
    check_point(pt, *rules)
    return pt


def _check_request(axes: tuple[Axis, ...], fixed: dict[str, float], item: str, requested) -> None:
    """One or two axes, every parameter name known, and each parameter and
    each ``requested`` ``item`` (column or bounce order) given once."""
    if not 1 <= len(axes) <= 2:
        raise DomainError(f"need 1 or 2 axes, got {len(axes)}")
    seen = [ax.name for ax in axes] + list(fixed)
    for what, values in (("parameter", seen), (item, list(requested))):
        if len(set(values)) != len(values):
            raise DomainError(f"{what} given twice in {values}")
    for name in seen:
        if name not in PHYSICAL_NAMES + DIMENSIONLESS_NAMES:
            raise DomainError(f"unknown parameter {name!r}")


def make_grid(
    kind: str,
    model: ModelKind,
    axes: tuple[Axis, ...],
    fixed: dict[str, float],
    columns: tuple[str, ...],
    rows,
    **extra: str,
) -> SweepGrid:
    """A SweepGrid with its meta: the tool, ``kind``, ``model``, the units,
    the axes, each fixed parameter and the ``extra`` entries."""
    meta = {
        "tool": f"entscat {__version__}",
        "kind": kind,
        "model": model.value,
        "units": "g in hbar^2*pi/(m*d), k in pi/d",
        "axes": "|".join(f"{ax.name}:{ax.start!r}:{ax.stop!r}:{ax.count}" for ax in axes),
    }
    for name in sorted(fixed):
        meta[name] = repr(fixed[name])
    return SweepGrid(tuple(axes), tuple(columns), tuple(rows), {**meta, **extra})


def _resolve_grid(axes: tuple[Axis, ...], fixed: dict[str, float], model: ModelKind) -> DimensionlessPoint:
    """Every cell as one point, fields broadcasting to the grid in row-major
    axis order, phase folded: :func:`resolve_point` run once on the axes."""
    params = dict(fixed)
    for i, ax in enumerate(axes):
        params[ax.name] = np.reshape(ax.values(), [-1 if j == i else 1 for j in range(len(axes))])
    pt = resolve_point(params, model)
    return DimensionlessPoint(pt.omega_a, pt.omega_b, fold_phase(pt.phase), model)


def _columns(shape: tuple[int, ...], arrays) -> list[list[float | None]]:
    """Row-major value lists of observable arrays, NaN (undefined) as None."""
    columns = []
    for arr in arrays:
        flat = np.broadcast_to(arr, shape).ravel()
        values = flat.tolist()
        for i in np.flatnonzero(np.isnan(flat)).tolist():
            values[i] = None
        columns.append(values)
    return columns


def run_scan(
    axes: tuple[Axis, ...],
    fixed: dict[str, float],
    model: ModelKind,
    columns: tuple[str, ...] = DEFAULT_COLUMNS,
) -> SweepGrid:
    """Evaluate the observables on a 1D or 2D grid, in one vectorized pass
    of the closed forms over the whole grid."""
    _check_request(axes, fixed, "column", columns)
    if not columns:
        raise DomainError("need at least one column")
    for col in columns:
        if col not in KNOWN_COLUMNS:
            raise DomainError(f"unknown column {col!r}; known: {KNOWN_COLUMNS}")
    amps = grid_amplitudes(_resolve_grid(axes, fixed, model))
    c_t, p_t, a_t = side_arrays(*post_selected_state(amps, "t"))
    c_r, p_r, a_r = side_arrays(*post_selected_state(amps, "r"))
    by_name = {"C_t": c_t, "P_t": p_t, "C_r": c_r, "P_r": p_r, "a_t": a_t, "a_r": a_r}
    del amps  # free the amplitude arrays before the rows are built
    rows = zip(*_columns(tuple(ax.count for ax in axes), [by_name[c] for c in columns]))
    return make_grid("scan", model, axes, fixed, columns, rows)


def run_truncation(
    axis: Axis,
    fixed: dict[str, float],
    bounce_orders: tuple[int, ...],
) -> SweepGrid:
    """Concurrence and probability with the bounce series cut at each order,
    next to the exact values (exchange model, transmitted side)."""
    model = ModelKind.SPIN_EXCHANGE
    _check_request((axis,), fixed, "bounce order", bounce_orders)
    columns = []
    for n in bounce_orders:
        columns += [f"C_n{n}", f"P_n{n}"]
    columns += ["C_exact", "P_exact"]
    cells = _resolve_grid((axis,), fixed, model)
    arrays = []
    for n in (*bounce_orders, None):
        amps = grid_amplitudes(cells, n)
        arrays += side_arrays(*post_selected_state(amps, "t"))[:2]
    rows = zip(*_columns((axis.count,), arrays))
    orders = ",".join(str(n) for n in bounce_orders)
    return make_grid("truncate", model, (axis,), fixed, columns, rows, bounce_orders=orders)


_WRITE_BLOCK = 4096  # lines joined per write, bounding the text held at once


def _blocks(lines, sep: str = ""):
    """``lines`` joined by ``sep``, in strings of up to _WRITE_BLOCK lines."""
    lines = iter(lines)
    lead = ""
    while block := list(itertools.islice(lines, _WRITE_BLOCK)):
        yield lead + sep.join(block)
        lead = sep


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _json_cell(value: float | None) -> str:
    return "null" if value is None or not math.isfinite(value) else repr(float(value))


def write_csv(grid: SweepGrid, path) -> None:
    meta_line = "# meta: " + ";".join(f"{k}={v}" for k, v in sorted(grid.meta.items()))
    header = ",".join([ax.name for ax in grid.axes] + list(grid.columns))
    # row-major coordinates, each axis value formatted once
    coords = itertools.product(*([repr(float(v)) for v in ax.values()] for ax in grid.axes))
    lines = (",".join(itertools.chain(xy, map(_csv_cell, row))) + "\n" for xy, row in zip(coords, grid.rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(meta_line + "\n" + header + "\n")
        fh.writelines(_blocks(lines))


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
    rows = (
        "  [\n   " + ",\n   ".join(map(_json_cell, row)) + "\n  ]" if row else "  []" for row in grid.rows
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if grid.rows:
            fh.write(head + "[\n")
            fh.writelines(_blocks(rows, ",\n"))
            fh.write("\n ]\n}\n")
        else:
            fh.write(head + "[]\n}\n")


def write_grid(grid: SweepGrid, path, fmt: str) -> None:
    if fmt == "csv":
        write_csv(grid, path)
    elif fmt == "json":
        write_json(grid, path)
    else:
        raise DomainError(f"unknown format {fmt!r}")
