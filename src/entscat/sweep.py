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
    opacity_ok,
    to_dimensionless,
    validate,
)
from .observables import side_arrays

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


def resolve_point(params: dict[str, float], model: ModelKind) -> DimensionlessPoint:
    """The point named by ``params``, in one unit system: physical k, gA, gB
    and optionally d, or dimensionless omegaA, omegaB and one of phase or
    sin2kd.  Raises DomainError for a mix, a missing name or a bad value."""
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
    has_phase = "phase" in names
    has_sin2 = "sin2kd" in names
    if has_phase == has_sin2:
        raise DomainError("give exactly one of phase or sin2kd")
    if has_phase:
        phase = params["phase"]
    else:
        s = params["sin2kd"]
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"sin2kd must lie in [0, 1], got {s!r}")
        phase = math.asin(math.sqrt(s))
    return DimensionlessPoint(params["omegaA"], params["omegaB"], phase, model)


def _check_request(axes: tuple[Axis, ...], fixed: dict[str, float]) -> None:
    """One or two axes, and every parameter name known and given once."""
    if not 1 <= len(axes) <= 2:
        raise DomainError(f"need 1 or 2 axes, got {len(axes)}")
    seen = [ax.name for ax in axes] + list(fixed)
    if len(set(seen)) != len(seen):
        raise DomainError(f"parameter given twice in {seen}")
    for name in seen:
        if name not in PHYSICAL_NAMES + DIMENSIONLESS_NAMES:
            raise DomainError(f"unknown parameter {name!r}")


def _cell(axes: tuple[Axis, ...], index: int) -> dict[str, float]:
    """Axis values of the cell at ``index`` in row-major order."""
    if len(axes) == 1:
        return {axes[0].name: axes[0].values()[index]}
    outer, inner = axes
    row, col = divmod(index, inner.count)
    return {outer.name: outer.values()[row], inner.name: inner.values()[col]}


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


def _phase_of_sin2(s):
    """asin(sqrt(s)) value by value with :mod:`math`, exactly as for one
    point; NaN outside [0, 1]."""
    phases = [math.asin(math.sqrt(v)) if 0.0 <= v <= 1.0 else math.nan for v in np.ravel(s).tolist()]
    return np.reshape(phases, np.shape(s))


def _resolve_grid(axes: tuple[Axis, ...], fixed: dict[str, float], model: ModelKind):
    """Opacities and folded phase of every cell, as arrays that broadcast to
    the grid in row-major axis order.

    Each axis is resolved once, with the arithmetic of :func:`resolve_point`.
    Its checks and those of :func:`validate` run as array masks, and the
    first cell that fails them is resolved again through those two
    functions, so the error is the one a single point would raise.
    """
    shape = tuple(ax.count for ax in axes)
    params = dict(fixed)
    for i, ax in enumerate(axes):
        params[ax.name] = np.reshape(ax.values(), [-1 if j == i else 1 for j in range(len(axes))])
    resolve_point({**fixed, **_cell(axes, 0)}, model)  # unit-system and missing-name errors
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if set(params) & set(PHYSICAL_NAMES):
            k, d, g_a, g_b = params["k"], params.get("d", 1.0), params["gA"], params["gB"]
            # non-finite k, d or g show up below, as a non-finite opacity or phase
            ok = (k > 0.0) & (d > 0.0) & (g_a >= 0.0) & (g_b >= 0.0)
            omega_a, omega_b, phase = g_a / k, g_b / k, math.pi * k * d
        else:
            omega_a, omega_b = params["omegaA"], params["omegaB"]
            phase = params["phase"] if "phase" in params else _phase_of_sin2(params["sin2kd"])
            ok = True
        ok = ok & opacity_ok(omega_a) & opacity_ok(omega_b) & np.isfinite(phase)
    bad = ~np.broadcast_to(ok, shape).ravel()
    if bad.any():
        pt = validate(resolve_point({**fixed, **_cell(axes, int(np.argmax(bad)))}, model))
        raise DomainError(f"invalid parameter point {pt!r}")  # unreachable while the masks match
    folded = np.fmod(phase, math.pi)  # exact, as in validate
    folded = np.where(folded < 0.0, folded + math.pi, folded)
    folded = np.where(folded >= math.pi, folded - math.pi, folded)
    return omega_a, omega_b, folded


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
    _check_request(axes, fixed)
    for col in columns:
        if col not in KNOWN_COLUMNS:
            raise DomainError(f"unknown column {col!r}; known: {KNOWN_COLUMNS}")
    amps = grid_amplitudes(*_resolve_grid(axes, fixed, model), model)
    c_t, p_t, a_t = side_arrays(amps[2], amps[4])
    c_r, p_r, a_r = side_arrays(amps[3], amps[5])
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
    _check_request((axis,), fixed)
    columns = []
    for n in bounce_orders:
        columns += [f"C_n{n}", f"P_n{n}"]
    columns += ["C_exact", "P_exact"]
    cells = _resolve_grid((axis,), fixed, model)
    arrays = []
    for n in (*bounce_orders, None):
        amps = grid_amplitudes(*cells, model, n)
        arrays += side_arrays(amps[2], amps[4])[:2]
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
