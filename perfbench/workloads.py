"""The three workloads: inputs made from the seed, client calls, and the
correctness gate that scores each call.

All three are closed loop with one client: the next call is issued when
the previous one has returned.  A workload hands out *batches* of client
calls; inputs are built and results checked between batches, outside the
timed calls.  A call counts as failed when it raises or when the gate
rejects its output.

* ``grid-scan``: the README's sweep commands through ``entscat.cli.main``
  (a 200x200 ``xy`` grid at ``sin2kd=1`` to CSV, a 200x200 ``heis`` grid at
  a fixed phase to JSON, a 200-point ``truncate`` axis with ``--n 0,1,3``).
  ``core``, ``closedform``, ``observables``, ``sweep`` and ``cli`` do the
  work, ``matching`` none, and serialization is about a fifth of it.
* ``cross-check``: ``run_verification`` over both models.  ``matching`` and
  ``verify`` do the work, ``sweep`` and ``cli`` none; the direct dressing
  series, not the 12x12 solve, bounds it.
* ``point-stream``: one-point queries, one at a time: ``observables_at`` on
  a mixed ``xy``/``heis`` point plus ``optimal_concurrence`` on the ``xy``
  points.  Nothing can be batched, so a kernel that makes scalar calls
  slower shows here; it is also the only workload that runs ``optimize``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference


@dataclass
class Call:
    """One client call ``fn(*args)``, carrying ``points`` parameter points."""

    fn: object
    args: tuple
    points: int
    kind: str


def _f(x) -> str:
    return repr(float(x))


class Workload:
    cycle = 1  # batches in one round of the workload's distinct calls
    speed_loop = "python"  # hostspeed loop that slows like this workload's calls

    def __init__(self, entscat, seed: int, tiny: bool, outdir: Path):
        self.entscat = entscat
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.outdir = outdir

    def batch(self) -> tuple[str, list[Call]]:
        """The next batch's kind and calls."""
        raise NotImplementedError

    def check(self, calls: list[Call], results: list[tuple[bool, object]]) -> int:
        """Failed calls of one batch; ``results`` holds (returned, output)."""
        raise NotImplementedError

    def finish(self) -> int:
        """Failed calls found by checks deferred to the end of the run."""
        return 0

    def output_bytes(self, calls: list[Call]) -> int:
        """Bytes the calls wrote to files."""
        return 0


class GridScan(Workload):
    """One command per batch, cycling through the three; a command's inputs
    are the same in every cycle of a run."""

    name = "grid-scan"
    cycle = 3

    def __init__(self, entscat, seed, tiny, outdir):
        super().__init__(entscat, seed, tiny, outdir)
        rng = self.rng
        side = 12 if tiny else 200

        def omega_axes():
            return tuple(
                (name, float(rng.uniform(0.01, 0.05)), float(rng.uniform(2.5, 3.5)), side)
                for name in ("omegaA", "omegaB")
            )

        g = float(rng.uniform(2.5, 3.5))
        # output file (its suffix is the format) -> (model, fixed parameters, axes, bounce orders)
        self.specs = {
            "xy.csv": ("xy", {"sin2kd": 1.0}, omega_axes(), None),
            "heis.json": ("heis", {"phase": float(rng.uniform(0.1, 3.0))}, omega_axes(), None),
            "truncation.csv": (
                "xy", {"gA": g, "gB": g}, (("k", 0.05, float(rng.uniform(9.0, 11.0)), side),), (0, 1, 3)
            ),
        }
        outdir.mkdir(parents=True, exist_ok=True)
        self.history: dict[str, list[tuple[bool, str | None]]] = {name: [] for name in self.specs}
        self.batches = 0

    def argv(self, filename: str) -> list[str]:
        model, fixed, axes, orders = self.specs[filename]
        argv = ["truncate" if orders else "scan", "--model", model]
        for name, value in fixed.items():
            argv += [f"--{name}", _f(value)]
        for name, start, stop, count in axes:
            argv += ["--axis", f"{name}={_f(start)}:{_f(stop)}:{count}"]
        if orders:
            argv += ["--n", ",".join(map(str, orders))]
        return argv + ["--format", filename.rsplit(".", 1)[1], "--out", str(self.outdir / filename)]

    def batch(self):
        name = list(self.specs)[self.batches % self.cycle]
        self.batches += 1
        points = math.prod(ax[3] for ax in self.specs[name][2])
        return name, [Call(self.entscat.cli.main, (self.argv(name),), points, name)]

    def output_bytes(self, calls):
        paths = [self.outdir / call.kind for call in calls]
        return sum(path.stat().st_size for path in paths if path.is_file())

    def _kept(self, filename: str) -> Path:
        return self.outdir / (filename + ".first")

    def check(self, calls, results):
        """Record each output's digest.  The first output of each command is
        kept for :meth:`finish`; later ones are deleted, so every call must
        write its file afresh."""
        for call, (returned, code) in zip(calls, results):
            path = self.outdir / call.kind
            ok = returned and code == 0 and path.is_file()
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if ok else None
            self.history[call.kind].append((ok, digest))
            if ok and not self._kept(call.kind).exists():
                path.replace(self._kept(call.kind))
            elif path.exists():
                path.unlink()
        return 0

    def finish(self):
        """Check the kept output of each command against the reference; every
        other output of that command must be byte-identical to it."""
        failed = 0
        for filename, history in self.history.items():
            kept = self._kept(filename)
            data = kept.read_bytes() if kept.exists() else b""
            wrong = self.wrong_cells(filename, data)
            digest = hashlib.sha256(data).hexdigest()
            failed += sum(not ok or wrong > 0 or d != digest for ok, d in history)
        return failed

    def wrong_cells(self, filename: str, data: bytes) -> int:
        """Cells outside the reference tolerance, or 1 for a malformed file."""
        model, fixed, axes, orders = self.specs[filename]
        coords = [reference.axis_values(start, stop, count) for _, start, stop, count in axes]
        grid = dict(zip([ax[0] for ax in axes], (c.ravel() for c in np.meshgrid(*coords, indexing="ij"))))
        try:
            if filename.endswith(".json"):
                doc = json.loads(data)
                names = list(doc["columns"])
                table = np.array(doc["rows"], dtype=float)
                layout_ok = [(a["name"], a["start"], a["stop"], a["count"]) for a in doc["axes"]] == list(axes)
            else:
                lines = data.decode().split("\n")
                header = lines[1].split(",")
                table = np.array(
                    [[float(c) if c else math.nan for c in line.split(",")] for line in lines[2:-1]],
                    dtype=float,
                )
                layout_ok = header[: len(axes)] == list(grid) and all(
                    np.array_equal(table[:, i], grid[name]) for i, name in enumerate(grid)
                )
                names = header[len(axes):]
                table = table[:, len(axes):]
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError):
            return 1
        if orders:
            k = grid["k"]
            ref = reference.truncation_columns(fixed["gA"] / k, fixed["gB"] / k, math.pi * k, orders)
        else:
            phase = fixed.get("phase")
            if phase is None:
                phase = math.asin(math.sqrt(fixed["sin2kd"]))
            ref = reference.scan_columns(grid["omegaA"], grid["omegaB"], phase, model)
        if not layout_ok or names != list(ref) or table.shape != (len(grid[axes[0][0]]), len(ref)):
            return 1
        return int(sum(reference.outside(table[:, i], ref[name]).sum() for i, name in enumerate(names)))


class CrossCheck(Workload):
    name = "cross-check"
    speed_loop = "numpy"  # the dressing series and the 12x12 solves

    def batch(self):
        samples = 10 if self.tiny else 200
        seed = int(self.rng.integers(2**31))
        return "run_verification", [Call(self.entscat.run_verification, (samples, seed), 2 * samples, "verify")]

    def check(self, calls, results):
        return sum(not returned or not report.ok for returned, report in results)


class PointStream(Workload):
    name = "point-stream"
    heis_checked = 1 / 32  # share of heis queries re-solved by the matching oracle

    def batch(self):
        e = self.entscat
        observables_at, optimal_concurrence = e.observables_at, e.optimal_concurrence

        def query_xy(pt):
            return observables_at(pt), optimal_concurrence(pt.omega_a, pt.omega_b)

        def query_heis(pt):
            return observables_at(pt), None

        n = 50 if self.tiny else 1000
        is_xy = self.rng.random(n) < 0.5
        oracle = self.rng.random(n) < self.heis_checked
        omegas = self.rng.uniform(0.0, 4.0, size=(n, 2))
        phases = self.rng.uniform(0.0, math.pi, size=n)
        models = {True: e.ModelKind.SPIN_EXCHANGE, False: e.ModelKind.HEISENBERG_CONTACT}
        return "chunk", [
            Call(
                query_xy if xy else query_heis,
                (e.DimensionlessPoint(float(wa), float(wb), float(phase), models[bool(xy)]),),
                1,
                "xy" if xy else "heis-oracle" if checked else "heis",
            )
            for xy, checked, (wa, wb), phase in zip(is_xy, oracle, omegas, phases)
        ]

    def check(self, calls, results):
        """xy: observables against ``model1_probability``/``model1_ratio``, and
        the optimum against the reference at the phase it chose; heis: a
        seeded subsample against ``solve_amplitudes_numeric``."""
        e = self.entscat
        bad = np.array([not returned for returned, _ in results])
        xy = [i for i, call in enumerate(calls) if call.kind == "xy" and not bad[i]]
        if xy:
            pts = [calls[i].args[0] for i in xy]
            obs = [results[i][1][0] for i in xy]
            reports = [results[i][1][1] for i in xy]
            s = [math.sin(pt.phase) ** 2 for pt in pts]
            p_ref = np.array([e.model1_probability(pt.omega_a, pt.omega_b, si) for pt, si in zip(pts, s)])
            ratio = np.array([e.model1_ratio(pt.omega_a, pt.omega_b, si) for pt, si in zip(pts, s)])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(ratio > 1.0, 1.0 / ratio, ratio)
                c_ref = 2.0 * ratio / (1.0 + ratio * ratio)
            opt = reference.scan_columns(
                np.array([pt.omega_a for pt in pts]),
                np.array([pt.omega_b for pt in pts]),
                np.arcsin(np.sqrt([r.phase_choice for r in reports])),
                reference.XY,
            )
            opt_c = np.array([r.concurrence for r in reports])
            wrong = (
                reference.outside([o.probability_t for o in obs], p_ref)
                | reference.outside([o.probability_r for o in obs], p_ref)
                | reference.outside([_undefined(o.concurrence_t) for o in obs], c_ref)
                | reference.outside([_undefined(o.concurrence_r) for o in obs], c_ref)
                | reference.outside(opt_c, opt["C_t"])
                | reference.outside([r.probability for r in reports], opt["P_t"])
                | ~(opt_c >= c_ref - reference.ATOL)  # the optimum dominates the query's phase
            )
            bad[xy] |= wrong
        oracle, amps = [], []
        for i, call in enumerate(calls):
            if call.kind == "heis-oracle" and not bad[i]:
                try:
                    amps.append(e.solve_amplitudes_numeric(call.args[0]))
                    oracle.append(i)
                except e.NumericError:
                    bad[i] = True
        if oracle:
            obs = [results[i][1][0] for i in oracle]
            c_t, p_t = reference.concurrence_probability([a.t_flipb for a in amps], [a.t_flipa for a in amps])
            c_r, p_r = reference.concurrence_probability([a.r_flipb for a in amps], [a.r_flipa for a in amps])
            bad[oracle] |= (
                reference.outside([_undefined(o.concurrence_t) for o in obs], c_t)
                | reference.outside([o.probability_t for o in obs], p_t)
                | reference.outside([_undefined(o.concurrence_r) for o in obs], c_r)
                | reference.outside([o.probability_r for o in obs], p_r)
            )
        return int(bad.sum())


def _undefined(value):
    return math.nan if value is None else value


WORKLOADS = {w.name: w for w in (GridScan, CrossCheck, PointStream)}
