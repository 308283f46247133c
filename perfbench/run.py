"""Benchmark of the entscat package, run from the root of a checkout:

    python3 perfbench/run.py --workload grid-scan --seed 1 --seconds 30 --trace 0

Workloads: ``grid-scan``, ``cross-check``, ``point-stream`` (see
``workloads.py``).  The package is imported from ``src/`` of the checkout;
without it the run exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
scaled to a reference host speed with ``hostspeed.SpeedProbe``; the raw
values are kept in the result file.  ``--trace 1`` runs each batch of
inputs untraced and then traced, with every public ``entscat`` function
wrapped (``tracer.py``), and reports per-layer metrics.  Either way the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment.  Full
results, and the spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

# One client and no threads: keep BLAS single-threaded, here and in the
# interpreters that time the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

LAYERS = ("core", "closedform", "observables", "matching", "optimize", "sweep", "verify", "cli")
# Public functions that some workload calls; each gets <name>.calls and <name>.self_s.
LAYER_FUNCTIONS = (
    "core.validate", "core.to_dimensionless",
    "closedform.site_coefficients", "closedform.dressed_coefficients",
    "closedform.amplitudes", "closedform.truncated_amplitudes",
    "matching.build_matching_system", "matching.solve_system", "matching.solve_amplitudes_numeric",
    "observables.post_selected_state", "observables.concurrence_and_ratio", "observables.probability",
    "observables.observables_at", "observables.model1_probability", "observables.model1_ratio",
    "optimize.unit_concurrence_phase", "optimize.optimal_concurrence",
    "sweep.run_scan", "sweep.run_truncation", "sweep.write_csv", "sweep.write_json", "sweep.write_grid",
    "verify.sample_points", "verify.dressing_series_deviation", "verify.run_verification",
    "cli.build_parser", "cli.main",
)
SETUP_RUNS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description="entscat benchmark")
    parser.add_argument("--workload", required=True, choices=("grid-scan", "cross-check", "point-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def import_entscat():
    sys.path.insert(0, str(SRC))
    import entscat
    import entscat.cli

    if Path(entscat.__file__).resolve().parent != SRC / "entscat":
        raise ImportError(f"entscat imported from {entscat.__file__}, not from {SRC}")
    return entscat


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(entscat, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "entscat": entscat.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def setup_times(runs: int) -> list[float]:
    """Wall seconds for fresh interpreters to start and run ``import
    entscat``.  Bytecode is cached under ``perfbench/out/pycache`` whatever
    the environment says, so the import is timed with a warm cache, as for
    an installed package; a first, untimed interpreter fills the cache and
    checks the import path.  Not scaled to the reference speed: the import
    is mostly file, unmarshal and extension-loading work, which the
    calibration loop does not track."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    probe = subprocess.run(
        [sys.executable, "-c", "import entscat; print(entscat.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    if Path(probe.stdout.strip()).resolve().parent != SRC / "entscat":
        raise RuntimeError(f"set-up interpreter imported {probe.stdout.strip()!r}")
    times = []
    for _ in range(runs):
        # No timeout here: with one, the wait polls at up to 50 ms intervals
        # and the time reads in 50 ms steps.  The probe above bounds the import.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import entscat"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


class Pass:
    """Runs batches of client calls and logs, per batch: its kind, points,
    busy nanoseconds, the median and 99th-percentile call time per point
    (us), and its first and last ``perf_counter_ns``."""

    def __init__(self, workload, tracer=None, probe=None):
        self.workload = workload
        self.tracer = tracer
        self.clock = probe.clock if probe is not None else time.perf_counter_ns
        self.log: list[tuple[str, int, int, float, float, int, int]] = []
        self.busy_ns = 0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.write_bytes = 0
        self._reported = False

    def run(self, seconds: float) -> None:
        """Run whole cycles of batches until ``seconds`` of busy time."""
        while len(self.log) % self.workload.cycle or not self.log or self.busy_ns < seconds * 1e9:
            self.run_batch()

    def run_batch(self) -> None:
        clock = self.clock
        tracer = self.tracer
        kind, calls = self.workload.batch()
        results, durations = [], []
        first = time.perf_counter_ns()
        for call in calls:
            if tracer is not None:
                tracer.request = self.attempted + len(results)
                tracer.active = True
            start = clock()
            try:
                output = (True, call.fn(*call.args))
            except Exception as exc:
                output = (False, exc)
            durations.append(clock() - start)
            if tracer is not None:
                tracer.active = False
            results.append(output)
        last = time.perf_counter_ns()
        self._report_errors(results)
        points = sum(call.points for call in calls)
        per_point = sorted(d / call.points / 1e3 for d, call in zip(durations, calls))
        self.log.append(
            (kind, points, sum(durations), statistics.median(per_point), quantile(per_point, 0.99), first, last)
        )
        self.busy_ns += sum(durations)
        self.points += points
        self.attempted += len(calls)
        self.write_bytes += self.workload.output_bytes(calls)
        self.failed += self.workload.check(calls, results)

    def finish(self) -> None:
        self.failed += self.workload.finish()

    def _report_errors(self, results) -> None:
        for returned, output in results:
            if not returned and not self._reported:
                self._reported = True
                traceback.print_exception(output, file=sys.stderr)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def at_reference_speed(log, probe) -> tuple[float, float]:
    """Points per second and per-point call time (us) at the reference host
    speed.  For each batch kind: the median over its batches of the rate and
    of the median call time per point, each scaled by the batch's speed
    factor.  Kinds are combined by the points one batch of each carries."""
    kinds: dict[str, list] = {}
    for kind, points, busy_ns, p50_us, _, first, last in log:
        factor = probe.factor(first, last)
        kinds.setdefault(kind, []).append((points, points / (busy_ns / 1e9 * factor), p50_us * factor))
    total_points = total_s = latency = 0.0
    for rows in kinds.values():
        points = rows[0][0]
        total_points += points
        total_s += points / statistics.median(rate for _, rate, _ in rows)
        latency += points * statistics.median(p50 for _, _, p50 in rows)
    return total_points / total_s, latency / total_points


def timed_run(entscat, workload_cls, args) -> tuple[dict, dict]:
    setup = setup_times(2 if args.tiny else SETUP_RUNS)
    with hostspeed.SpeedProbe(workload_cls.speed_loop) as probe:
        run = Pass(workload_cls(entscat, args.seed, args.tiny, OUT / f"{args.workload}-{args.seed}"), probe=probe)
        run.run(args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.finish()
    points_per_s, call_us = at_reference_speed(run.log, probe)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (points_per_s, "points/s"),
        "call_p50_us": (call_us, "us"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    detail = {
        "setup_s": setup,
        "batches": [row[:5] + (probe.factor(row[5], row[6]),) for row in run.log],
        "speed_samples_s": [s for _, s in probe.samples],
        "raw_points_per_s": run.points / (run.busy_ns / 1e9),
    }
    return tally(run.attempted, run.failed, metrics), detail


def traced_run(entscat, workload_cls, args) -> tuple[dict, dict]:
    """Batches of the same inputs, run untraced and traced in turn until the
    untraced ones have been busy for a quarter of ``--seconds``.  Running
    each pair back to back keeps host speed drift out of the overhead."""
    from tracer import SPAN_FIELDS, Tracer

    outdir = OUT / f"{args.workload}-{args.seed}"
    plain = Pass(workload_cls(entscat, args.seed, args.tiny, outdir / "untraced"))
    modules = {layer: getattr(entscat, layer) for layer in LAYERS}
    tracer = Tracer(modules, extra_holders=(entscat,), point_types=(entscat.DimensionlessPoint, entscat.PhysicalPoint))
    try:
        traced = Pass(workload_cls(entscat, args.seed, args.tiny, outdir / "traced"), tracer)
        while len(plain.log) % plain.workload.cycle or not plain.log or plain.busy_ns < args.seconds / 4 * 1e9:
            plain.run_batch()
            traced.run_batch()
    finally:
        tracer.uninstall()
    plain.finish()
    traced.finish()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.npz")

    wall_s = traced.busy_ns / 1e9
    stats = tracer.by_name()
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s, _ = stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for layer in LAYERS:
        layer_self = sum(s for name, (_, s, _) in stats.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = (layer_self / wall_s, "ratio")
    metrics["core.validate.calls_per_point"] = (stats["core.validate"][0] / traced.points, "calls/point")
    metrics["closedform.site_coefficients.calls_per_point"] = (
        stats["closedform.site_coefficients"][0] / traced.points, "calls/point"
    )
    metrics["matching.solve_system.failed"] = (stats["matching.solve_system"][2], "count")
    metrics["sweep.write_grid.bytes"] = (traced.write_bytes, "bytes")
    metrics["stream.call_p99_us"] = (statistics.median(row[4] for row in plain.log), "us")
    pair_ratios = [t[2] / p[2] for p, t in zip(plain.log, traced.log)]
    metrics["trace.overhead_frac"] = (statistics.median(pair_ratios) - 1.0, "ratio")
    metrics["trace.self_sum_frac"] = (sum(s for _, s, _ in stats.values()) / wall_s, "ratio")
    metrics["trace.points"] = (traced.points, "count")
    failed = plain.failed + traced.failed
    attempted = plain.attempted + traced.attempted
    metrics["gate.error_rate"] = (failed / attempted, "ratio")
    detail = {
        "functions": {name: {"calls": c, "self_s": s, "failed": f} for name, (c, s, f) in stats.items()},
        "untraced_busy_s": plain.busy_ns / 1e9,
        "traced_busy_s": wall_s,
        "spans_kept": len(tracer.spans) // len(SPAN_FIELDS),
        "spans_dropped": tracer.spans_dropped,
    }
    return tally(attempted, failed, metrics), detail


def tally(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entscat" / "__init__.py").is_file():
        print(f"error: no entscat package under {SRC}", file=sys.stderr)
        return 2
    entscat = import_entscat()
    from workloads import WORKLOADS

    shutil.rmtree(OUT / f"{args.workload}-{args.seed}", ignore_errors=True)

    env = environment(entscat, args)
    print("# env: " + json.dumps(env, sort_keys=True), flush=True)
    run = traced_run if args.trace else timed_run
    result, detail = run(entscat, WORKLOADS[args.workload], args)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
