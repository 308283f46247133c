"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It is not part of the package's test suite.  It checks that

* every workload runs at a tiny size, traced and untraced, and prints
  exactly the metrics ``BENCHMARK.json`` names, with their units;
* a traced ``grid-scan`` writes files byte-identical to the untraced one;
* every traced run's self times cover at least ``SELF_SUM_SHARE`` of its
  traced busy time;
* the reference agrees with the seed code's frozen outputs;
* each correctness gate passes the seed code's outputs and rejects an
  output perturbed beyond the tolerance, but not one perturbed within it.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SELF_SUM_SHARE = 0.9
SEED = 3
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        print(proc.stderr[-3000:], file=sys.stderr)
        return {}
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_runs(bench: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            result = run_benchmark(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            if not result:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{tag}: correct")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared[trace], f"{tag}: metrics and units as BENCHMARK.json declares")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{tag}: finite values")
            if trace:
                share = result["metrics"]["trace.self_sum_frac"]["value"]
                expect(share >= SELF_SUM_SHARE, f"{tag}: self times cover {share:.3f} of traced time")
    outdir = run.OUT / f"grid-scan-{SEED}"
    for name in ("xy.csv", "heis.json", "truncation.csv"):
        plain = outdir / "untraced" / f"{name}.first"
        traced = outdir / "traced" / f"{name}.first"
        same = plain.is_file() and traced.is_file() and plain.read_bytes() == traced.read_bytes()
        expect(same, f"grid-scan: traced {name} byte-identical to untraced")


def check_frozen() -> None:
    frozen = json.loads((HERE / "frozen.json").read_text())
    bad = 0
    for row in frozen["scan"]:
        ref = reference.scan_columns(row["omega_a"], row["omega_b"], row["phase"], row["model"])
        bad += sum(int(reference.outside(_nan(row[c]), ref[c])) for c in ref)
    expect(bad == 0, f"reference matches frozen scan points ({bad} values off)")
    rows = frozen["truncation"]
    ref = reference.truncation_columns(
        np.array([r["omega_a"] for r in rows]), np.array([r["omega_b"] for r in rows]),
        np.array([r["phase"] for r in rows]), (0, 1, 3),
    )
    bad = sum(int(reference.outside([_nan(r[c]) for r in rows], ref[c]).sum()) for c in ref)
    expect(bad == 0, f"reference matches frozen truncation points ({bad} values off)")


def _nan(value):
    return math.nan if value is None else value


def check_gates(entscat) -> None:
    outdir = run.OUT / "selftest"
    grid = workloads.GridScan(entscat, SEED, True, outdir)
    for _ in range(grid.cycle):
        _, calls = grid.batch()
        for call in calls:
            call.fn(*call.args)
    for name in grid.specs:
        data = (outdir / name).read_bytes()
        expect(grid.wrong_cells(name, data) == 0, f"grid-scan gate passes the seed code's {name}")
        for scale, caught in ((1 + 1e-6, True), (1 + 1e-12, False)):
            expect(
                (grid.wrong_cells(name, _perturb(name, data, scale)) > 0) == caught,
                f"grid-scan gate {'rejects' if caught else 'accepts'} {name} with one value times {scale!r}",
            )

    stream = workloads.PointStream(entscat, SEED, True, outdir)
    stream.heis_checked = 1.0
    _, calls = stream.batch()
    results = [(True, call.fn(*call.args)) for call in calls]
    expect(stream.check(calls, results) == 0, "point-stream gate passes the seed code's answers")
    for kind in ("xy", "heis-oracle"):
        i = next(i for i, call in enumerate(calls) if call.kind == kind)
        obs, report = results[i][1]
        for scale, caught in ((1 + 1e-6, True), (1 + 1e-12, False)):
            wrong = dataclasses.replace(obs, probability_t=obs.probability_t * scale)
            perturbed = results[:i] + [(True, (wrong, report))] + results[i + 1:]
            expect(
                (stream.check(calls, perturbed) == 1) == caught,
                f"point-stream gate {'rejects' if caught else 'accepts'} a {kind} P_t times {scale!r}",
            )
    i = next(i for i, call in enumerate(calls) if call.kind == "xy")
    obs, report = results[i][1]
    wrong = dataclasses.replace(report, concurrence=report.concurrence * (1 - 1e-6))
    perturbed = results[:i] + [(True, (obs, wrong))] + results[i + 1:]
    expect(stream.check(calls, perturbed) == 1, "point-stream gate rejects a perturbed optimal concurrence")

    cross = workloads.CrossCheck(entscat, SEED, True, outdir)
    _, calls = cross.batch()
    report = calls[0].fn(*calls[0].args)
    expect(cross.check(calls, [(True, report)]) == 0, "cross-check gate passes report.ok")
    report.checks[0].worst = 2 * report.checks[0].tolerance
    expect(cross.check(calls, [(True, report)]) == 1, "cross-check gate rejects a failed check")
    expect(cross.check(calls, [(False, RuntimeError())]) == 1, "a raised call counts as failed")


def _perturb(name: str, data: bytes, scale: float) -> bytes:
    """Scale one probability value of an output file."""
    if name.endswith(".json"):
        doc = json.loads(data)
        doc["rows"][5][1] *= scale  # P_t
        return json.dumps(doc).encode()
    lines = data.decode().split("\n")
    cells = lines[7].split(",")
    cells[-1] = repr(float(cells[-1]) * scale)  # P_r or P_exact
    lines[7] = ",".join(cells)
    return "\n".join(lines).encode()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    entscat = run.import_entscat()
    check_frozen()
    check_gates(entscat)
    check_runs(bench)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
