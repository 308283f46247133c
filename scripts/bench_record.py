#!/usr/bin/env python3
"""Record the benchmark of this checkout against a baseline checkout as
``BENCH_<pr>.json``:

    python3 scripts/bench_record.py --pr 7 --seeds 100 101 102 \\
        --baseline ../parent-checkout

For every workload in ``BENCHMARK.json`` and every seed, it runs the
benchmark command that file names (``perfbench/run.py``) for the
``run_seconds`` it declares, with ``--trace 0``, in each tree, the two
trees alternating which goes first.  The record keeps each tree's commit
and whether its tracked files differed from that commit, each run's
environment and result line, and per tree and workload the median and
quartiles of every metric and, per metric, the seeds on which this checkout
did better, using the direction ``BENCHMARK.json`` declares.  Beside the
scaled metrics it keeps each run's unscaled ``raw_points_per_s``, read from
the ``detail`` of the record ``perfbench/run.py`` writes under
``perfbench/out/``, with the same statistics, higher being better, and
its minor page faults per attempted operation (the ``ru_minflt`` of the
run's process tree over its ``attempted`` count), lower being better: the
same code runs at different speeds as the heap layout does or does not
make each call fault its pages back.  A run that prints no result line is
kept with its error output and left out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "# env: "
RAW = "raw_points_per_s"
FAULTS = "minor_faults_per_op"


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """The (environment, result) a benchmark run printed: the ``# env:``
    line and the JSON object on the last line; None where missing."""
    lines = stdout.strip().split("\n")
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), None)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return env, result if isinstance(result, dict) and "metrics" in result else None


def metric_values(run: dict) -> dict:
    """The value of each metric of a run that has a result, by name, its raw
    rate and fault count among them where they were read."""
    values = {name: metric["value"] for name, metric in run["result"]["metrics"].items()}
    for name in (RAW, FAULTS):
        if run.get(name) is not None:
            values[name] = run[name]
    return values


def read_raw_rate(record: Path) -> float | None:
    """``detail.raw_points_per_s`` of a run record; None where the record is
    missing or holds no such figure."""
    try:
        return json.loads(record.read_text())["detail"][RAW]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs
    that have a result, with the count of runs and of failed operations."""
    results = [run["result"] for run in runs if run.get("result")]
    values_of = [metric_values(run) for run in runs if run.get("result")]
    names = sorted({name for values in values_of for name in values})
    medians, quartiles = {}, {}
    for name in names:
        values = [v[name] for v in values_of if name in v]
        medians[name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        quartiles[name] = [q1, q3]
    return {
        "runs": len(runs),
        "runs_with_result": len(results),
        "failed_operations": sum(r["failed"] for r in results),
        "medians": medians,
        "quartiles": quartiles,
    }


def pairs_won(baseline: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the seeds on which the change did better than the
    baseline, out of the seeds where both runs have a result."""
    base = {run["seed"]: metric_values(run) for run in baseline if run.get("result")}
    pairs = [(base[run["seed"]], metric_values(run)) for run in change if run.get("result") and run["seed"] in base]
    won = {}
    for name, direction in better.items():
        values = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
        wins = sum(c < b if direction == "lower" else c > b for b, c in values)
        won[name] = {"won": wins, "pairs": len(values)}
    return won


def tree_identity(tree: Path) -> dict:
    """The commit a tree is checked out at and whether its tracked files
    differ from it; both None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout)}


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    record = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record.unlink(missing_ok=True)  # so that a run which writes none is not read from an earlier one
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    env, result = parse_output(proc.stdout)
    run = {"seed": seed, "env": env, "result": result}
    if result is None:
        run["error"] = proc.stderr[-2000:]
    else:
        run[RAW] = read_raw_rate(record)
        run[FAULTS] = faults / result["attempted"] if result.get("attempted") else None
    return run


def record(pr: int, seeds: list[int], baseline: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]} | {RAW: "higher", FAULTS: "lower"}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    trees = {"baseline": baseline.resolve(), "change": ROOT}
    identities = {tag: tree_identity(tree) for tag, tree in trees.items()}
    runs = {name: {tag: [] for tag in trees} for name in names}
    for i, seed in enumerate(seeds):
        for name in names:
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for tag in order:
                run = run_once(trees[tag], bench["command"], name, seed, seconds)
                runs[name][tag].append(run)
                status = "no result" if run["result"] is None else "ok"
                print(f"{name} seed {seed} {tag}: {status}", flush=True)
    out = {"pr": pr, "seeds": seeds, "seconds": seconds, "command": bench["command"], "trees": identities,
           "workloads": {}}
    for name in names:
        entry = {tag: {"summary": summarize(r), "runs": r} for tag, r in runs[name].items()}
        entry["change_better"] = pairs_won(runs[name]["baseline"], runs[name]["change"], better)
        out["workloads"][name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the entscat benchmark as BENCH_<pr>.json")
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--baseline", type=Path, required=True, help="root of a checkout to compare against")
    args = parser.parse_args(argv)
    data = record(args.pr, args.seeds, args.baseline)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
