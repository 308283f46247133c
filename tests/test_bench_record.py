"""The aggregation of ``scripts/bench_record.py`` on canned benchmark
output and a stand-in run script; nothing here starts a benchmark run."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _result(points_per_s, call_p50_us, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "points_per_s": {"value": points_per_s, "unit": "points/s"},
            "call_p50_us": {"value": call_p50_us, "unit": "us"},
        },
    }


def _output(result, seed=1):
    env = {"workload": "cross-check", "seed": seed}
    return "# env: " + json.dumps(env) + "\n" + json.dumps(result) + "\n"


def test_parse_output_reads_the_env_line_and_the_last_result_line():
    env, result = bench_record.parse_output(_output(_result(100.0, 5.0), seed=7))
    assert env == {"workload": "cross-check", "seed": 7}
    assert result == _result(100.0, 5.0)


@pytest.mark.parametrize("stdout", ["", "# env: {}\nTraceback (most recent call last):\n", '# env: {}\n{"a": 1}\n'])
def test_parse_output_without_a_result_line_gives_none(stdout):
    assert bench_record.parse_output(stdout)[1] is None


def test_summary_medians_and_quartiles_skip_runs_without_a_result():
    runs = [{"seed": s, "result": _result(p, c, f)} for s, (p, c, f) in enumerate(
        [(10.0, 4.0, 0), (30.0, 2.0, 1), (20.0, 3.0, 0), (50.0, 1.0, 0), (40.0, 5.0, 0)])]
    runs.append({"seed": 9, "result": None, "error": "boom"})
    summary = bench_record.summarize(runs)
    assert (summary["runs"], summary["runs_with_result"], summary["failed_operations"]) == (6, 5, 1)
    assert summary["medians"] == {"call_p50_us": 3.0, "points_per_s": 30.0}
    assert summary["quartiles"] == {"call_p50_us": [2.0, 4.0], "points_per_s": [20.0, 40.0]}


def test_summary_of_a_single_run_has_equal_quartiles():
    summary = bench_record.summarize([{"seed": 1, "result": _result(10.0, 4.0)}])
    assert summary["quartiles"]["points_per_s"] == [10.0, 10.0]


def test_pairs_won_follows_each_metrics_direction_and_pairs_by_seed():
    baseline = [{"seed": s, "result": _result(10.0, 4.0)} for s in (1, 2, 3)]
    change = [
        {"seed": 3, "result": _result(12.0, 5.0)},  # faster rate, slower call
        {"seed": 1, "result": _result(11.0, 3.0)},  # better on both
        {"seed": 2, "result": None},  # no result: not a pair
        {"seed": 4, "result": _result(99.0, 0.1)},  # no baseline run: not a pair
    ]
    won = bench_record.pairs_won(baseline, change, {"points_per_s": "higher", "call_p50_us": "lower"})
    assert won == {"points_per_s": {"won": 2, "pairs": 2}, "call_p50_us": {"won": 1, "pairs": 2}}


def test_tree_identity_names_the_commit_and_whether_tracked_files_changed(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    (repo / "a.txt").write_text("1\n")
    for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "a"]):
        subprocess.run([*git, *args], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    (repo / "untracked.txt").write_text("x\n")
    assert bench_record.tree_identity(repo) == {"commit": head, "dirty": False}
    (repo / "a.txt").write_text("2\n")
    assert bench_record.tree_identity(repo) == {"commit": head, "dirty": True}


def test_raw_rates_get_the_medians_quartiles_and_pairs_of_the_scaled_metrics():
    baseline = [{"seed": s, "result": _result(10.0, 4.0), "raw_points_per_s": raw}
                for s, raw in zip((1, 2, 3, 4, 5), (8.0, 6.0, 7.0, 9.0, None))]
    change = [{"seed": s, "result": _result(9.0, 5.0), "raw_points_per_s": raw}
              for s, raw in zip((1, 2, 3, 4, 5), (8.5, 5.0, 7.5, 9.5, 1.0))]
    summary = bench_record.summarize(baseline)
    assert summary["medians"]["raw_points_per_s"] == 7.5  # the run without a raw rate is left out
    assert summary["quartiles"]["raw_points_per_s"] == [6.75, 8.25]
    assert summary["medians"]["points_per_s"] == 10.0
    won = bench_record.pairs_won(baseline, change, {"points_per_s": "higher", "raw_points_per_s": "higher"})
    assert won == {"points_per_s": {"won": 0, "pairs": 5}, "raw_points_per_s": {"won": 3, "pairs": 4}}


FAKE_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--seed"] == "1":
    out = Path("perfbench/out")
    out.mkdir(parents=True, exist_ok=True)
    record = {"detail": {"raw_points_per_s": 1234.5}}
    (out / f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json").write_text(json.dumps(record))
print("# env: {}")
print(json.dumps({"correct": True, "attempted": int(args.get("--attempted", 1)), "failed": 0, "metrics": {}}))
"""


def test_run_once_reads_the_raw_rate_of_the_run_it_made(tmp_path):
    (tmp_path / "fake_run.py").write_text(FAKE_RUN)
    command = [sys.executable, "fake_run.py"]
    run = bench_record.run_once(tmp_path, command, "cross-check", 1, 0.1)
    assert run["raw_points_per_s"] == 1234.5
    # seed 2 writes no record: an earlier run's is not read in its place
    stale = tmp_path / "perfbench" / "out" / "cross-check-seed2-trace0.json"
    stale.write_text(json.dumps({"detail": {"raw_points_per_s": 99.0}}))
    run = bench_record.run_once(tmp_path, command, "cross-check", 2, 0.1)
    assert run["result"] is not None and run["raw_points_per_s"] is None and not stale.exists()


def test_run_once_counts_the_minor_page_faults_of_its_run_per_operation(tmp_path, monkeypatch):
    (tmp_path / "fake_run.py").write_text(FAKE_RUN)
    command = [sys.executable, "fake_run.py", "--attempted", "4"]
    run = bench_record.run_once(tmp_path, command, "cross-check", 2, 0.1)
    faults = run["minor_faults_per_op"] * 4  # the run's whole count, its interpreter's start-up among them
    assert faults.is_integer() and faults > 0
    # the children's count read before and after the run: its difference over the 4 operations
    counts = iter([1000, 1400])
    monkeypatch.setattr(bench_record.resource, "getrusage", lambda who: types.SimpleNamespace(
        ru_minflt=next(counts) if who == bench_record.resource.RUSAGE_CHILDREN else None))
    assert bench_record.run_once(tmp_path, command, "cross-check", 2, 0.1)["minor_faults_per_op"] == 100.0
    # its median, quartiles and pairs, where fewer faults are better
    baseline = [dict(run, seed=s, minor_faults_per_op=f) for s, f in ((1, 40.0), (2, 10.0), (3, 30.0))]
    change = [dict(run, seed=s, minor_faults_per_op=f) for s, f in ((1, 20.0), (2, 11.0), (3, None))]
    summary = bench_record.summarize(baseline)
    assert summary["medians"]["minor_faults_per_op"] == 30.0
    assert summary["quartiles"]["minor_faults_per_op"] == [20.0, 35.0]
    won = bench_record.pairs_won(baseline, change, {"minor_faults_per_op": "lower"})
    assert won == {"minor_faults_per_op": {"won": 1, "pairs": 2}}
