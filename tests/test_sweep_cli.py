import json
import math
import subprocess
import sys

import mpmath
import pytest

from entscat import Axis, DomainError, ModelKind, observables_at, run_scan, run_truncation, write_csv, write_json
from entscat.cli import build_parser, main
from entscat.sweep import resolve_point

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT
GRID_REL, GRID_ABS = 1e-12, 1e-15  # bound on grid cells vs observables_at at the same point


class TestAxis:
    def test_values_hit_both_endpoints(self):
        ax = Axis("k", 0.05, 10.0, 200)
        vals = ax.values()
        assert len(vals) == 200
        assert vals[0] == 0.05
        assert vals[-1] == 10.0

    def test_count_below_two_rejected(self):
        with pytest.raises(DomainError):
            Axis("k", 0.0, 1.0, 1)

    def test_degenerate_range_allowed(self):
        assert Axis("k", 3.0, 3.0, 2).values() == [3.0, 3.0]


class TestPointFromParams:
    def test_mixed_units_rejected(self):
        with pytest.raises(DomainError, match="mixed"):
            resolve_point({"k": 1.0, "omegaA": 1.0, "omegaB": 1.0, "gA": 1.0, "gB": 1.0}, XY)

    def test_needs_one_phase_parameter(self):
        with pytest.raises(DomainError):
            resolve_point({"omegaA": 1.0, "omegaB": 1.0}, XY)
        with pytest.raises(DomainError):
            resolve_point({"omegaA": 1.0, "omegaB": 1.0, "phase": 1.0, "sin2kd": 1.0}, XY)

    def test_sin2kd_converts_to_phase(self):
        pt = resolve_point({"omegaA": 1.0, "omegaB": 1.0, "sin2kd": 1.0}, XY)
        assert pt.phase == pytest.approx(math.pi / 2, rel=1e-15)


class TestRunScan:
    def test_degenerate_scan_matches_point_evaluation(self):
        grid = run_scan((Axis("k", 3.0, 3.0, 2),), {"gA": 3.0, "gB": 3.0}, XY)
        obs = observables_at(resolve_point({"k": 3.0, "gA": 3.0, "gB": 3.0}, XY))
        assert len(grid.rows) == 2
        for row in grid.rows:
            # grids run numpy's complex arithmetic, which may round the last digits differently
            assert row == pytest.approx(
                (obs.concurrence_t, obs.probability_t, obs.concurrence_r, obs.probability_r),
                rel=GRID_REL, abs=GRID_ABS,
            )

    def test_2d_row_major_order(self):
        grid = run_scan(
            (Axis("omegaA", 0.5, 1.0, 2), Axis("omegaB", 1.0, 2.0, 3)),
            {"sin2kd": 1.0},
            XY,
        )
        assert len(grid.rows) == 6
        direct = observables_at(resolve_point({"omegaA": 0.5, "omegaB": 2.0, "sin2kd": 1.0}, XY))
        matching = [
            i for i, row in enumerate(grid.rows)
            if row[1] == pytest.approx(direct.probability_t, rel=GRID_REL, abs=GRID_ABS)
        ]
        assert matching == [2]  # row 2 = (omegaA[0], omegaB[2])

    def test_undefined_cells_are_none(self):
        grid = run_scan((Axis("phase", 0.1, 1.0, 3),), {"omegaA": 0.0, "omegaB": 0.0}, XY)
        for row in grid.rows:
            assert row[0] is None  # C_t
            assert row[1] == 0.0  # P_t

    def test_unknown_column_rejected(self):
        with pytest.raises(DomainError, match="unknown column"):
            run_scan((Axis("phase", 0.1, 1.0, 3),), {"omegaA": 1.0, "omegaB": 1.0}, XY, ("bogus",))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(DomainError, match="twice"):
            run_scan((Axis("k", 1.0, 2.0, 3),), {"k": 1.0, "gA": 1.0, "gB": 1.0}, XY)

    def test_truncation_rejects_unknown_parameter(self):
        with pytest.raises(DomainError, match="unknown parameter 'bogus'"):
            run_truncation(Axis("bogus", 1.0, 2.0, 3), {"gA": 1.0, "gB": 1.0, "k": 2.0}, (0,))


class TestSerialization:
    def test_csv_layout_and_determinism(self, tmp_path):
        grid = run_truncation(Axis("k", 0.5, 3.0, 7), {"gA": 3.0, "gB": 3.0}, (0, 1, 3))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(grid, first)
        write_csv(grid, second)
        data = first.read_bytes()
        assert data == second.read_bytes()
        lines = data.decode("utf-8").split("\n")
        assert lines[0].startswith("# meta: ")
        assert lines[1] == "k,C_n0,P_n0,C_n1,P_n1,C_n3,P_n3,C_exact,P_exact"
        assert len(lines) == 2 + 7 + 1  # meta, header, rows, trailing newline
        assert lines[-1] == ""

    def test_csv_serializes_undefined_as_empty_cell(self, tmp_path):
        grid = run_scan((Axis("phase", 0.1, 1.0, 2),), {"omegaA": 0.0, "omegaB": 0.0}, XY)
        path = tmp_path / "undef.csv"
        write_csv(grid, path)
        row = path.read_text("utf-8").split("\n")[2]
        assert ",," in row or row.endswith(",")

    def test_json_document_shape(self, tmp_path):
        grid = run_scan((Axis("phase", 0.1, 1.0, 2),), {"omegaA": 0.0, "omegaB": 0.0}, HEIS)
        path = tmp_path / "grid.json"
        write_json(grid, path)
        doc = json.loads(path.read_text("utf-8"))
        assert set(doc) == {"meta", "axes", "columns", "rows"}
        assert doc["axes"][0]["name"] == "phase"
        assert doc["columns"] == ["C_t", "P_t", "C_r", "P_r"]
        assert doc["rows"][0][0] is None  # undefined concurrence -> null
        assert doc["rows"][0][1] == 0.0
        assert doc["meta"]["model"] == "heis"

    def test_defined_infinite_ratio_is_inf_in_csv_and_null_in_json(self, tmp_path):
        # only the A-flip weight survives: C = 0 and a = inf are both defined
        grid = run_scan((Axis("omegaA", 0.0, 1.0, 3),), {"omegaB": 0.0, "phase": 1.0}, XY, ("C_t", "a_t"))
        write_csv(grid, tmp_path / "r.csv")
        write_json(grid, tmp_path / "r.json")
        assert tmp_path.joinpath("r.csv").read_text("utf-8").split("\n")[2:] == [
            "0.0,,", "0.5,0.0,inf", "1.0,0.0,inf", ""
        ]
        # JSON has no inf: the defined inf and the undefined 0/0 both read null
        assert json.loads(tmp_path.joinpath("r.json").read_text("utf-8"))["rows"] == [
            [None, None], [0.0, None], [0.0, None]
        ]


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_point_reference_values(self, capsys):
        assert run_cli("point", "--model", "xy", "--gA", "3", "--gB", "3", "--k", "3") == 0
        out = capsys.readouterr().out
        assert "transmitted: C=1.0" in out.replace("0.9999999999999999", "1.0")
        assert "omega_a: 1.0" in out
        p_line = [ln for ln in out.splitlines() if ln.startswith("transmitted")][0]
        p_value = float(p_line.split("P=")[1].split()[0])
        assert p_value == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_point_prints_a_defined_infinite_ratio_as_inf(self, capsys):
        assert run_cli("point", "--omegaA", "1", "--omegaB", "0", "--phase", "1", "--side", "t") == 0
        assert capsys.readouterr().out.endswith("transmitted: C=0.0 P=0.25 a=inf\n")

    def test_point_undefined_concurrence(self, capsys):
        assert run_cli("point", "--model", "xy", "--omegaA", "0", "--omegaB", "0", "--phase", "1") == 0
        out = capsys.readouterr().out
        assert "undefined (P=0)" in out

    def test_point_contact_model_prints_sides_separately(self, capsys):
        # at integer k the folded phase is 0 and the sides coincide exactly
        # (both sites merge into one scatterer), so probe off-integer too
        assert run_cli("point", "--model", "heis", "--gA", "1.5", "--gB", "1.5", "--k", "2") == 0
        out = capsys.readouterr().out
        assert any(ln.startswith("transmitted") for ln in out.splitlines())
        assert any(ln.startswith("reflected") for ln in out.splitlines())
        assert run_cli("point", "--model", "heis", "--gA", "1.5", "--gB", "1.5", "--k", "2.3") == 0
        out = capsys.readouterr().out
        t_line = [ln for ln in out.splitlines() if ln.startswith("transmitted")][0]
        r_line = [ln for ln in out.splitlines() if ln.startswith("reflected")][0]
        assert t_line.split("C=")[1].split()[0] != r_line.split("C=")[1].split()[0]

    def test_scan_writes_identical_bytes_on_rerun(self, tmp_path, capsys):
        args = [
            "scan", "--model", "xy", "--gA", "3", "--gB", "3",
            "--axis", "k=0.05:10:50",
        ]
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_scan_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run_cli(
            "scan", "--model", "heis", "--omegaA", "0.75", "--omegaB", "0.75",
            "--axis", "phase=0.1:3:20", "--format", "json", "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text("utf-8"))
        assert len(doc["rows"]) == 20

    def test_scan_unwritable_path_exits_1(self, capsys):
        code = run_cli(
            "scan", "--model", "xy", "--gA", "3", "--gB", "3",
            "--axis", "k=1:2:3", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_truncate_round_trip(self, tmp_path):
        out = tmp_path / "trunc.csv"
        assert run_cli(
            "truncate", "--model", "xy", "--gA", "3", "--gB", "3",
            "--axis", "k=0.5:5:10", "--n", "0,1,3", "--out", str(out),
        ) == 0
        header = out.read_text("utf-8").split("\n")[1]
        assert header.endswith("C_exact,P_exact")

    def test_optimize_popt_prints_cross_check(self, capsys):
        assert run_cli("optimize", "popt") == 0
        out = capsys.readouterr().out
        assert "omega_b: 1.0652536" in out
        assert "omega_a: 0.3258123" in out
        assert "probability: 0.36845896" in out
        delta = float([ln for ln in out.splitlines() if "algebraic root|" in ln][0].split(": ")[1])
        assert delta < 1e-8

    def test_optimize_report_classifies(self, capsys):
        assert run_cli("optimize", "report", "--omegaA", "1", "--omegaB", "1") == 0
        out = capsys.readouterr().out
        assert "regime: unit" in out
        assert "sin2_kd: 0.0" in out
        capsys.readouterr()
        assert run_cli("optimize", "report", "--omegaA", "2", "--omegaB", "1") == 0
        out = capsys.readouterr().out
        assert "regime: right" in out
        assert "infeasible" in out

    def test_verify_small_run_passes(self, capsys):
        assert run_cli("verify", "--samples", "25", "--seed", "42") == 0
        out = capsys.readouterr().out
        assert "PASS overall" in out
        assert "xy: closed vs numeric amplitudes" in out
        assert "heis: dressing vs direct series" in out

    def test_verify_model_filter(self, capsys):
        assert run_cli("verify", "--samples", "10", "--model", "heis") == 0
        out = capsys.readouterr().out
        assert "xy:" not in out


class TestCliUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["point", "--model", "xy"],  # no parameters at all
            ["point", "--gA", "1", "--gB", "1"],  # incomplete physical set
            ["point", "--omegaA", "1", "--omegaB", "1"],  # missing phase
            ["point", "--omegaA", "1", "--omegaB", "1", "--phase", "1", "--sin2kd", "0.5"],
            ["point", "--k", "1", "--omegaA", "1", "--omegaB", "1", "--phase", "1"],  # mixed
            ["point", "--gA", "1", "--gB", "1", "--k", "-3"],  # domain error
            ["scan", "--gA", "3", "--gB", "3", "--axis", "nope"],  # bad axis syntax
            ["truncate", "--model", "heis", "--gA", "1", "--gB", "1", "--axis", "k=1:2:5", "--n", "0"],
            ["truncate", "--model", "xy", "--gA", "1", "--gB", "1", "--axis", "k=1:2:5", "--n", "0,-2"],
            ["optimize", "report"],  # missing omegas
            ["verify", "--samples", "0"],
            ["verify", "--seed", "-1", "--samples", "1"],  # a negative seed
            ["bogus-command"],
            # an axis truncate would ignore; a bad path makes a missed rejection fail too
            ["truncate", "--gA", "1", "--gB", "1", "--k", "2", "--axis", "bogus=1:2:3", "--n", "0",
             "--out", "/nonexistent-dir/t.csv"],
            ["scan", "--sin2kd", "1", "--axis", "omegaA=0:1:2", "--axis", "omegaB=0:1:2", "--axis", "k=1:2:2",
             "--out", "/nonexistent-dir/x.csv"],  # three axes
            ["point", "--omegaA", "1", "--omegaB", "1", "--phase", "1", "--out", "x.csv"],  # point writes no file
            ["optimize", "report", "--model", "heis", "--omegaA", "0.33", "--omegaB", "1.07"],  # exchange model only
            # no column, a repeated column, a repeated bounce order; a bad path makes a missed rejection fail too
            ["scan", "--gA", "3", "--gB", "3", "--axis", "k=1:2:2", "--columns", "", "--out", "/nonexistent-dir/x.csv"],
            ["scan", "--gA", "3", "--gB", "3", "--axis", "k=1:2:2", "--columns", "C_t,C_t",
             "--out", "/nonexistent-dir/x.csv"],
            ["truncate", "--gA", "3", "--gB", "3", "--axis", "k=1:2:2", "--n", "1,1", "--out", "/nonexistent-dir/t.csv"],
        ],
    )
    def test_exit_code_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        params = {"--k", "--gA", "--gB", "--d", "--omegaA", "--omegaB", "--phase", "--sin2kd"}
        expected = {
            "point": {"--model", "--side"} | params,
            "scan": {"--model", "--format", "--out", "--axis", "--columns"} | params,
            "truncate": {"--model", "--format", "--out", "--axis", "--n"} | params,
            "optimize": {"--omegaA", "--omegaB"},
            "verify": {"--model", "--seed", "--samples"},
        }
        subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
        for name, sub in subparsers.items():
            flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == expected[name], name

    def test_scan_requires_out(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--gA", "3", "--gB", "3", "--axis", "k=1:2:3"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("omega_a, omega_b", [("1e-175", "1e150"), ("1", "1e200"), ("1e200", "1")])
def test_optimize_report_exits_1_where_the_probability_overflows(omega_a, omega_b, capsys):
    assert main(["optimize", "report", "--omegaA", omega_a, "--omegaB", omega_b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: probability is not finite")


def test_optimize_report_at_the_anti_resonant_phase_where_the_bounce_product_overflows(capsys):
    # right region, sin^2(kd) = 0: P = (a + b)/(1 + a + b)^2 with a = 1e152, b = 100
    assert main(["optimize", "report", "--omegaA", "1e76", "--omegaB", "10"]) == 0
    out = capsys.readouterr().out
    assert "regime: right" in out and "sin2_kd: 0.0" in out
    probability = float(out.split("probability: ")[1].split("\n")[0])
    with mpmath.workdps(50):
        a, b = mpmath.mpf(1e76) ** 2, mpmath.mpf(10) ** 2
        exact = (a + b) / (1 + a + b) ** 2
    assert abs(probability - exact) <= 1e-12 * exact


@pytest.mark.parametrize("omega_a, omega_b", [("1e-200", "2e-200"), ("1e-170", "1e-160")])
def test_optimize_report_survives_an_underflowed_phase_solve(omega_a, omega_b, capsys):
    assert main(["optimize", "report", "--omegaA", omega_a, "--omegaB", omega_b]) == 0
    out = capsys.readouterr().out
    assert "regime: left" in out
    assert "unit concurrence: infeasible (maximum ratio stays below 1 even at resonance)" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "entscat", "point", "--omegaA", "1", "--omegaB", "1", "--sin2kd", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "transmitted: C=0.6" in proc.stdout
    assert "a=3.0" in proc.stdout.replace("2.9999999999999996", "3.0")


def test_bad_flag_exits_2_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "entscat", "point", "--model", "zz"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
