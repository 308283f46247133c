import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entscat.cli
import entscat.sweep
import entscat.verify
from entscat import (
    Axis,
    DomainError,
    ModelKind,
    ObservableSet,
    ValidationError,
    observables_at,
    run_scan,
    run_truncation,
    unit_concurrence_phase,
    write_csv,
    write_json,
)
from entscat.cli import build_parser, main
from entscat.core import COLUMNS, DEFAULT_COLUMNS, point_at, resolve_point
from entscat.sweep import write_grid

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

    def test_count_below_two_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^axis 'k' count must be an integer >= 2, got 1$"):
            Axis("k", 0.0, 1.0, 1)
        for count in (2.5, 3.0, "3", None, True):
            with pytest.raises(DomainError, match=r"axis 'k' count must be an integer"):
                Axis("k", 1.0, 2.0, count)
        ax = Axis("k", 1.0, 2.0, np.int64(3))  # numpy integers are counts, kept as Python ints
        assert type(ax.count) is int and ax.values() == [1.0, 1.5, 2.0]
        write_json(run_scan((ax,), {"gA": 1.0, "gB": 2.0}, XY), tmp_path / "s.json")
        assert json.loads((tmp_path / "s.json").read_text())["axes"][0]["count"] == 3

    def test_degenerate_range_allowed(self):
        assert Axis("k", 3.0, 3.0, 2).values() == [3.0, 3.0]

    @pytest.mark.parametrize("start, stop", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_range_rejected(self, start, stop):
        with pytest.raises(DomainError, match=r"^axis 'k' range must be finite$"):
            Axis("k", start, stop, 3)


class TestPointFromParams:
    def test_mixed_units_rejected(self):
        with pytest.raises(DomainError, match="mixed"):
            resolve_point({"k": 1.0, "omegaA": 1.0, "omegaB": 1.0, "gA": 1.0, "gB": 1.0}, XY)

    def test_needs_one_phase_parameter(self):
        with pytest.raises(DomainError):
            resolve_point({"omegaA": 1.0, "omegaB": 1.0}, XY)
        with pytest.raises(DomainError):
            resolve_point({"omegaA": 1.0, "omegaB": 1.0, "phase": 1.0, "sin2kd": 1.0}, XY)

    @pytest.mark.parametrize(
        "params",
        [
            {"k": 1.0, "gA": 1.0, "gB": 1.0, "D": 2.0},
            {"omegaA": 1.0, "omegaB": 1.0, "phase": 0.5, "D": 2.0},
            {"k": np.ones(2), "gA": 1.0, "gB": 1.0, "D": 2.0},
            {"D": 2.0, "omegaA": np.ones(2), "omegaB": 1.0, "sin2kd": 0.5},
            {"D": np.ones(3), "omegaA": np.ones(2), "omegaB": 1.0},
        ],
        ids=["physical", "dimensionless", "physical-stack", "dimensionless-stack", "before-missing-names"],
    )
    def test_unknown_name_rejected(self, params):
        with pytest.raises(DomainError, match=r"^unknown parameter 'D'$"):
            resolve_point(params, XY)

    def test_sin2kd_converts_to_phase(self):
        pt = resolve_point({"omegaA": 1.0, "omegaB": 1.0, "sin2kd": 1.0}, XY)
        assert pt.phase == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize(
        "params, shapes",
        [
            ({"omegaA": np.ones(2), "omegaB": np.ones(3), "phase": 0.5}, "'omegaA': (2,), 'omegaB': (3,)"),
            ({"omegaA": np.ones(2), "omegaB": 1.0, "sin2kd": np.full(3, 0.5)}, "'omegaA': (2,), 'sin2kd': (3,)"),
            ({"k": np.ones(2), "gA": np.ones(3), "gB": 1.0}, "'k': (2,), 'g_a': (3,)"),
        ],
        ids=["phase", "sin2kd", "physical"],
    )
    def test_arrays_that_do_not_broadcast_name_their_shapes(self, params, shapes):
        with pytest.raises(DomainError, match=re.escape(f"do not broadcast together: shapes {{{shapes}}}")):
            resolve_point(params, XY)


class TestRunScan:
    def test_degenerate_scan_matches_point_evaluation(self):
        grid = run_scan((Axis("k", 3.0, 3.0, 2),), {"gA": 3.0, "gB": 3.0}, XY)
        obs = observables_at(resolve_point({"k": 3.0, "gA": 3.0, "gB": 3.0}, XY))
        expected = (obs.concurrence_t, obs.probability_t, obs.concurrence_r, obs.probability_r)
        assert list(grid.columns) == ["C_t", "P_t", "C_r", "P_r"]
        for values, ref in zip(grid.columns.values(), expected):
            # grids run numpy's complex arithmetic, which may round the last digits differently
            assert values.tolist() == pytest.approx([ref, ref], rel=GRID_REL, abs=GRID_ABS)

    def test_2d_row_major_order(self):
        grid = run_scan(
            (Axis("omegaA", 0.5, 1.0, 2), Axis("omegaB", 1.0, 2.0, 3)),
            {"sin2kd": 1.0},
            XY,
        )
        assert all(values.shape == (6,) for values in grid.columns.values())
        direct = observables_at(resolve_point({"omegaA": 0.5, "omegaB": 2.0, "sin2kd": 1.0}, XY))
        matching = [
            i for i, p_t in enumerate(grid.columns["P_t"].tolist())
            if p_t == pytest.approx(direct.probability_t, rel=GRID_REL, abs=GRID_ABS)
        ]
        assert matching == [2]  # row 2 = (omegaA[0], omegaB[2])

    def test_undefined_cells_are_nan(self):
        grid = run_scan((Axis("phase", 0.1, 1.0, 3),), {"omegaA": 0.0, "omegaB": 0.0}, XY)
        assert np.isnan(grid.columns["C_t"]).all()
        assert grid.columns["P_t"].tolist() == [0.0] * 3

    def test_each_column_is_an_observable_field_and_the_defaults_are_in_order(self):
        assert set(COLUMNS.values()) <= set(ObservableSet._fields)
        assert len(set(COLUMNS.values())) == len(COLUMNS)
        known = iter(COLUMNS)
        assert all(column in known for column in DEFAULT_COLUMNS)  # a subsequence

    def test_unknown_column_rejected(self):
        message = "unknown column 'bogus'; known: ('C_t', 'P_t', 'C_r', 'P_r', 'a_t', 'a_r')"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            run_scan((Axis("phase", 0.1, 1.0, 3),), {"omegaA": 1.0, "omegaB": 1.0}, XY, ("bogus",))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(DomainError, match="twice"):
            run_scan((Axis("k", 1.0, 2.0, 3),), {"k": 1.0, "gA": 1.0, "gB": 1.0}, XY)

    @pytest.mark.parametrize(
        "entry, name",
        [
            (lambda fixed: run_scan((Axis("omegaA", 0.0, 1.0, 3),), {"phase": 0.5, **fixed}, XY), "omegaB"),
            (lambda fixed: run_truncation(Axis("k", 0.1, 1.0, 3), {"gA": 1.0, **fixed}, (0, 1)), "gB"),
        ],
        ids=["scan", "truncation"],
    )
    def test_an_array_fixed_parameter_is_refused_before_evaluation(self, entry, name, monkeypatch):
        want, got = entry({name: 2.0}), entry({name: np.array(2.0)})  # a 0-d array is its one value
        assert got.meta == want.meta
        assert all(got.columns[c].tobytes() == want.columns[c].tobytes() for c in want.columns)
        monkeypatch.setattr(entscat.sweep, "_resolve_grid", lambda *args: pytest.fail("the grid was evaluated"))
        for shape in [(1,), (2,), (2, 1)]:
            with pytest.raises(DomainError, match=re.escape(f"{name} must be one value, got an array of shape {shape}")):
                entry({name: np.full(shape, 2.0)})

    def test_every_bounce_order_is_refused_before_evaluation(self, monkeypatch):
        monkeypatch.setattr(entscat.sweep, "_resolve_grid", lambda *args: pytest.fail("the grid was evaluated"))
        axis, fixed = Axis("k", 0.05, 10.0, 9), {"gA": 3.0, "gB": 3.0}
        for orders, error, message in [
            ((0, 1, -2), ValidationError, "bounce count must be an integer >= 0, got -2"),
            ((0, np.int64(-1)), ValidationError, "bounce count must be an integer >= 0, got -1"),
            ((0, True), ValidationError, "bounce count must be an integer >= 0, got True"),
            ((3, np.int64(3)), DomainError, "bounce order given twice in [3, 3]"),
        ]:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                run_truncation(axis, fixed, orders)

    def test_truncation_rejects_unknown_parameter(self):
        with pytest.raises(DomainError, match="unknown parameter 'bogus'"):
            run_truncation(Axis("bogus", 1.0, 2.0, 3), {"gA": 1.0, "gB": 1.0, "k": 2.0}, (0,))


class TestSerialization:
    def test_unknown_format_rejected(self, tmp_path):
        grid = run_truncation(Axis("k", 0.5, 3.0, 3), {"gA": 3.0, "gB": 3.0}, (0,))
        with pytest.raises(DomainError, match=r"^unknown format 'xml'$"):
            write_grid(grid, tmp_path / "g.xml", "xml")
        assert not (tmp_path / "g.xml").exists()

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

    def test_files_do_not_depend_on_the_input_number_type(self, tmp_path):
        written = set()
        for num in (float, np.float64, int):
            grid = run_scan((Axis("omegaA", num(0), num(1), 3),), {"omegaB": num(2), "phase": num(1)}, XY)
            write_csv(grid, tmp_path / "g.csv")
            write_json(grid, tmp_path / "g.json")
            written.add(((tmp_path / "g.csv").read_bytes(), (tmp_path / "g.json").read_bytes()))
        assert len(written) == 1
        csv, doc = written.pop()
        assert b"axes=omegaA:0.0:1.0:3;" in csv and b";omegaB=2.0;phase=1.0;" in csv
        assert json.loads(doc)["axes"][0]["start"] == 0.0 and b'"start": 0.0' in doc

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


SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
# each subcommand's flags that take one value, and those of them that take a number
VALUE_FLAGS = [(c, a.option_strings[0]) for c, sub in SUBPARSERS.items()
               for a in sub._actions if a.option_strings and a.nargs is None]
NUMERIC_FLAGS = [(c, flag) for c, flag in VALUE_FLAGS if SUBPARSERS[c]._option_string_actions[flag].type in (float, int)]
UNIT_SYSTEMS = ({"k": "1", "gA": "1", "gB": "1", "d": "1"}, {"omegaA": "1", "omegaB": "1", "phase": "1"},
                {"omegaA": "1", "omegaB": "1", "sin2kd": "0.5"})


# values for a numeric flag: float texts in every form float() reads, and texts it does not
FLOAT_TEXTS = st.one_of(
    st.floats().map(repr),  # negatives, both zeros, subnormals, infinities and NaN among them
    st.floats(allow_nan=False).map("{:e}".format),
    st.floats(allow_nan=False).map("{:E}".format),
    st.floats(0.0, 1e3).map("+{!r}".format),
    st.integers(-(10**6), 10**6).map("{:_}".format),
    st.integers(-3, 30).map(str),
    st.sampled_from(["-1e-3", "-.5", "-5.", "-0", "-Infinity", "-nan", "+inf", "-1_000.5e-1_0"]),
)
JUNK = st.one_of(st.sampled_from(["--", "-", "", "-x", "--x", "-1e", "-e1", "1__0", "-h", "--help"]),
                 st.text("-+.eE_019xn ", max_size=5))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _base_argv(command: str, flag: str, out: str) -> list[str]:
    """A quick, valid run of ``command`` that a value of ``flag`` appended to it overrides: a point in the unit
    system of ``flag``, an axis of 3 points over another of its parameters, 2 verify samples."""
    if command == "optimize":
        return ["optimize", "report", "--omegaA", "1", "--omegaB", "1"]
    if command == "verify":
        return ["verify", "--model", "xy", "--seed", "1", "--samples", "2"]
    params = next((u for u in UNIT_SYSTEMS if flag[2:] in u), UNIT_SYSTEMS[1])
    if command == "point":
        return ["point", *(t for name, value in params.items() for t in (f"--{name}", value))]
    axis = next(name for name in params if name != flag[2:])
    fixed = [t for name, value in params.items() if name != axis for t in (f"--{name}", value)]
    return [command, *fixed, "--axis", f"{axis}=0.5:1:3", "--out", out] + (["--n", "0,1"] if command == "truncate" else [])


def _spellings(command: str, flag: str, value: str) -> list[list[str]]:
    """``flag`` with ``value`` in full, as its shortest unique prefix, and joined by ``=``."""
    others = [s for s in SUBPARSERS[command]._option_string_actions if s != flag]
    prefix = next((flag[:n] for n in range(3, len(flag)) if not any(s.startswith(flag[:n]) for s in others)), flag)
    return [[flag, value], [prefix, value], [f"{flag}={value}"]]


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

    def test_main_builds_one_parser_and_reuses_it(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(entscat.cli, "build_parser", lambda: built.append(None) or build_parser())
        entscat.cli._parser.cache_clear()
        argv = ("point", "--omegaA", "1", "--omegaB", "0", "--phase", "1", "--side", "t")
        try:
            assert run_cli(*argv) == 0
            first = capsys.readouterr().out
            with pytest.raises(SystemExit):  # a usage error leaves the parser as it was
                run_cli("point", "--side", "x")
            for _ in range(2):
                assert run_cli(*argv) == 0
                assert capsys.readouterr().out == first
        finally:
            entscat.cli._parser.cache_clear()
        assert len(built) == 1

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

    def test_optimize_popt_prints_the_optimum(self, capsys):
        assert run_cli("optimize", "popt") == 0
        assert capsys.readouterr().out.splitlines() == [
            "omega_a: 0.3258123994038707",
            "omega_b: 1.065253688583415",
            "sin2_kd: 1.0",
            "concurrence: 1.0",
            "probability: 0.3684589675583181",
        ]

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

    def test_a_failing_verify_prints_its_worst_point_and_exits_1(self, monkeypatch, capsys):
        def planted(stack):
            deviations = np.zeros(np.shape(stack.phase))
            deviations[1] = 1.0
            return [("planted", 1e-12, deviations)]

        monkeypatch.setattr(entscat.verify, "_deviations", planted)
        assert run_cli("verify", "--samples", "3", "--seed", "1", "--model", "xy") == 1
        worst = point_at(entscat.verify.sample_points(XY, 3, 1), 1)
        assert capsys.readouterr().out.splitlines() == [
            "FAIL xy: planted: max deviation 1.0 (tolerance 1e-12)",
            f"     worst point: {worst!r}",
            "FAIL overall (3 samples/model, seed 1)",
        ]


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
            # with --out, so that the handler is reached and not argparse's missing-argument error
            ["truncate", "--model", "heis", "--gA", "1", "--gB", "1", "--axis", "k=1:2:5", "--n", "0",
             "--out", "/nonexistent-dir/t.csv"],
            ["truncate", "--model", "xy", "--gA", "1", "--gB", "1", "--axis", "k=1:2:5", "--n", "0,-2",
             "--out", "/nonexistent-dir/t.csv"],
            ["optimize", "report"],  # missing omegas
            ["optimize", "popt", "--omegaA", "1"],  # popt reads no omegas
            ["optimize", "popt", "--omegaB", "1"],
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["truncate", "--model", "heis", "--axis", "k=1:2:5", "--n", "0"],
             "truncate supports the exchange model only (--model xy)"),
            (["truncate", "--axis", "k=1:2:5", "--n", "1,x"], "bad --n '1,x': expected comma-separated integers"),
            (["truncate", "--axis", "k=1:2:5", "--n", "0,-2"], "bounce count must be an integer >= 0, got -2"),
            (["truncate", "--axis", "k=1:inf:5", "--n", "0"], "bad --axis 'k=1:inf:5': axis 'k' range must be finite"),
            (["scan", "--axis", "k=1:2:1"], "bad --axis 'k=1:2:1': axis 'k' count must be an integer >= 2, got 1"),
            (["verify", "--samples", "0"], "samples must be an integer >= 1, got 0"),
            (["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_a_usage_error_reaches_its_handler_and_names_the_fault(self, argv, message, capsys):
        if argv[0] != "verify":  # a bad path makes a missed rejection fail too
            argv = argv + ["--gA", "1", "--gB", "1", "--out", "/nonexistent-dir/t.csv"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"entscat: error: {message}\n")

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1.0e-3", "-.1e-2", "-0.001"])
    def test_a_negative_value_in_any_float_form_is_the_flags_value(self, value, capsys):
        # argparse alone reads -1e-3 as an option, so --phase would have no value
        assert run_cli("point", "--omegaA", "1", "--omegaB", "1", "--phase", value) == 0
        out = capsys.readouterr().out
        assert "(folded from -0.001)\n" in out
        assert run_cli("point", "--omegaA", "1", "--omegaB", "1", f"--phase={value}") == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["point", "--k", "-1e3", "--gA", "1", "--gB", "1"], "entscat: error: k must be positive and finite, got -1000.0"),
            (["point", "--omegaA", "-inf", "--omegaB", "1", "--phase", "1"],
             "entscat: error: omega_a must be finite and non-negative, got -inf"),
            (["optimize", "report", "--omegaA", "1", "--omegaB", "-1E3"],
             "entscat: error: omega_b must be finite and non-negative, got -1000.0"),
            (["verify", "--samples", "-1e3"], "entscat verify: error: argument --samples: invalid int value: '-1e3'"),
        ],
    )
    def test_a_negative_value_in_exponent_form_reaches_the_flags_check(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")

    @pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
    def test_every_numeric_flag_reads_a_negative_exponent_in_every_spelling(self, command, flag, tmp_path, capsys):
        action = SUBPARSERS[command]._option_string_actions[flag]
        for spelling in _spellings(command, flag, "-1e-3"):
            argv = _base_argv(command, flag, str(tmp_path / "out.csv")) + spelling
            if action.type is float:
                assert getattr(build_parser().parse_args(argv), action.dest) == -1e-3, spelling
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)
                assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: '-1e-3'\n"), spelling

    @pytest.mark.parametrize("command, flag", VALUE_FLAGS)
    def test_a_flag_given_double_dash_after_equals_is_a_usage_error(self, command, flag, tmp_path, capsys):
        # argparse before 3.13 strips the -- and stores [], which reached the handlers as a value
        with pytest.raises(SystemExit) as excinfo:
            main(_base_argv(command, flag, str(tmp_path / "out.csv")) + [f"{flag}=--"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert re.search(rf"^entscat {command}: error: .*{flag}", err, re.M) and "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(NUMERIC_FLAGS), value=st.one_of(FLOAT_TEXTS, JUNK))
    def test_every_spelling_of_a_numeric_flag_runs_alike(self, case, value):
        command, flag = case
        with contextlib.suppress(ValueError):  # a run of at most 20 verify samples
            assume(flag != "--samples" or int(value) <= 20)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            runs = set()
            for spelling in _spellings(command, flag, value):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main(_base_argv(command, flag, str(out)) + spelling)
                    except SystemExit as exc:
                        code = exc.code
                assert code in (0, 1, 2) and "Traceback" not in stderr.getvalue()
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                # after a flag, "-x" is an option and "=-x" a value: both refused, in words of their own
                runs.add((code, stdout.getvalue(), written, stderr.getvalue() if _is_float(value) else None))
        assert len(runs) == 1, runs

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

    def test_column_and_model_options_are_read_from_their_tables(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
        columns = next(a for a in subparsers["scan"]._actions if "--columns" in a.option_strings)
        assert columns.default == ",".join(DEFAULT_COLUMNS)
        models = sorted(m.value for m in ModelKind)
        with_model = []
        for name, sub in subparsers.items():
            for action in sub._actions:
                if "--model" in action.option_strings:
                    assert action.choices == models, name
                    with_model.append(name)
        assert with_model == ["point", "scan", "truncate", "verify"]

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


def test_optimize_report_solves_the_unit_phase_once(monkeypatch, capsys):
    import entscat.cli
    import entscat.optimize

    calls = []

    def counting(omega_a, omega_b):
        calls.append((omega_a, omega_b))
        return unit_concurrence_phase(omega_a, omega_b)

    monkeypatch.setattr(entscat.optimize, "unit_concurrence_phase", counting)
    # a name the CLI imported itself would escape the patch above
    monkeypatch.setattr(entscat.cli, "unit_concurrence_phase", counting, raising=False)
    assert main(["optimize", "report", "--omegaA", "0.01", "--omegaB", "1"]) == 0
    assert calls == [(0.01, 1.0)]
    assert capsys.readouterr().out.endswith(
        "unit concurrence: infeasible (maximum ratio stays below 1 even at resonance)\n"
    )


@pytest.mark.parametrize(
    "params, axis",
    [(["--gA", "1", "--gB", "1"], "k=-1e308:1e308:3"), (["--omegaA", "1", "--omegaB", "1"], "phase=-1e308:1e308:3")],
)
def test_scan_names_an_axis_whose_span_overflows(params, axis, capsys):
    # stop - start is inf, so the cells would be nan and inf, values never given
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", *params, "--axis", axis, "--out", "/nonexistent-dir/x.csv"])
    assert excinfo.value.code == 2
    name = axis.split("=")[0]
    assert f"axis {name!r} span stop - start is not finite in float64" in capsys.readouterr().err


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
