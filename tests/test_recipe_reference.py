"""Every recipe's output against a reference captured from the code before
the point resolver, the bounce sum and the concurrence were each reduced to
one implementation (``tests/data/recipe_reference.json``).  Its keys are
the recipe names of ``scripts/recipes.py`` with ``.py`` appended, the file
names the recipes had when the reference was captured.

The reference keeps, per output file, the meta line, the column header, the
row count and every ``stride``-th data row as written.  Values are compared
within a stated tolerance, not byte for byte, because numpy's vectorized
loops may round the last digit differently on another CPU.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("recipes", ROOT / "scripts" / "recipes.py")
recipes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recipes)
REFERENCE = json.loads((ROOT / "tests" / "data" / "recipe_reference.json").read_text("utf-8"))["recipes"]
REL, ABS = 1e-12, 1e-15


def test_reference_covers_every_recipe():
    assert sorted(f"{name}.py" for name in recipes.RECIPES) == sorted(REFERENCE)


@pytest.mark.parametrize("script", sorted(REFERENCE))
def test_recipe_matches_reference(script, tmp_path):
    paths = recipes.run(Path(script).stem, tmp_path)
    assert [p.name for p in paths] == [ref["file"] for ref in REFERENCE[script]]
    for path, ref in zip(paths, REFERENCE[script]):
        lines = path.read_text("utf-8").split("\n")
        assert lines[-1] == ""
        meta, header, rows = lines[0], lines[1], lines[2:-1]
        assert (meta, header, len(rows)) == (ref["meta"], ref["header"], ref["row_count"])
        kept = range(0, len(rows), ref["stride"])
        assert len(kept) == len(ref["rows"])
        for index, expected in zip(kept, ref["rows"]):
            cells = rows[index].split(",")
            assert [c == "" for c in cells] == [c == "" for c in expected], (path.name, index)
            for got, want in zip(cells, expected):
                if want:
                    assert math.isclose(float(got), float(want), rel_tol=REL, abs_tol=ABS), (path.name, index, got, want)


def test_runner_rejects_an_unknown_name_and_lists_the_known_ones(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        recipes.main(["scan_equal_couplings_vs_k", "no_such_recipe", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no_such_recipe" in err
    assert all(name in err for name in recipes.RECIPES)
    assert not any(tmp_path.iterdir())


def test_runner_without_names_writes_every_recipe_as_each_alone_would(tmp_path):
    recipes.main(["--out", str(tmp_path / "all")])
    written = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert written == sorted(file_name for file_name, _ in recipes.RECIPES.values())
    assert len(set(written)) == len(recipes.RECIPES)
    for name, (file_name, _) in recipes.RECIPES.items():
        recipes.main([name, "--out", str(tmp_path / name)])
        assert [p.name for p in (tmp_path / name).iterdir()] == [file_name]
        assert (tmp_path / name / file_name).read_bytes() == (tmp_path / "all" / file_name).read_bytes(), name
