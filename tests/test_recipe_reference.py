"""Every recipe's output against a reference captured from the code before
the point resolver, the bounce sum and the concurrence were each reduced to
one implementation (``tests/data/recipe_reference.json``).

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
SCRIPTS = ROOT / "scripts"
REFERENCE = json.loads((ROOT / "tests" / "data" / "recipe_reference.json").read_text("utf-8"))["recipes"]
REL, ABS = 1e-12, 1e-15


def test_reference_covers_every_recipe():
    assert sorted(path.name for path in SCRIPTS.glob("scan_*.py")) == sorted(REFERENCE)


@pytest.mark.parametrize("script", sorted(REFERENCE))
def test_recipe_matches_reference(script, tmp_path):
    spec = importlib.util.spec_from_file_location(Path(script).stem, SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    paths = [Path(p) for p in module.run(tmp_path)]
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
