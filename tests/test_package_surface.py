"""The package surface that the benchmark and importers rely on.

``perfbench/run.py`` traces the functions named in its ``LAYER_FUNCTIONS``
by module and name; the names are read from that file with ``ast``, without
importing or running it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import entscat

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def assigned(name: str):
    """The literal value that ``perfbench/run.py`` assigns to ``name``."""
    for node in ast.parse(RUN.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {RUN}")


def test_layer_functions_are_public_functions_of_their_modules():
    layers = assigned("LAYERS")
    for layer in layers:
        importlib.import_module(f"entscat.{layer}")
    for qualified in assigned("LAYER_FUNCTIONS"):
        layer, name = qualified.split(".")
        assert layer in layers, qualified
        module = importlib.import_module(f"entscat.{layer}")
        obj = getattr(module, name, None)
        assert not name.startswith("_"), qualified
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, qualified


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(entscat.__file__).read_text("utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(entscat.__all__) == len(set(entscat.__all__))
    assert set(entscat.__all__) == set(imported)
