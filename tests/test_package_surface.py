"""The package surface that the benchmark and importers rely on.

``perfbench/run.py`` traces the functions named in its ``LAYER_FUNCTIONS``
by module and name; the names are read from that file with ``ast``, without
importing or running it.
"""

import ast
import importlib
import inspect
import subprocess
import sys
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
    # each name is exported once: imported eagerly by __init__ or listed in
    # its lazy table, whose modules load numpy on first access
    tree = ast.parse(Path(entscat.__file__).read_text("utf-8"))
    eager = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    lazy = [name for names in entscat._LAZY.values() for name in names]
    exported = eager + lazy
    assert len(exported) == len(set(exported))
    assert len(entscat.__all__) == len(set(entscat.__all__))
    assert set(entscat.__all__) == set(exported)
    assert set(entscat.__all__) <= set(dir(entscat))


RESOLVE = """
import sys, entscat, entscat.cli
for name in sys.argv[1:]:
    obj = getattr(entscat, name)
    module = entscat._LAZY_NAMES.get(name)
    if module is not None:  # looked up on its module afresh, never bound in the package
        assert name not in vars(entscat) and obj is getattr(sys.modules["entscat." + module], name), name
    elif name not in entscat.__all__:  # a layer
        assert obj is sys.modules["entscat." + name], name
"""


def test_every_name_and_layer_resolves_in_a_fresh_interpreter():
    # the imports and the getattr per layer of perfbench/run.py, before
    # anything has imported the lazy modules
    names = [*entscat.__all__, *assigned("LAYERS")]
    proc = subprocess.run([sys.executable, "-c", RESOLVE, *names], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_bare_assert_in_the_package():
    # failures are typed errors carrying the point, never a bare assert
    for path in sorted(Path(entscat.__file__).parent.glob("*.py")):
        asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text("utf-8"))) if isinstance(node, ast.Assert)]
        assert not asserts, f"assert statements in {path.name} at lines {asserts}"
