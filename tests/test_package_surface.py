"""The package surface that the benchmark and importers rely on.

``perfbench/run.py`` traces the functions named in its ``LAYER_FUNCTIONS``
by module and name, and the workloads read names off the package; both are
read from the benchmark's files with ``ast``, without importing or running them.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import entscat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = PERFBENCH / "run.py"


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


def package_reads():
    """Every attribute the benchmark reads off the package: ``e.X``,
    ``entscat.X`` and ``self.entscat.X`` in ``perfbench/*.py``."""

    def is_package(node):
        if isinstance(node, ast.Name):
            return node.id in ("e", "entscat")
        return isinstance(node, ast.Attribute) and node.attr == "entscat" and getattr(node.value, "id", None) == "self"

    return sorted({node.attr for path in PERFBENCH.glob("*.py") for node in ast.walk(ast.parse(path.read_text("utf-8")))
                   if isinstance(node, ast.Attribute) and is_package(node.value)})


def test_every_name_the_benchmark_reads_resolves_in_a_fresh_interpreter():
    # the imports of perfbench/run.py's import_entscat, then each read
    names = package_reads()
    assert {"ModelKind", "cli", "observables_at", "run_verification", "__version__"} <= set(names)
    script = "import sys, entscat, entscat.cli\nfor name in sys.argv[1:]:\n    getattr(entscat, name)"
    proc = subprocess.run([sys.executable, "-c", script, *names], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_bare_assert_in_the_package():
    # failures are typed errors carrying the point, never a bare assert
    for path in sorted(Path(entscat.__file__).parent.glob("*.py")):
        asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text("utf-8"))) if isinstance(node, ast.Assert)]
        assert not asserts, f"assert statements in {path.name} at lines {asserts}"
