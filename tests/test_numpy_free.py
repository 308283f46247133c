"""numpy loads only where arrays are handled.

``import entscat``, the one-point functions and the ``point``, ``optimize``
and ``--version`` commands run in a fresh interpreter without importing
numpy; ``scan`` and ``verify`` import it.  Each case runs in its own
subprocess, since this test process has numpy loaded already.
"""

import subprocess
import sys

import pytest

SCALAR_CALLS = """
import math
import sys

import entscat as e

assert "numpy" not in sys.modules, "import entscat"
for model in e.ModelKind:
    for phase in (0.5, 3, 7.0, -1.0):  # canonical, int, and two folded phases
        pt = e.DimensionlessPoint(0.7, 2.0, phase, model)
        folded = e.validate(pt)
        assert 0.0 <= folded.phase < math.pi and (folded.phase_original is None) == (0 <= phase < math.pi)
        assert abs(e.amplitudes(pt).flux() - 1.0) < 1e-12
        assert e.observables_at(pt).concurrence_t is not None
    pt = e.to_dimensionless(e.PhysicalPoint(1.0, 2.0, 0.7), model)
    assert e.observables_at(e.validate(pt)).probability_t > 0.0
for omegas in ((0.5, 2.0), (2.0, 1.0), (1.0, 1e-3), (0.0, 1.0)):
    e.optimal_concurrence(*omegas)
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def imports_numpy(stderr: str) -> bool:
    """Whether a ``-X importtime`` log shows numpy imported."""
    return any(line.rsplit("|", 1)[-1].strip().split(".")[0] == "numpy" for line in stderr.splitlines())


def run(*args):
    return subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)


def test_import_and_scalar_calls_leave_numpy_unloaded():
    proc = run("-c", SCALAR_CALLS)
    assert proc.returncode == 0, proc.stderr
    assert not imports_numpy(proc.stderr)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["point", "--model", "heis", "--omegaA", "1", "--omegaB", "2", "--phase", "0.5"], "transmitted: C="),
        (["point", "--k", "0.7", "--gA", "1", "--gB", "2", "--side", "r"], "reflected: C="),
        (["point", "--omegaA", "1", "--omegaB", "2", "--sin2kd", "0.25"], "transmitted: C="),
        (["point", "--omegaA", "1", "--omegaB", "2", "--phase", "7"], "(folded from 7.0)"),
        (["optimize", "report", "--omegaA", "0.5", "--omegaB", "2"], "regime: unit"),
        (["optimize", "popt"], "probability: "),
        (["--version"], "entscat "),
    ],
)
def test_one_point_commands_leave_numpy_unloaded(argv, expected):
    proc = run("-m", "entscat", *argv)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
    assert not imports_numpy(proc.stderr)


def test_array_commands_load_numpy(tmp_path):
    out = tmp_path / "scan.csv"
    scan = run("-m", "entscat", "scan", "--axis", "omegaA=0:2:3", "--omegaB", "1", "--phase", "0.5", "--out", str(out))
    assert scan.returncode == 0, scan.stderr
    assert imports_numpy(scan.stderr) and out.exists()
    verify = run("-m", "entscat", "verify", "--samples", "5")
    assert verify.returncode == 0, verify.stderr
    assert imports_numpy(verify.stderr) and "PASS overall" in verify.stdout

