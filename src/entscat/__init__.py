"""Post-selected entanglement of two pinned qubits by scattering a
spin-1/2 mediator off their delta-shaped couplings in 1D.

Closed-form amplitudes for the exchange and contact coupling models, an
independent boundary-matching solver that cross-checks them, concurrence
and detection-probability observables, phase/coupling optimization, and
deterministic sweep tooling behind the ``entscat`` CLI.
"""

__version__ = "0.1.0"

from .closedform import (
    amplitudes,
    dressed_coefficients,
    site_coefficients,
    truncated_amplitudes,
)
from .core import (
    AmplitudeSet,
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    ObservableSet,
    PhysicalPoint,
    SiteCoefficients,
    UnsupportedModelError,
    ValidationError,
    to_dimensionless,
    validate,
)
from .observables import (
    model1_probability,
    model1_ratio,
    observables_at,
)
from .optimize import (
    OptimalityReport,
    Regime,
    UnitPhase,
    find_global_p_opt,
    optimal_concurrence,
    unit_concurrence_phase,
)

# The array modules import numpy; their names load them on first access
# (PEP 562), so ``import entscat`` and the scalar functions run without numpy.
# A resolved name is looked up afresh each time, never stored here.
_LAZY = {
    "matching": ("solve_amplitudes_numeric",),
    "sweep": ("Axis", "SweepGrid", "run_scan", "run_truncation", "write_csv", "write_json"),
    "verify": ("VerificationReport", "run_verification"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    import importlib

    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})

__all__ = [
    "AmplitudeSet",
    "Axis",
    "DimensionlessPoint",
    "DomainError",
    "ModelKind",
    "NumericError",
    "ObservableSet",
    "OptimalityReport",
    "PhysicalPoint",
    "Regime",
    "SiteCoefficients",
    "SweepGrid",
    "UnitPhase",
    "UnsupportedModelError",
    "ValidationError",
    "VerificationReport",
    "amplitudes",
    "dressed_coefficients",
    "find_global_p_opt",
    "model1_probability",
    "model1_ratio",
    "observables_at",
    "optimal_concurrence",
    "run_scan",
    "run_truncation",
    "run_verification",
    "site_coefficients",
    "solve_amplitudes_numeric",
    "to_dimensionless",
    "truncated_amplitudes",
    "unit_concurrence_phase",
    "validate",
    "write_csv",
    "write_json",
]
