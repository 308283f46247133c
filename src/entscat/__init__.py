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
from .matching import (
    build_matching_system,
    solve_amplitudes_numeric,
    solve_system,
)
from .observables import (
    concurrence_and_ratio,
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
    probability_at_resonance,
    reference_optimum_omega_b,
    resonance_curve_probability,
    unit_concurrence_phase,
)
from .sweep import Axis, SweepGrid, run_scan, run_truncation, write_csv, write_json
from .verify import VerificationReport, run_verification

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
    "build_matching_system",
    "concurrence_and_ratio",
    "dressed_coefficients",
    "find_global_p_opt",
    "model1_probability",
    "model1_ratio",
    "observables_at",
    "optimal_concurrence",
    "probability_at_resonance",
    "reference_optimum_omega_b",
    "resonance_curve_probability",
    "run_scan",
    "run_truncation",
    "run_verification",
    "site_coefficients",
    "solve_amplitudes_numeric",
    "solve_system",
    "to_dimensionless",
    "truncated_amplitudes",
    "unit_concurrence_phase",
    "validate",
    "write_csv",
    "write_json",
]
