"""Parameter space, spin channels, and shared result containers.

A spin-1/2 mediator X is scattered off two qubits A and B pinned at
x = -d/2 and x = +d/2, each acting through a delta-shaped spin-dependent
potential.  All physics downstream is a function of three dimensionless
numbers:

    omega_a = m g_a / (hbar^2 k)    opacity of site A
    omega_b = m g_b / (hbar^2 k)    opacity of site B
    phase   = k d                   propagation phase across the gap

plus the choice of coupling model.  The phase enters every amplitude only
through exp(2i*phase), so observables are periodic in ``phase`` with period
pi; :func:`validate` folds the phase into [0, pi) once so that everything
downstream sees a canonical value.

The physical-unit layer speaks the conventional units g in [hbar^2 pi/(m d)]
and k in [pi/d], in which omega = g/k and phase = pi*k*d;
:func:`resolve_point` maps the command line's parameter names to a point.

numpy is not imported here at module level: every function takes Python
numbers without loading it, and the array forms import it where they need
it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import sys
from dataclasses import dataclass, make_dataclass
from enum import Enum
from typing import NamedTuple


class DomainError(ValueError):
    """An input parameter lies outside its physical domain."""


class ValidationError(DomainError):
    """A parameter failed one of the domain rules of :func:`check_rules`."""


class UnsupportedModelError(ValueError):
    """The requested operation is not defined for this coupling model."""


class NumericError(RuntimeError):
    """A numeric solve failed; carries the offending parameter point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ModelKind(Enum):
    """Coupling model between the mediator and each qubit.

    SPIN_EXCHANGE: pure exchange coupling g (s+ s- + s- s+); the mediator
    does not feel a site whose spin matches its own.
    HEISENBERG_CONTACT: full sigma.sigma contact coupling; the mediator
    scatters off a site in either relative spin state.
    """

    SPIN_EXCHANGE = "xy"
    HEISENBERG_CONTACT = "heis"


@dataclass(frozen=True, slots=True)
class DimensionlessPoint:
    """A complete parameter point: site opacities, gap phase, model.

    ``phase_original`` is populated by :func:`validate` when the phase had
    to be folded into [0, pi); it preserves the caller's raw value.

    A stacked point has a numpy array in some field, the fields broadcasting
    together; cell i, in row-major order, is :func:`point_at` (pt, i).  Every
    function that takes a point takes a stack and answers cell by cell, in
    arrays; where cells fail, it raises what the first of them raises alone.
    numpy scalars are points, not stacks.
    """

    omega_a: float
    omega_b: float
    phase: float
    model: ModelKind
    phase_original: float | None = None


@dataclass(frozen=True)
class PhysicalPoint:
    """Couplings and momentum in paper-style units: g in [hbar^2 pi/(m d)],
    k in [pi/d], separation d as a multiple of the unit length."""

    g_a: float
    g_b: float
    k: float
    d: float = 1.0


def _dataclass_fields(cls):
    """Give the NamedTuple record ``cls`` the fields table that ``dataclasses.fields`` and ``dataclasses.replace``
    read, so code written when three of the records were dataclasses keeps working."""
    doc = {"__doc__": cls.__doc__}  # spares make_dataclass formatting a signature as the docstring
    shadow = make_dataclass(cls.__name__, cls.__annotations__.items(), namespace=doc, init=False, repr=False, eq=False)
    cls.__dataclass_fields__ = shadow.__dataclass_fields__
    return cls


@_dataclass_fields
class SiteCoefficients(NamedTuple):
    """Single-scatterer amplitudes.

    t, r, f: transmission, reflection, and spin-flip amplitude when the
    mediator spin differs from the site spin (the flip amplitude is the
    same in transmission and reflection).  t_same, r_same: transmission and
    reflection when the spins match; the exchange model is transparent
    there (1, 0).
    """

    t: complex
    r: complex
    f: complex
    t_same: complex
    r_same: complex


@_dataclass_fields
class AmplitudeSet(NamedTuple):
    """Two-site transmission/reflection amplitudes for the three open
    channels, with unit incident normalization.  All channels share the
    incident momentum, so the fluxes |.|^2 sum to exactly 1.

    The fields are complex numbers at one point, or complex numpy arrays
    that broadcast together for a stack or grid of points."""

    t_noflip: complex
    r_noflip: complex
    t_flipb: complex
    r_flipb: complex
    t_flipa: complex
    r_flipa: complex

    def flux(self):
        return sum(abs(z) ** 2 for z in self)


@_dataclass_fields
class ObservableSet(NamedTuple):
    """Concurrence, amplitude ratio, and detection probability per side.

    Concurrence and ratio are ``None`` exactly when both flip amplitudes of
    that side are 0, never a silent 0.  The probability is their squared
    norm and can underflow to 0.0 while C is still defined (at opacities
    near 1e-300, P = 0.0 with C = 1.0).  The ratio may be ``inf`` when only
    the A-flip branch survives.

    On a stacked point every field is an array over the cells, and C and a
    are NaN where a point's would be None.
    """

    concurrence_t: float | None
    probability_t: float
    ratio_a_t: float | None
    concurrence_r: float | None
    probability_r: float
    ratio_a_r: float | None


# Each sweep column (C, P and a of each side, as files and the command line name it) -> its ObservableSet field.
COLUMNS = {"C_t": "concurrence_t", "P_t": "probability_t", "C_r": "concurrence_r",
           "P_r": "probability_r", "a_t": "ratio_a_t", "a_r": "ratio_a_r"}
DEFAULT_COLUMNS = ("C_t", "P_t", "C_r", "P_r")


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array.  numpy is imported only by the array
    functions, so while it is not loaded no input can be one."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _float(name: str, x):
    """``x`` as a Python float, an array as a float64 array (itself if it is one); ValidationError naming ``name``
    if float64 cannot hold it, and TypeError naming it for a numpy complex array or scalar."""
    np = sys.modules.get("numpy")  # loaded wherever x is a numpy array or scalar
    with contextlib.suppress(OverflowError):
        if np is None or not isinstance(x, (np.ndarray, np.complexfloating)):
            if abs(y := float(x)) < math.inf or not abs(x) < math.inf:  # some types round a finite x to inf
                return y
        elif x.dtype == float:
            return x
        elif x.dtype.kind == "c":
            raise TypeError(f"{name} must be real, got dtype {x.dtype}")
        else:
            with np.errstate(over="ignore"):
                y = x.astype(float)
            if ((abs(y) < math.inf) | ~(abs(x) < math.inf)).all():  # no cell that float64 rounds to inf
                return y
    raise ValidationError(f"{name} must lie within the float64 range, |{name}| < 1.8e308")


def _is_stack(**fields) -> bool:
    """Whether any of ``fields`` is a numpy array; DomainError, naming their
    shapes, where the arrays do not broadcast together."""
    shapes = {name: x.shape for name, x in fields.items() if _is_array(x)}
    if len(shapes) > 1:
        try:
            sys.modules["numpy"].broadcast_shapes(*shapes.values())  # loaded, as an array came in
        except ValueError:
            raise DomainError(f"stacked fields do not broadcast together: shapes {shapes}") from None
    return bool(shapes)


def opacity_ok(omega):
    """Whether ``omega`` is a finite, non-negative opacity, the domain of
    every opacity.  Elementwise on numpy arrays."""
    return (omega >= 0.0) & (omega < math.inf)


_OPACITY = "must be finite and non-negative"


def check_rules(*rules):
    """Raise ValidationError for the first failing rule, each a (name, value,
    ok, requirement) with ``ok`` the verdict on ``value``.  Elementwise: where
    a verdict is a numpy array, the error is the one that the first failing
    cell, in row-major order, raises as a point of its own.  A numpy complex
    value is a TypeError naming it before any rule, whatever its sign: numpy
    orders complex numbers by their real part, so a rule would pass 1+1j."""
    np = sys.modules.get("numpy")  # loaded wherever a value is a numpy array or scalar
    for name, value, _, _ in rules if np else ():
        if isinstance(value, (np.ndarray, np.complexfloating)) and value.dtype.kind == "c":
            raise TypeError(f"{name} must be real, got dtype {value.dtype}")
    for i, (name, value, ok, requirement) in enumerate(rules):
        if ok is False:
            raise ValidationError(f"{name} {requirement}, got {value!r}")
        if ok is not True:  # numpy verdicts from here on: find the first failing cell
            names, values, oks, requirements = zip(*rules[i:])
            bad = ~functools.reduce(operator.and_, oks)
            if bad.any():
                bad, *arrays = sys.modules["numpy"].broadcast_arrays(bad, *values, *oks)  # loaded: numpy made the verdicts
                index = int(bad.argmax())
                cell = [a.item(index) for a in arrays]  # item, not [index].item(): an int beyond int64 is an object
                check_rules(*zip(names, cell[: len(oks)], cell[len(oks):], requirements))
            return


def check_point(pt: DimensionlessPoint, *rules) -> None:
    """:func:`check_rules` on ``rules``, then on the domain of ``pt``: each
    opacity finite and non-negative, the phase finite."""
    check_rules(
        *rules,
        ("omega_a", pt.omega_a, opacity_ok(pt.omega_a), _OPACITY),
        ("omega_b", pt.omega_b, opacity_ok(pt.omega_b), _OPACITY),
        ("phase", pt.phase, abs(pt.phase) < math.inf, "must be finite"),
    )


def check_single(name: str, value, what: str) -> None:
    """DomainError naming ``name`` and the shape if ``value`` is an array of one or more dimensions."""
    if _is_array(value) and value.ndim:
        raise DomainError(f"{name} must be one {what}, got an array of shape {value.shape}")


def check_opacity(name: str, omega: float) -> float:
    """``omega`` as a Python float; ValidationError unless it is an opacity float64 holds."""
    if type(omega) is float and 0.0 <= omega < math.inf:
        return omega
    check_single(name, omega, "opacity")
    check_rules((name, omega, opacity_ok(omega), _OPACITY))
    return _float(name, omega[()] if _is_array(omega) else omega)  # a 0-d array as its one numpy scalar


def check_count(name: str, value, least: int) -> int:
    """``value`` as a Python int, or ValidationError unless it is an integer
    >= ``least``; numpy integers count, as :func:`operator.index` takes them,
    and bools do not; the error shows a numpy integer as a Python int."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool) and (value := operator.index(value)) >= least:
            return value
    raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def validate(pt: DimensionlessPoint) -> DimensionlessPoint:
    """The one gate for a point: check domains, convert the fields and fold
    the phase into [0, pi).  Raises ValidationError for a negative or
    non-finite value and for one float64 cannot hold; an int or Fraction is
    taken at its nearest float.  A point comes back with Python float fields,
    the same object if it had them and was canonical; a stack (see
    :func:`_is_stack`) is checked and folded cell by cell, its arrays
    converted to float64 (a float64 one kept as it is), its raw phases kept
    in ``phase_original`` and its phase made an array, so the phase's type
    tells the two apart.  A numpy complex value is a TypeError."""
    omega_a, omega_b, phase = pt.omega_a, pt.omega_b, pt.phase
    floats = type(omega_a) is float and type(omega_b) is float and type(phase) is float
    if floats and 0.0 <= phase < math.pi and 0.0 <= omega_a < math.inf and 0.0 <= omega_b < math.inf:
        return pt
    stack = not floats and _is_stack(omega_a=omega_a, omega_b=omega_b, phase=phase)
    check_point(pt)  # before converting, so that a non-number raises TypeError from a comparison
    omega_a, omega_b, phase = _float("omega_a", omega_a), _float("omega_b", omega_b), _float("phase", phase)
    if not stack and 0.0 <= phase < math.pi:
        return DimensionlessPoint(omega_a, omega_b, phase, pt.model, pt.phase_original)
    original = phase if pt.phase_original is None else pt.phase_original
    folded = phase % math.pi
    folded = folded - math.pi * (folded >= math.pi)  # a tiny negative phase rounds up to pi
    folded = sys.modules["numpy"].asarray(folded) if stack else folded
    return DimensionlessPoint(omega_a, omega_b, folded, pt.model, original)


def point_at(pt: DimensionlessPoint, index: int) -> DimensionlessPoint:
    """Sample ``index``, in row-major order, of a point whose fields are
    numpy arrays that broadcast together, as the validated point it would be
    on its own (from the raw phase where :func:`validate` kept one)."""
    import numpy as np

    phase = pt.phase if pt.phase_original is None else pt.phase_original
    fields = np.broadcast_arrays(pt.omega_a, pt.omega_b, phase)
    return validate(DimensionlessPoint(*(x.flat[index].item() for x in fields), pt.model))


def to_dimensionless(p: PhysicalPoint, model: ModelKind) -> DimensionlessPoint:
    """Convert paper-unit couplings and momentum to the dimensionless point.

    In these units omega = g/k and phase = pi*k*d.  Raises ValidationError
    when k or d is not positive and finite, a coupling is negative or not
    finite, or a value or the conversion overflows float64.  Elementwise on numpy arrays."""
    rules = [(n, x, (x > 0.0) & (x < math.inf), "must be positive and finite") for n, x in (("k", p.k), ("d", p.d))]
    rules += [(n, g, opacity_ok(g), "must be a finite non-negative coupling") for n, g in (("g_a", p.g_a), ("g_b", p.g_b))]
    fields = {name: value for name, value, _, _ in rules}
    _is_stack(**fields)  # arrays that do not broadcast must not reach the division
    k, d, g_a, g_b = (_float(name, x) for name, x in fields.items())
    if not _is_array(k):  # nor a scalar k that is 0 in float64
        check_rules(("k", k, 0.0 < k < math.inf, rules[0][3]))
    np = sys.modules.get("numpy")  # only numpy inputs warn where they overflow, and they load it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore") if np else contextlib.nullcontext():
        pt = DimensionlessPoint(g_a / k, g_b / k, math.pi * k * d, model)
    check_point(pt, *rules)
    return pt


PHYSICAL_NAMES = ("k", "gA", "gB", "d")
DIMENSIONLESS_NAMES = ("omegaA", "omegaB", "phase", "sin2kd")


def _phase_of_sin2(s):
    """asin(sqrt(s)) with :mod:`math`, value by value on numpy arrays; NaN where undefined."""
    if _is_array(s):
        import numpy as np

        return np.reshape([_phase_of_sin2(v) for v in s.ravel().tolist()], s.shape)
    try:
        return math.asin(math.sqrt(s))
    except ValueError:  # s outside [0, 1], which resolve_point rejects
        return math.nan


def resolve_point(params: dict[str, float], model: ModelKind) -> DimensionlessPoint:
    """The point named by ``params``, in one unit system: physical k, gA, gB
    and optionally d, or dimensionless omegaA, omegaB and one of phase or
    sin2kd; the phase is not folded.  Raises DomainError for a name outside
    these eight, a mix, a missing name, a bad value or arrays that do not
    broadcast together.  Elementwise on numpy arrays: a bad value raises the
    error that the first bad cell, in row-major order, raises on its own."""
    for name in params:
        if name not in PHYSICAL_NAMES + DIMENSIONLESS_NAMES:
            raise DomainError(f"unknown parameter {name!r}")
    names = set(params)
    physical = names & set(PHYSICAL_NAMES)
    dimensionless = names & set(DIMENSIONLESS_NAMES)
    if physical and dimensionless:
        raise DomainError(f"mixed unit systems: {sorted(physical)} with {sorted(dimensionless)}")
    if physical:
        missing = {"k", "gA", "gB"} - names
        if missing:
            raise DomainError(f"physical point needs k, gA, gB; missing {sorted(missing)}")
        p = PhysicalPoint(params["gA"], params["gB"], params["k"], params.get("d", 1.0))
        return to_dimensionless(p, model)
    missing = {"omegaA", "omegaB"} - names
    if missing:
        raise DomainError(f"dimensionless point needs omegaA, omegaB; missing {sorted(missing)}")
    if ("phase" in names) == ("sin2kd" in names):
        raise DomainError("give exactly one of phase or sin2kd")
    _is_stack(**{name: params[name] for name in DIMENSIONLESS_NAMES if name in params})  # before the rules broadcast them
    s = params.get("sin2kd")
    if s is None:
        phase, rules = params["phase"], ()
    else:
        phase, rules = _phase_of_sin2(s), (("sin2kd", s, (s >= 0.0) & (s <= 1.0), "must lie in [0, 1]"),)
    pt = DimensionlessPoint(params["omegaA"], params["omegaB"], phase, model)
    check_point(pt, *rules)
    return pt
