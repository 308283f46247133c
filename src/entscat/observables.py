"""From amplitudes to physics: concurrence, weight ratio, probability.

Detecting the mediator spin-flipped on one side projects the qubit pair
onto an (unnormalized) two-term state

    w_updown |up down> + w_downup |down up>

whose concurrence is 2|w_updown w_downup| / (|w_updown|^2 + |w_downup|^2)
and whose squared norm is the detection probability for that side.  For
the exchange model both sides give identical concurrence and probability;
for the contact model they differ.
"""

from __future__ import annotations

import math

from .closedform import amplitudes
from .core import AmplitudeSet, DimensionlessPoint, DomainError, ObservableSet


def concurrence(small, large):
    """Concurrence 2m/(1 + m^2), m = small/large, of a two-term state whose
    weights have magnitudes ``small`` <= ``large`` (the symmetric form
    2|xy|/(|x|^2 + |y|^2) divided through by the larger weight squared, so
    nothing underflows).  Elementwise on numpy arrays."""
    m = small / large
    return 2.0 * m / (1.0 + m * m)


# post_selected_state, concurrence_and_ratio and probability stay public:
# the benchmark traces them by name.
def post_selected_state(amps: AmplitudeSet, side: str) -> tuple[complex, complex]:
    """The weights (w_updown, w_downup) of the state left by detecting the
    flipped mediator on ``side``, "t" (transmitted) or "r" (reflected): the
    one place that maps a side to its flip amplitudes.  Arrays of weights
    from an AmplitudeSet of arrays."""
    if side == "t":
        return amps.t_flipb, amps.t_flipa
    if side == "r":
        return amps.r_flipb, amps.r_flipa
    raise DomainError(f"side must be 't' or 'r', got {side!r}")


def concurrence_and_ratio(x: float, y: float) -> tuple[float | None, float | None]:
    """Concurrence C and weight ratio a = y/x of a side whose weights have
    magnitudes x = |w_updown| and y = |w_downup|.

    C comes from :func:`concurrence`, which needs no infinity arithmetic
    when one weight vanishes (a is reported as inf then).  Both weights
    zero means nothing is ever detected; that returns (None, None) rather
    than a misleading 0.
    """
    if x == 0.0 and y == 0.0:
        return None, None
    c = concurrence(x, y) if x <= y else concurrence(y, x)
    return c, math.inf if x == 0.0 else y / x


def probability(x, y):
    """Detection probability x^2 + y^2 of a side whose weights have
    magnitudes x and y.  The two sides share the total flip flux
    (P_t + P_r <= 1); the exchange model splits it evenly, capping each
    side at 1/2.  Elementwise on numpy arrays."""
    return x * x + y * y


def observables_at(pt: DimensionlessPoint) -> ObservableSet:
    """Full per-side observables at a parameter point, or on a stacked point
    (see :class:`ObservableSet`)."""
    return _observables(amplitudes(pt))


def _observables(amps: AmplitudeSet) -> ObservableSet:
    """The observables of ``amps``, side by side."""
    return ObservableSet(*_side(amps, "t"), *_side(amps, "r"))


def _side(amps: AmplitudeSet, side: str):
    """(C, P, a) of ``side``: C and a by :func:`concurrence_and_ratio` from
    complex amplitudes, and elementwise, with NaN for None, from arrays."""
    w_updown, w_downup = post_selected_state(amps, side)
    x, y = abs(w_updown), abs(w_downup)
    if type(x) is float:  # a point; a stack, even of one cell, gives numpy values
        c, a = concurrence_and_ratio(x, y)
    else:
        import numpy as np

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c, a = concurrence(np.minimum(x, y), np.maximum(x, y)), y / x
    return c, probability(x, y), a


def model1_probability(omega_a, omega_b, sin2_kd):
    """Scalar detection probability for the exchange model.

    Written with field operations only, so exact inputs (e.g. Fraction)
    propagate exactly:

        P = (a + b + 4ab(1+b)s) / ((1+a+b)^2 + 4ab(1+a)(1+b)s)

    with a = omega_a^2, b = omega_b^2, s = sin^2(kd).  Each product takes s
    in right after 4ab, which is finite wherever (1+a+b)^2 is, so s = 0
    zeroes it before the (1+a)(1+b) factors can overflow (inf * 0 would be
    NaN) and a tiny s keeps it finite.

    P is largest at the resonance s = 1; there its supremum over the quadrant,
    1/2, is approached along omega_a = 1/sqrt(2) as omega_b -> inf, never attained.
    """
    a = omega_a * omega_a
    b = omega_b * omega_b
    num = a + b + 4 * a * b * sin2_kd * (1 + b)
    den = (1 + a + b) ** 2 + 4 * a * b * sin2_kd * (1 + a) * (1 + b)
    return num / den


def model1_ratio(omega_a, omega_b, sin2_kd):
    """Scalar weight ratio for the exchange model:

        a = (omega_a/omega_b) sqrt(1 + 4 omega_b^2 (1 + omega_b^2) s),

    with the root taken as hypot(1, 2 omega_b sqrt((1 + omega_b^2) s)) so
    that it stays finite up to omega_b of about 1e154, past every opacity
    whose probability is finite.  Returns inf when omega_b = 0 with
    omega_a > 0 (only the A flip survives) and nan for the doubly
    degenerate omega_a = omega_b = 0.
    """
    if omega_b == 0:
        return math.inf if omega_a > 0 else math.nan
    return omega_a / omega_b * math.hypot(1, 2 * omega_b * math.sqrt((1 + omega_b * omega_b) * sin2_kd))
