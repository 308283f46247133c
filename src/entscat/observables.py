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

import numpy as np

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
    """Full per-side observables at a parameter point."""
    amps = amplitudes(pt)
    x_t, y_t = map(abs, post_selected_state(amps, "t"))
    x_r, y_r = map(abs, post_selected_state(amps, "r"))
    c_t, a_t = concurrence_and_ratio(x_t, y_t)
    c_r, a_r = concurrence_and_ratio(x_r, y_r)
    return ObservableSet(
        concurrence_t=c_t,
        probability_t=probability(x_t, y_t),
        ratio_a_t=a_t,
        concurrence_r=c_r,
        probability_r=probability(x_r, y_r),
        ratio_a_r=a_r,
    )


def side_arrays(w_updown, w_downup):
    """Array form of :func:`concurrence_and_ratio` and :func:`probability`
    for one side, from arrays of the flip amplitudes.

    Returns (C, P, a) arrays, with C and a NaN exactly where both weights
    are 0 (0/0); a is inf where only the A-flip weight survives.
    """
    x = np.abs(w_updown)
    y = np.abs(w_downup)
    with np.errstate(divide="ignore", invalid="ignore"):
        return concurrence(np.minimum(x, y), np.maximum(x, y)), probability(x, y), y / x


def model1_probability(omega_a, omega_b, sin2_kd):
    """Scalar detection probability for the exchange model.

    Written with field operations only, so exact inputs (e.g. Fraction)
    propagate exactly:

        P = (a + b + 4ab(1+b)s) / ((1+a+b)^2 + 4ab(1+a)(1+b)s)

    with a = omega_a^2, b = omega_b^2, s = sin^2(kd).  Each product takes s
    in right after 4ab, which is finite wherever (1+a+b)^2 is, so s = 0
    zeroes it before the (1+a)(1+b) factors can overflow (inf * 0 would be
    NaN) and a tiny s keeps it finite.
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
