"""Boundary-matching linear system for the coupled three-channel problem.

Independent ground truth for the closed forms in :mod:`entscat.closedform`:
nothing here is imported from that module.  The scattering eigenproblem is
written down directly.  Per channel the wave function is piecewise

    left   (x < -d/2):  I exp(ik(x+d/2)) + R exp(-ik(x+d/2))
    middle:             A+ exp(ik(x+d/2)) + A- exp(-ik(x+d/2))
    right  (x > +d/2):  T exp(ik(x-d/2))

with incident amplitudes I = (1, 0, 0) in the channel order
(no-flip, flip-B, flip-A).  At each site the wave functions are continuous
and their derivatives jump by

    u'(x0+) - u'(x0-) = 2 k omega M u(x0)

where M is the 3x3 channel-coupling matrix of that site's spin operator.
Continuity fixes R = A+ + A- - I at A and T = A+ E + A- / E at B, with
E = exp(ikd); put into the jumps, they leave 2 sites x 3 channels = 6
equations for the 6 unknowns, the (A+, A-) of each channel:

    at A:  2i A+ - 2 omega_a M_A (A+ + A-) = 2i I
    at B:  2i A- / E - 2 omega_b M_B (A+ E + A- / E) = 0

solved densely with partial pivoting; R and T follow from the solution.
Everything is evaluated at k = 1 and d = phase, which fixes the same
dimensionless point the closed forms use.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .core import AmplitudeSet, DimensionlessPoint, ModelKind, NumericError, UnsupportedModelError, point_at, validate

# Exchange coupling swaps the mediator spin with the site spin, connecting
# the no-flip channel to the channel where that site is flipped.
_EXCHANGE_A = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
_EXCHANGE_B = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)

# sigma.sigma on the mediator-site pair equals 2*SWAP - 1: eigenvalue +1 on
# the triplet (aligned spins), -3 on the singlet.  In channel space that is
# a diagonal -1 for anti-aligned, +1 for aligned, 2 on the exchange links.
_CONTACT_A = np.array([[-1, 0, 2], [0, 1, 0], [2, 0, -1]], dtype=float)
_CONTACT_B = np.array([[-1, 2, 0], [2, -1, 0], [0, 0, 1]], dtype=float)

_COUPLINGS = {
    ModelKind.SPIN_EXCHANGE: (_EXCHANGE_A, _EXCHANGE_B),
    ModelKind.HEISENBERG_CONTACT: (_CONTACT_A, _CONTACT_B),
}

_INCIDENT = np.array([1.0, 0.0, 0.0])


def build_matching_system(pt: DimensionlessPoint) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the derivative-jump equations at both sites, with R and T
    set by continuity, as the dense 6x6 system M x = b in x = (A+, A-), the
    three channels of A+ and then those of A-: returns (M, b).  Each row of
    [M | b] is scaled by the power of two 2^-e where max|row of M| = m 2^e,
    m in [1/2, 1), which is exact short of underflow.

    On a stacked point, one system per cell, stacked over the leading axes:
    M has shape (..., 6, 6) and b shape (..., 6)."""
    pt = validate(pt)
    if not isinstance(pt.model, ModelKind):
        raise UnsupportedModelError(f"unknown model {pt.model!r}")
    m_a, m_b = _COUPLINGS[pt.model]
    omega_a, omega_b, phase = np.broadcast_arrays(pt.omega_a, pt.omega_b, pt.phase)
    ea, em = np.exp(1j * phase)[..., None, None], np.exp(-1j * phase)[..., None, None]
    omega_a, omega_b = omega_a[..., None, None], omega_b[..., None, None]
    # the jump's 2 omega M per site.  2M holds only 0 and powers of two, so
    # scaling omega E by it is exact; an opacity near the float64 maximum
    # overflows an entry to infinity, but never to inf * 0 = NaN, as
    # (2 omega M) E would where E = 1 + 0j
    with np.errstate(over="ignore"):
        coupling_a = omega_a * (2.0 * m_a)
        coupling_b_ea = (omega_b * ea) * (2.0 * m_b)
        coupling_b_em = (omega_b * em) * (2.0 * m_b)
    jump = 2j * np.eye(3)
    system = np.zeros(phase.shape + (6, 7), dtype=complex)  # [M | b]
    # at A: 2i A+ - 2 omega_a M_A (A+ + A-) = 2i I
    system[..., :3, :3] = jump - coupling_a
    system[..., :3, 3:6] = -coupling_a
    system[..., :3, 6] = 2j * _INCIDENT
    # at B: 2i A- / E - 2 omega_b M_B (A+ E + A- / E) = 0
    system[..., 3:, :3] = -coupling_b_ea
    system[..., 3:, 3:6] = jump * em - coupling_b_em
    _, exponent = np.frexp(_fold(np.maximum, np.abs(system[..., :6]))[..., None])
    np.ldexp(system.view(float), -exponent, out=system.view(float))  # ldexp has no complex loop
    return system[..., :6], system[..., 6]


def _fold(ufunc, x, axis=-1):
    """``ufunc.reduce(x, axis)`` over a short ``axis`` (-1 or -2) as elementwise calls in index order,
    numpy's own for a sum along -2 and a maximum: its bits, NaN included, without its fixed cost."""
    tail = (slice(None),) * (-1 - axis)
    out = ufunc(x[(..., 0, *tail)], x[(..., 1, *tail)])
    for i in range(2, x.shape[axis]):
        ufunc(out, x[(..., i, *tail)], out=out)
    return out


def solve_system(matrix: np.ndarray, rhs: np.ndarray, point: DimensionlessPoint) -> np.ndarray:
    """Solve M x = b, guarding against ill-conditioning and bad residuals.

    The guard is the 1-norm condition number ||M||_1 ||M^-1||_1, from one LU
    factorization of M against [b | I] that gives both x and M^-1.  For an
    n x n system (n = 6 for the matching system) it lies within n times the
    2-norm one (cond_2/n <= cond_1 <= n cond_2), so it measures the same
    ill-conditioning without an SVD.  A system with cond_1 > 1e12 is
    refused: float64 cannot be trusted to resolve it.  A singular or
    non-finite matrix has cond_1 = inf and is refused too.

    A stack is solved at once, ``point`` being the stacked point it was built
    from; it raises the error that its first failing system, in row-major
    order, raises on its own, with that system's point attached."""
    shape = rhs.shape
    size = matrix.shape[-1]
    matrix = matrix.reshape(-1, size, size)
    rhs = rhs.reshape(-1, size, 1)
    rhs_eye = np.empty(matrix.shape[:-1] + (size + 1,), dtype=complex)  # [b | I]
    rhs_eye[..., :1], rhs_eye[..., 1:] = rhs, np.eye(size)
    with np.errstate(all="ignore"):  # as np.linalg.cond calls it: NaN, not LinAlgError, where M cannot be factored
        both = _umath_linalg.solve(matrix, rhs_eye, signature="DD->D")
        del rhs_eye  # freed before the norms' temporaries: a lower heap top, so fewer trims and page faults
        # ||M||_1 ||M^-1||_1, each the largest column sum of |entries|
        cond = _fold(np.maximum, _fold(np.add, np.abs(matrix), -2))
        cond *= _fold(np.maximum, _fold(np.add, np.abs(both), -2)[..., 1:])
    if np.isnan(cond).any():
        cond[np.isnan(cond) & ~np.isnan(matrix).any(axis=(1, 2))] = np.inf  # np.linalg.cond's rule for NaN
    n = int(np.argmin(np.append(cond <= 1e12, False)))  # the systems before the first refused one
    residual = _fold(np.maximum, np.abs(matrix[:n] @ both[:n, :, :1] - rhs[:n])[..., 0])
    bad = np.append(residual > 1e-10, n < len(cond))  # bad residuals, then the refusal: the first failing system
    if bad.any():
        i = int(np.argmax(bad))
        sample = point_at(point, i)
        what = f"solve residual {residual[i]:.3e} too large" if i < n else f"matrix ill-conditioned (cond ~ {cond[n]:.3e})"
        raise NumericError(f"matching {what} at {sample!r}", sample)
    return both[..., 0].reshape(shape)  # both is [x | M^-1]


def solve_amplitudes_numeric(pt: DimensionlessPoint) -> AmplitudeSet:
    """Solve the matching system for (A+, A-) and set the outgoing
    amplitudes by continuity: T = A+ E + A- / E and R = A+ + A- - I.

    On a stacked point, one stacked solve whose fields are arrays of the
    stack's shape; at a single point the fields are Python complex numbers."""
    pt = validate(pt)
    solution = solve_system(*build_matching_system(pt), pt)
    a_plus, a_minus = solution[..., :3], solution[..., 3:]
    ea, em = np.exp(1j * pt.phase)[..., None], np.exp(-1j * pt.phase)[..., None]
    # the AmplitudeSet fields in order: (T, R) of each channel in turn
    outgoing = np.stack([a_plus * ea + a_minus * em, a_plus + a_minus - _INCIDENT], axis=-1).reshape(solution.shape)
    if type(pt.phase) is float:  # a point, not a stack, as validate returns it
        return AmplitudeSet(*outgoing.tolist())
    return AmplitudeSet(*np.moveaxis(outgoing, -1, 0))
