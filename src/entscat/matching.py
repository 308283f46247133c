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
That gives (continuity + jump) x 2 sites x 3 channels = 12 equations for
the 12 unknowns (R, A+, A-, T) per channel, solved densely with partial
pivoting.  Everything is evaluated at k = 1 and d = phase, which fixes the
same dimensionless point the closed forms use.
"""

from __future__ import annotations

import numpy as np

from .core import AmplitudeSet, DimensionlessPoint, ModelKind, NumericError, point_at, validate

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


_CHANNELS = np.arange(3)
# the column of each coefficient in every channel; unknown 4c + i is
# coefficient i of channel c, in the order R, A+, A-, T
_R, _AP, _AM, _T = (4 * _CHANNELS + i for i in range(4))
# the AmplitudeSet fields in order: (T, R) of each channel in turn
_OUTGOING = np.stack([_T, _R], axis=1).ravel()


def build_matching_system(pt: DimensionlessPoint) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the continuity and derivative-jump equations at both sites,
    as the dense 12x12 system M x = b: returns (M, b).

    On a point whose fields are equal-shape numpy arrays, one system per
    sample, stacked over the leading axes: M has shape (..., 12, 12) and b
    shape (..., 12)."""
    pt = validate(pt)
    m_a, m_b = _COUPLINGS[pt.model]
    phase = np.asarray(pt.phase)
    ea = np.exp(1j * phase)[..., None]  # k = 1, d = phase
    em = np.exp(-1j * phase)[..., None]
    c = _CHANNELS
    # the jump's 2 omega M, per site [..., c, c']; an opacity past half the
    # float64 maximum gives an infinite entry where M is nonzero, never inf * 0
    with np.errstate(over="ignore"):
        coupling_a = np.asarray(pt.omega_a)[..., None, None] * (2.0 * m_a)
        coupling_b = np.asarray(pt.omega_b)[..., None, None] * (2.0 * m_b)
    matrix = np.zeros(phase.shape + (12, 12), dtype=complex)
    rhs = np.zeros(phase.shape + (12,), dtype=complex)

    # continuity at A: I + R = A+ + A-
    row = c
    matrix[..., row, _R] = 1.0
    matrix[..., row, _AP] = -1.0
    matrix[..., row, _AM] = -1.0
    rhs[..., row] = -_INCIDENT

    # jump at A: i(A+ - A-) - i(I - R) = 2 omega_a sum_c' M_A[c,c'] (A+ + A-)_c'
    row = 3 + c
    matrix[..., row, _AP] = 1j
    matrix[..., row, _AM] = -1j
    matrix[..., row, _R] = 1j
    matrix[..., row[:, None], _AP] -= coupling_a
    matrix[..., row[:, None], _AM] -= coupling_a
    rhs[..., row] = 1j * _INCIDENT

    # continuity at B: A+ e^{ikd} + A- e^{-ikd} = T
    row = 6 + c
    matrix[..., row, _AP] = ea
    matrix[..., row, _AM] = em
    matrix[..., row, _T] = -1.0

    # jump at B: iT - i(A+ e^{ikd} - A- e^{-ikd}) = 2 omega_b sum_c' M_B[c,c'] T_c'
    row = 9 + c
    matrix[..., row, _T] = 1j
    matrix[..., row, _AP] = -1j * ea
    matrix[..., row, _AM] = 1j * em
    matrix[..., row[:, None], _T] -= coupling_b

    return matrix, rhs


def solve_system(matrix: np.ndarray, rhs: np.ndarray, point: DimensionlessPoint) -> np.ndarray:
    """Solve M x = b, guarding against ill-conditioning and bad residuals.

    The guard is the 1-norm condition number ||M||_1 ||M^-1||_1, with the
    inverse from LAPACK's LU factorization.  It lies within a factor of 12
    of the 2-norm one (cond_2/12 <= cond_1 <= 12 cond_2), so it measures the
    same ill-conditioning without an SVD.  A system with cond_1 > 1e12 is
    refused: float64 cannot be trusted to resolve it.  A singular or
    non-finite matrix has cond_1 = inf and is refused too.

    A stack is solved at once, ``point`` being the stacked point it was built
    from; it raises the error that its first failing system, in row-major
    order, raises on its own, with that system's point attached."""
    shape = rhs.shape
    matrix = matrix.reshape(-1, 12, 12)
    rhs = rhs.reshape(-1, 12, 1)
    cond = np.linalg.cond(matrix, 1)
    well = cond <= 1e12  # false where cond is not finite too
    n = len(well) if well.all() else int(np.argmin(well))  # the systems before the first ill-conditioned one
    solution = np.linalg.solve(matrix[:n], rhs[:n])
    residual = np.abs(matrix[:n] @ solution - rhs[:n]).max(axis=(1, 2))
    bad = residual > 1e-10
    if bad.any():
        i = int(np.argmax(bad))
        sample = point_at(point, i)
        raise NumericError(f"matching solve residual {residual[i]:.3e} too large at {sample!r}", sample)
    if n < len(well):
        sample = point_at(point, n)
        raise NumericError(f"matching matrix ill-conditioned (cond ~ {cond[n]:.3e}) at {sample!r}", sample)
    return solution.reshape(shape)


def solve_amplitudes_numeric(pt: DimensionlessPoint) -> AmplitudeSet:
    """Solve the matching system and extract the outgoing amplitudes.

    On a point whose fields are equal-shape numpy arrays, one stacked solve
    whose fields are arrays of that shape; at a single point the fields are
    Python complex numbers."""
    pt = validate(pt)
    outgoing = solve_system(*build_matching_system(pt), pt)[..., _OUTGOING]
    if outgoing.ndim == 1:
        return AmplitudeSet(*outgoing.tolist())
    return AmplitudeSet(*np.moveaxis(outgoing, -1, 0))
