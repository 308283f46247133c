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

import cmath
from dataclasses import dataclass

import numpy as np

from .core import AmplitudeSet, DimensionlessPoint, ModelKind, NumericError, validate

COEFFICIENT_NAMES = ("R", "A+", "A-", "T")

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

_INCIDENT = (1.0, 0.0, 0.0)


@dataclass
class MatchingSystem:
    """Dense 12x12 system M x = b; unknown x[4c + i] is coefficient
    COEFFICIENT_NAMES[i] of channel c.  Treat the arrays as read-only."""

    matrix: np.ndarray
    rhs: np.ndarray


def _col(channel_index: int, coefficient: str) -> int:
    return 4 * channel_index + COEFFICIENT_NAMES.index(coefficient)


def build_matching_system(pt: DimensionlessPoint) -> MatchingSystem:
    """Assemble the continuity and derivative-jump equations at both sites."""
    pt = validate(pt)
    m_a, m_b = _COUPLINGS[pt.model]
    ea = cmath.exp(1j * pt.phase)   # k = 1, d = phase
    em = cmath.exp(-1j * pt.phase)

    matrix = np.zeros((12, 12), dtype=complex)
    rhs = np.zeros(12, dtype=complex)

    for c in range(3):
        # continuity at A: I + R = A+ + A-
        row = c
        matrix[row, _col(c, "R")] = 1.0
        matrix[row, _col(c, "A+")] = -1.0
        matrix[row, _col(c, "A-")] = -1.0
        rhs[row] = -_INCIDENT[c]

        # jump at A: i(A+ - A-) - i(I - R) = 2 omega_a sum_c' M_A[c,c'] (A+ + A-)_c'
        row = 3 + c
        matrix[row, _col(c, "A+")] = 1j
        matrix[row, _col(c, "A-")] = -1j
        matrix[row, _col(c, "R")] = 1j
        for cp in range(3):
            coupling = 2.0 * pt.omega_a * m_a[c, cp]
            matrix[row, _col(cp, "A+")] -= coupling
            matrix[row, _col(cp, "A-")] -= coupling
        rhs[row] = 1j * _INCIDENT[c]

        # continuity at B: A+ e^{ikd} + A- e^{-ikd} = T
        row = 6 + c
        matrix[row, _col(c, "A+")] = ea
        matrix[row, _col(c, "A-")] = em
        matrix[row, _col(c, "T")] = -1.0

        # jump at B: iT - i(A+ e^{ikd} - A- e^{-ikd}) = 2 omega_b sum_c' M_B[c,c'] T_c'
        row = 9 + c
        matrix[row, _col(c, "T")] = 1j
        matrix[row, _col(c, "A+")] = -1j * ea
        matrix[row, _col(c, "A-")] = 1j * em
        for cp in range(3):
            matrix[row, _col(cp, "T")] -= 2.0 * pt.omega_b * m_b[c, cp]

    return MatchingSystem(matrix=matrix, rhs=rhs)


def solve_system(system: MatchingSystem, point: DimensionlessPoint | None = None) -> np.ndarray:
    """Solve M x = b, guarding against ill-conditioning and bad residuals."""
    cond = np.linalg.cond(system.matrix)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericError(f"matching matrix ill-conditioned (cond ~ {cond:.3e}) at {point!r}", point)
    solution = np.linalg.solve(system.matrix, system.rhs)
    residual = float(np.abs(system.matrix @ solution - system.rhs).max())
    if residual > 1e-10:
        raise NumericError(f"matching solve residual {residual:.3e} too large at {point!r}", point)
    return solution


def solve_amplitudes_numeric(pt: DimensionlessPoint) -> AmplitudeSet:
    """Solve the matching system and extract the outgoing amplitudes."""
    pt = validate(pt)
    solution = solve_system(build_matching_system(pt), pt)
    return AmplitudeSet(
        t_noflip=complex(solution[_col(0, "T")]),
        r_noflip=complex(solution[_col(0, "R")]),
        t_flipb=complex(solution[_col(1, "T")]),
        r_flipb=complex(solution[_col(1, "R")]),
        t_flipa=complex(solution[_col(2, "T")]),
        r_flipa=complex(solution[_col(2, "R")]),
    )

