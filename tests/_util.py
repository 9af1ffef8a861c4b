"""Shared test helpers: independent constructions used as oracles.

Everything here is deliberately written from scratch (complex eigensolves,
manual layouts, manual symplectics) so tests check the package against an
independent path rather than against itself.
"""

import math

import numpy as np

COSH1 = 1.5430806348152437  # cosh(1)
SINH1 = 1.1752011936438014  # sinh(1)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA4 = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])

#: Permutation exchanging the two modes, (x1, p1, x2, p2) -> (x2, p2, x1, p1).
MODE_SWAP = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def layout(n, m, c, cp):
    """Standard-form-I shaped matrix, built by hand."""
    return np.array(
        [
            [n, 0.0, c, 0.0],
            [0.0, n, 0.0, cp],
            [c, 0.0, m, 0.0],
            [0.0, cp, 0.0, m],
        ]
    )


def tmsv_layout(r):
    return layout(math.cosh(2 * r), math.cosh(2 * r), math.sinh(2 * r), -math.sinh(2 * r))


def complex_min_eig(m):
    """Smallest eigenvalue of M + i*Omega via a complex eigensolver.

    Independent oracle for the package's real-embedding physicality test.
    """
    return float(np.linalg.eigvalsh(m + 1j * OMEGA4)[0])


def random_llubo_blocks(rng, max_log_squeeze=1.0):
    """Random unit-determinant 2x2 pair (rotation-squeeze-rotation)."""

    def block():
        s = math.exp(rng.uniform(-max_log_squeeze, max_log_squeeze))
        return (
            rot2(rng.uniform(0, 2 * math.pi))
            @ np.diag([s, 1.0 / s])
            @ rot2(rng.uniform(0, 2 * math.pi))
        )

    return block(), block()


def blockdiag(h1, h2):
    out = np.zeros((4, 4))
    out[:2, :2] = h1
    out[2:, 2:] = h2
    return out
