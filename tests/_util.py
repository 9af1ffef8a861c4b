"""Shared test helpers: independent constructions used as oracles.

Everything here is deliberately written from scratch (complex eigensolves,
manual layouts, manual symplectics) so tests check the package against an
independent path rather than against itself.
"""

import itertools
import math
from fractions import Fraction

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


#: Argument lists whose parse ``test_cli`` pins against argparse's own route
#: and ``tools/same_outputs.py`` digests; ``f`` stands for a state file.
USAGE_ARGVS = [
    [], ["-h"], ["--version"], ["nosuch"], ["CHECK"], ["chec"],
    ["check"], ["check", "-h"], ["check", "--js", "f"], ["check", "-j", "f"],
    ["check", "--tol-decide=1e-6", "f"], ["check", "--tol-decide", "x", "f"],
    ["check", "f", "extra"], ["check", "f", "f"], ["check", "--", "f"], ["--", "check", "f"],
    ["reduce", "--form", "III", "f"], ["threshold", "-1", "1", "1"],
    ["scan", "1", "1", "1", "2", "5"], ["sample", "--seed", "-1"],
]


def non_number_identities(size):
    """The ``size`` x ``size`` identity as booleans, numeric strings and
    ``Fraction`` objects, as pytest params: each casts to a float identity.

    The tools load this module without pytest, so only this helper imports it."""
    import pytest

    eye = np.eye(size, dtype=bool)
    return [
        pytest.param(eye, id="bool"),
        pytest.param(np.where(eye, "1.0", "0"), id="str"),
        pytest.param(np.array([[Fraction(int(x)) for x in row] for row in eye]), id="object"),
    ]


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


#: Near-vacuum form-I families: the seed, then the log10 ranges of n - 1 and
#: of m - 1.  ``probe`` is ROADMAP item 14's probe.
NEAR_VACUUM = {
    "probe": (99, (-12.0, -6.0), (-3.0, 1.0)),
    "mid": (7, (-9.0, -7.0), (-9.0, 1.0)),
    "both": (7, (-12.0, -4.0), (-12.0, -4.0)),
    "one": (7, (-16.0, -6.0), (-6.0, 1.0)),
}


def near_vacuum_forms(family, count):
    """The first ``count`` form-I scalars ``(n, m, c, c')`` of a near-vacuum family.

    Each draw takes, in order, ``n - 1`` and ``m - 1`` log-uniform over the
    family's ranges, ``c = U(0, 1) sqrt(2 (n - 1)(m - 1))`` and ``c'``, which
    is ``-U(0, 1) c`` for ``probe`` and ``U(-1, 1) c`` otherwise.  ``validate``
    rejects some of their layouts as unphysical.
    """
    seed, (n_lo, n_hi), (m_lo, m_hi) = NEAR_VACUUM[family]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = 1.0 + 10.0 ** rng.uniform(n_lo, n_hi)
        m = 1.0 + 10.0 ** rng.uniform(m_lo, m_hi)
        c = rng.uniform(0.0, 1.0) * math.sqrt(2.0 * (n - 1.0) * (m - 1.0))
        cp = -rng.uniform(0.0, 1.0) * c if family == "probe" else rng.uniform(-1.0, 1.0) * c
        yield float(n), float(m), float(c), float(cp)


#: Scaled by 1e100 or more: accepted and separable, but det M overflows to inf.
HALF_CORRELATED = np.array(
    [[1, 0, 0.5, 0], [0, 1, 0, -0.5], [0.5, 0, 1, 0], [0, -0.5, 0, 1]]
)
HALF_CORRELATED.flags.writeable = False


def float_edge_matrices():
    """Accepted matrices at the edges of the report writer's floats and of
    ``llubo_invariants``' shift to integers, by name: ``HALF_CORRELATED``
    scaled by 1e100 and by 1e150 (det M beyond the float range), one with
    -0.0 and subnormal entries, and one with both next to 1e150 entries
    (a 2^-1074 entry, the largest shift)."""
    signed = np.diag([1.3, 1.3, 2.4, 2.4])
    signed[0, 1] = signed[1, 0] = 5e-324
    signed[1, 3] = signed[3, 1] = signed[0, 2] = signed[2, 0] = -0.0
    extreme = 1e150 * HALF_CORRELATED
    extreme[0, 1] = extreme[1, 0] = 5e-324
    extreme[2, 3] = extreme[3, 2] = -0.0
    return {
        "half-correlated-1e100": 1e100 * HALF_CORRELATED,
        "half-correlated-1e150": 1e150 * HALF_CORRELATED,
        "signed-zero-subnormal": signed,
        "subnormal-1e150": extreme,
    }


def tmsv_layout(r):
    return layout(math.cosh(2 * r), math.cosh(2 * r), math.sinh(2 * r), -math.sinh(2 * r))


def complex_min_eig(m):
    """Smallest eigenvalue of M + i*Omega via a complex eigensolver.

    Independent of both of the package's physicality tests: validate's
    closed-form test on the form-I scalars, and the PPT oracle's exact
    symplectic invariants.
    """
    return float(np.linalg.eigvalsh(m + 1j * OMEGA4)[0])


def _complex_det(a):
    """Determinant of a square matrix of ``(re, im)`` pairs, by cofactor expansion."""
    if len(a) == 1:
        return a[0][0]
    re = im = 0
    for j, (x, y) in enumerate(a[0]):
        mr, mi = _complex_det([row[:j] + row[j + 1 :] for row in a[1:]])
        sign = -1 if j % 2 else 1
        re += sign * (x * mr - y * mi)
        im += sign * (x * mi + y * mr)
    return re, im


def exact_det(rows):
    """Determinant of a 4x4 matrix of floats, exactly, as a ``Fraction``."""
    a = [[(Fraction(x), 0) for x in row] for row in rows]
    return _complex_det(a)[0]


def exact_ppt(m):
    """Whether the floats of ``m`` are exactly PPT: ``M~ + i*Omega >= 0``.

    ``M~`` is ``m`` with mode 2's momentum reversed.  Decided by Sylvester's
    criterion for semidefiniteness, every one of the 15 principal minors
    ``>= 0``, in complex ``Fraction`` arithmetic: an algorithm independent
    of the PPT oracle's symplectic invariants.
    """
    flip = (1, 1, 1, -1)
    h = [
        [(Fraction(x) * flip[i] * flip[j], int(OMEGA4[i, j])) for j, x in enumerate(row)]
        for i, row in enumerate(np.asarray(m, dtype=float).tolist())
    ]
    for size in range(1, 5):
        for idx in itertools.combinations(range(4), size):
            re, im = _complex_det([[h[i][j] for j in idx] for i in idx])
            assert im == 0  # principal minors of a Hermitian matrix are real
            if re < 0:
                return False
    return True


def strong_local_squeezes(matrices):
    """Each matrix under a strong random local operation, symmetrized.

    Each mode gets ``rot(a) diag(e^k, e^-k) rot(b)`` with ``k ~ U[0, 12]``,
    drawn from ``default_rng(123)`` in turn for the given matrices.
    """
    rng = np.random.default_rng(123)
    out = []
    for m in matrices:
        blocks = []
        for _ in range(2):
            k, a, b = rng.uniform(0.0, 12.0), *rng.uniform(0.0, 2 * math.pi, size=2)
            blocks.append(rot2(a) @ np.diag([math.exp(k), math.exp(-k)]) @ rot2(b))
        op = blockdiag(*blocks)
        moved = op @ m @ op.T
        out.append(0.5 * (moved + moved.T))
    return out


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


def symmetric_layout(seed):
    """Seeded form-I layout of two alike modes, ``n = m``, with ``c > |c'|``.

    Its balance squeezes are ``r1 = r2 = sqrt((n - |c'|)/(n - c))``.  It is
    physical: with ``c < n - 1`` and ``|c'| < c``, both ``(n - c)(n - c')``
    and ``(n + c)(n + c')``, the squared symplectic eigenvalues, exceed 1.
    """
    rng = np.random.default_rng(seed)
    n = rng.uniform(1.5, 5.0)
    c = (n - 1.0) * rng.uniform(0.05, 0.95)
    return layout(n, n, c, c * rng.uniform(-0.95, 0.95))


def edge_family_matrices(seed):
    """One seeded matrix per adversarial family, under a random local operation.

    The families: a thermal two-mode squeezed state with squeeze r up to 12;
    a balanced layout with M - I >= 0 within 1e-6 of the separability edge;
    a mode a hair above vacuum (product state) and a weak two-mode squeezed
    vacuum; c' = c and c' = -c layouts.  The congruences are not
    symmetrized, so they carry their roundoff asymmetry.
    """
    rng = np.random.default_rng(seed)
    r, nu = rng.uniform(0.0, 12.0), rng.uniform(1.0, 3.0)
    k, a1, a2 = rng.uniform(1.0, 4.0), *rng.uniform(0.1, 3.0, size=2)
    eps = rng.uniform(0.0, 1e-6) * (k + 1.0) / (2.0 * math.sqrt(k))
    c1, c2 = math.sqrt(k) * a1 - eps, -(math.sqrt(k) * a2 - eps)
    near_edge = np.array(
        [
            [1.0 + k * a1, 0.0, c1, 0.0],
            [0.0, 1.0 + k * a2, 0.0, c2],
            [c1, 0.0, 1.0 + a1, 0.0],
            [0.0, c2, 0.0, 1.0 + a2],
        ]
    )
    n, m = rng.uniform(1.0, 4.0, size=2)
    c = rng.uniform(0.0, 1.0) * math.sqrt((n - 1.0) * (m - 1.0))
    n_sym = rng.uniform(1.0, 5.0)
    c_sym = math.sqrt(n_sym**2 - rng.uniform(1.0, n_sym) ** 2)
    bases = {
        "large_squeeze": (nu * tmsv_layout(r), 6.0),
        "near_edge": (near_edge, 2.0),
        "near_vacuum_product": (
            np.diag([1.0 + 10.0 ** rng.uniform(-12.0, -6.0)] * 2
                    + [rng.uniform(1.0, 3.0)] * 2),
            1.0,
        ),
        "near_vacuum_tmsv": (tmsv_layout(10.0 ** rng.uniform(-6.0, -3.0)), 1.0),
        "equal_c": (layout(n, m, c, c), 1.0),
        "opposite_c": (layout(n_sym, n_sym, c_sym, -c_sym), 1.0),
    }
    out = {}
    for name, (base, max_log_squeeze) in bases.items():
        b = blockdiag(*random_llubo_blocks(rng, max_log_squeeze))
        out[name] = b @ base @ b.T
    return out


def accepted_edge_states(cv, seeds):
    """``(family, state)`` for each ``edge_family_matrices`` item of ``seeds``
    that ``cv.validate`` accepts once symmetrized, in seed order."""
    for seed in seeds:
        for family, m in edge_family_matrices(seed).items():
            try:
                state = cv.validate(0.5 * (m + m.T))
            except cv.CvsepError:
                continue
            yield family, state
