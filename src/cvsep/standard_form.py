"""Constructive reduction of correlation matrices to their standard forms.

Form I has scalar diagonal blocks ``n*I``, ``m*I`` and a diagonal intermode
block ``diag(c, c')`` with ``c >= |c'|``; form II applies one more diagonal
squeeze per mode, with the squeeze parameters ``(r1, r2)`` solving a balance
condition located by bisection on the physical bracket ``1 <= r1 <= n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, Llubo
from .exceptions import DegenerateMode, NotPhysical, RootNotBracketed

EPS_FORM = 1e-8  # entry-wise fidelity of the reduced layouts

# Diagonal excess below a few ulp of the vacuum value 1 is a float
# representation artifact (the intermode block, built from products, keeps
# full relative precision and carries the decision there).
_VACUUM_SNAP = 8.0 * np.finfo(float).eps

#: Permutation exchanging the two modes, (x1, p1, x2, p2) -> (x2, p2, x1, p1).
MODE_SWAP = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)
MODE_SWAP.flags.writeable = False

_EYE2 = np.eye(2)  # shared identity pass; every use multiplies it into a new array
_EYE2.flags.writeable = False
_ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # joint pi/2 rotation block
_FLIP = np.array([[-1.0, 0.0], [0.0, -1.0]])  # rotation by pi


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _scalarize_block(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-determinant h with ``h @ g @ h.T = value * I`` for symmetric g > 0.

    Rotation to principal axes followed by the squeeze that equalizes the
    two variances.  Exact pass-through (h = I) when g is already scalar.
    """
    b = float(g[0, 1])
    if b == 0.0:
        rot = _EYE2
        alpha, beta = float(g[0, 0]), float(g[1, 1])
    else:
        rot = _rotation(0.5 * math.atan2(2.0 * b, float(g[0, 0] - g[1, 1])))
        d = rot @ g @ rot.T
        alpha, beta = float(d[0, 0]), float(d[1, 1])
    if alpha <= 0.0 or beta <= 0.0:
        raise NotPhysical("diagonal block is not positive definite")
    if alpha == beta:
        return rot, alpha
    s = (beta / alpha) ** 0.25
    h = np.diag([s, 1.0 / s]) @ rot
    return h, math.sqrt(alpha * beta)


def _signed_svd(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Rotations (det +1) with ``o1 @ c @ o2.T = diag(d0, d1)``, ``d0 >= |d1|``.

    Restricting to proper rotations leaves the sign of the smaller value
    free; ``d0`` is made nonnegative.  Already-diagonal input passes through
    exactly (only sign/swap rotations applied).
    """
    if c[0, 1] == 0.0 and c[1, 0] == 0.0:
        o1, o2 = _EYE2, _EYE2
        d0, d1 = float(c[0, 0]), float(c[1, 1])
        if abs(d1) > abs(d0):
            # Joint pi/2 rotation on both modes exchanges the two entries.
            o1, o2 = _ROT90.copy(), _ROT90.copy()
            d0, d1 = d1, d0
        if d0 < 0.0:
            o2 = _FLIP @ o2  # pi rotation on mode 2 flips both signs
            d0, d1 = -d0, -d1
        return o1, o2, d0, d1
    u, sig, vt = np.linalg.svd(c)
    d0, d1 = float(sig[0]), float(sig[1])
    o1 = u.T
    o2 = vt
    if np.linalg.det(u) < 0.0:
        o1 = np.diag([1.0, -1.0]) @ o1
        d1 = -d1
    if np.linalg.det(vt) < 0.0:
        o2 = np.diag([1.0, -1.0]) @ o2
        d1 = -d1
    return o1, o2, d0, d1


def _layout(
    n1: float, n2: float, m1: float, m2: float, c1: float, c2: float
) -> np.ndarray:
    """Layout with x sector [[n1, c1], [c1, m1]] and p sector [[n2, c2], [c2, m2]]."""
    return np.array(
        [
            [n1, 0.0, c1, 0.0],
            [0.0, n2, 0.0, c2],
            [c1, 0.0, m1, 0.0],
            [0.0, c2, 0.0, m2],
        ]
    )


def form_i_layout(n: float, m: float, c: float, c_prime: float) -> np.ndarray:
    return _layout(n, n, m, m, c, c_prime)


@dataclass(frozen=True)
class StandardFormI:
    """Reduced parameters (n, m, c, c') plus the local operation that
    maps the original matrix onto the reduced layout."""

    n: float
    m: float
    c: float
    c_prime: float
    transform: Llubo
    swapped_modes: bool = False

    def matrix(self) -> np.ndarray:
        """The induced 4x4 layout."""
        return form_i_layout(self.n, self.m, self.c, self.c_prime)


@dataclass(frozen=True)
class StandardFormII:
    """Squeeze-balanced reduction.

    ``transform`` maps the (possibly mode-swapped) original matrix onto the
    layout; ``swapped_modes`` records whether the balance convention
    ``n >= m`` required exchanging the modes, which is not a local operation
    and is therefore kept as a flag.  ``degenerate`` marks states where the
    balance solve is vacuous (r1 = r2 = 1 returned).
    """

    n1: float
    n2: float
    m1: float
    m2: float
    c1: float
    c2: float
    r1: float
    r2: float
    transform: Llubo
    swapped_modes: bool
    degenerate: bool

    def matrix(self) -> np.ndarray:
        """The induced 4x4 layout."""
        return _layout(self.n1, self.n2, self.m1, self.m2, self.c1, self.c2)


def to_standard_form_I(state: CorrelationMatrix) -> StandardFormI:
    """Reduce to standard form I by the three-stage local construction.

    (i) rotate each mode to the principal axes of its diagonal block,
    (ii) squeeze each mode so the blocks become ``n*I`` and ``m*I``,
    (iii) diagonalize the intermode block with a pair of proper rotations.
    The result satisfies ``n, m >= 1`` and ``c >= |c'|``.
    """
    h1a, n = _scalarize_block(state.g1)
    h2a, m = _scalarize_block(state.g2)
    c_rot = h1a @ state.c @ h2a.T
    o1, o2, c, c_prime = _signed_svd(c_rot)
    # Physical states have n, m >= 1; sub-1 values are roundoff, and
    # excesses at the representation floor snap to vacuum.
    n = 1.0 if n - 1.0 <= _VACUUM_SNAP else n
    m = 1.0 if m - 1.0 <= _VACUUM_SNAP else m
    return StandardFormI(
        n=n,
        m=m,
        c=c,
        c_prime=c_prime,
        transform=Llubo._fresh(o1 @ h1a, o2 @ h2a),
    )


def solve_r2_given_r1(n: float, m: float, r1: float) -> float:
    """Mode-2 squeeze matching a given mode-1 squeeze in the balance ratio.

    Solves ``k*m*r2**2 + (1 - k)*r2 - m = 0`` with
    ``k = (n/r1 - 1)/(n*r1 - 1)``, returning the positive root on the branch
    continuous with ``r2(1) = 1`` (evaluated in a cancellation-free form;
    ``1 <= r1 <= n`` keeps ``0 <= k <= 1`` in floats, so it is always real).

    Raises:
        DegenerateMode: ``n`` or ``m`` within ``EPS_FORM`` of 1.
        ValueError: ``r1`` outside ``[1, n]``.
    """
    if n - 1.0 < EPS_FORM or m - 1.0 < EPS_FORM:
        raise DegenerateMode("a mode at vacuum purity has no balance ratio")
    if not 1.0 <= r1 <= n:
        raise ValueError(f"r1 must lie in [1, n] = [1, {n!r}], got {r1!r}")
    if r1 == 1.0:
        return 1.0
    k = (n / r1 - 1.0) / (n * r1 - 1.0)
    disc = (1.0 - k) ** 2 + 4.0 * k * m * m
    return 2.0 * m / ((1.0 - k) + math.sqrt(disc))


def _balance_residual(
    n: float, m: float, abs_c: float, abs_cp: float, r1: float
) -> float:
    """f(r1) = LHS - RHS of the squeeze-balance condition."""
    r2 = solve_r2_given_r1(n, m, r1)
    s = math.sqrt(r1 * r2)
    lhs = s * abs_c - abs_cp / s
    t_up = (n * r1 - 1.0) * (m * r2 - 1.0)
    t_dn = (n / r1 - 1.0) * (m / r2 - 1.0)
    # Both products are nonnegative along the branch; clamp roundoff.
    rhs = math.sqrt(max(t_up, 0.0)) - math.sqrt(max(t_dn, 0.0))
    return lhs - rhs


def solve_form_II_root(
    n: float, m: float, c: float, c_prime: float
) -> tuple[float, float]:
    """Locate the squeeze pair (r1, r2) balancing standard form I.

    Requires ``n >= m``.  ``f(1) = |c| - |c'|``, and ``f(n) <= 0`` for any
    physical state (at r1 = n, r2 = m; Simon's ``n^2 + m^2 + 2cc' <= 1 + det M``
    with ``nm(nm - c^2) >= det M >= 1`` gives ``nm(n^2-1)(m^2-1) >= (nm|c| - |c'|)^2``),
    so ``[1, n]`` is bisected until its midpoint equals an endpoint.

    Raises:
        RootNotBracketed: ``f(n)`` is positive beyond rounding or NaN
            (unphysical input, or overflow).
    """
    abs_c, abs_cp = abs(c), abs(c_prime)
    if n < m - EPS_FORM:
        raise ValueError("canonical orientation requires n >= m")
    if _balance_residual(n, m, abs_c, abs_cp, 1.0) <= 0.0:
        # |c| == |c'| family (f(1) is exactly their difference): root at 1.
        return 1.0, 1.0
    f_n = _balance_residual(n, m, abs_c, abs_cp, n)
    # A small positive f(n) is rounding at a root exactly at n.
    if not f_n <= EPS_FORM * max(1.0, n * abs_c):
        raise RootNotBracketed(f"no sign change of f on [1, n]: f(n) = {f_n!r}")
    lo, hi = 1.0, n
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = _balance_residual(n, m, abs_c, abs_cp, mid)
        if f_mid > 0.0:
            lo = mid
        elif f_mid < 0.0:
            hi = mid
        else:
            lo = hi = mid
    return mid, solve_r2_given_r1(n, m, mid)


def to_standard_form_II(state: CorrelationMatrix) -> StandardFormII:
    """Reduce to standard form II via form I plus the balance squeezes.

    Canonicalizes ``n >= m`` by a mode swap recorded in ``swapped_modes``
    (separability is symmetric under mode exchange, so downstream decisions
    are unaffected).  Degenerate inputs -- vanishing intermode block or a
    mode at vacuum purity -- skip the solve and return the trivial
    ``r1 = r2 = 1`` form flagged ``degenerate``.
    """
    form1 = to_standard_form_I(state)
    n, m, c, cp = form1.n, form1.m, form1.c, form1.c_prime
    h1, h2 = form1.transform.h1, form1.transform.h2
    swapped = False
    if n < m:
        # Diagonal intermode block is symmetric, so the swap only
        # exchanges the roles of n and m (and of the local blocks).
        n, m = m, n
        h1, h2 = h2, h1
        swapped = True
    degenerate = (
        max(abs(c), abs(cp)) < EPS_FORM
        or n - 1.0 < EPS_FORM
        or m - 1.0 < EPS_FORM
    )
    if degenerate:
        r1, r2 = 1.0, 1.0
    else:
        r1, r2 = solve_form_II_root(n, m, c, cp)
    if r1 == 1.0:
        s1 = _EYE2
    else:
        q1 = math.sqrt(r1)
        s1 = np.diag([q1, 1.0 / q1])
    if r2 == 1.0:
        s2 = _EYE2
    else:
        q2 = math.sqrt(r2)
        s2 = np.diag([q2, 1.0 / q2])
    geo = math.sqrt(r1 * r2)
    return StandardFormII(
        n1=n * r1,
        n2=n / r1,
        m1=m * r2,
        m2=m / r2,
        c1=geo * c,
        c2=cp / geo,
        r1=r1,
        r2=r2,
        transform=Llubo._fresh(s1 @ h1, s2 @ h2),
        swapped_modes=swapped,
        degenerate=degenerate,
    )


def reduction_input(state: CorrelationMatrix, form: StandardFormII) -> np.ndarray:
    """The matrix ``form.transform`` actually acts on (mode-swapped if flagged)."""
    if form.swapped_modes:
        return MODE_SWAP @ state.m @ MODE_SWAP
    return np.array(state.m)


def balance_residuals(form: StandardFormII) -> tuple[float, float]:
    """Residuals of the two balance conditions for a non-degenerate form.

    Returns ``(ratio_residual, gap_residual)`` where the first is the
    difference of the x- and p-sector ratios ``(n_i - 1)/(m_i - 1)`` and the
    second is ``|c1| - |c2| - (sqrt((n1-1)(m1-1)) - sqrt((n2-1)(m2-1)))``.
    Ratio residual is reported as 0 when either denominator is within
    ``EPS_FORM`` of zero (the condition is vacuous there).
    """
    d1, d2 = form.m1 - 1.0, form.m2 - 1.0
    if d1 > EPS_FORM and d2 > EPS_FORM:
        ratio = (form.n1 - 1.0) / d1 - (form.n2 - 1.0) / d2
    else:
        ratio = 0.0
    gap = (
        abs(form.c1)
        - abs(form.c2)
        - (
            math.sqrt(max((form.n1 - 1.0) * (form.m1 - 1.0), 0.0))
            - math.sqrt(max((form.n2 - 1.0) * (form.m2 - 1.0), 0.0))
        )
    )
    return float(ratio), float(gap)
