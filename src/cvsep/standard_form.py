"""Constructive reduction of correlation matrices to their standard forms.

Form I has scalar diagonal blocks ``n*I``, ``m*I`` and a diagonal intermode
block ``diag(c, c')`` with ``c >= |c'|``; form II applies one more diagonal
squeeze per mode, with the squeeze parameters ``(r1, r2)`` solving a balance
condition located by bisection on the physical bracket ``[1, n]`` of the
larger mode's squeeze.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, Llubo
from .exceptions import DegenerateMode, RootNotBracketed

EPS_FORM = 1e-8  # entry-wise fidelity of the reduced layouts


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


@dataclass(frozen=True)
class StandardFormI:
    """Reduced parameters (n, m, c, c') plus the local operation that
    maps the original matrix onto the reduced layout."""

    n: float
    m: float
    c: float
    c_prime: float
    transform: Llubo

    def matrix(self) -> np.ndarray:
        """The induced 4x4 layout."""
        return _layout(self.n, self.n, self.m, self.m, self.c, self.c_prime)


@dataclass(frozen=True)
class StandardFormII:
    """Squeeze-balanced reduction.

    ``transform`` maps the original matrix onto the layout, in the input's
    own mode order.  ``degenerate`` marks states where the balance solve is
    vacuous (r1 = r2 = 1 returned).
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
    degenerate: bool

    def matrix(self) -> np.ndarray:
        """The induced 4x4 layout."""
        return _layout(self.n1, self.n2, self.m1, self.m2, self.c1, self.c2)


def to_standard_form_I(state: CorrelationMatrix) -> StandardFormI:
    """Reduce to standard form I in closed form.

    Each mode gets the symmetric squeeze ``S_i = sqrt(n_i) G_i^(-1/2)`` that
    makes its diagonal block ``n*I`` or ``m*I`` (``n = sqrt(det G1)``,
    ``m = sqrt(det G2)``), then a proper rotation that diagonalizes the
    intermode block ``C~ = S1 C S2 = R(x) diag(c, c') R(y)`` (see
    :func:`_signed_svd`).  The transform is ``h1 = R(x)^T S1``,
    ``h2 = R(y) S2``; the angles' fixed range (not a solver's choice)
    decides between it and ``(-h1, -h2)``, which gives the same form.  An
    input already in the form-I layout keeps ``h1 = h2 = I`` and its ``n``
    and ``m`` exactly; ``c`` and ``c'`` are exact when ``|c'| = c`` (the
    squeezed vacuum and its thermal evolution) and may otherwise move by
    rounding, as ``c = hypot(E, H) + hypot(F, G)``.  The result satisfies
    ``n, m >= 1`` and ``c >= |c'|``.  The scalars are the state's own,
    computed once when :func:`~cvsep.core.validate` tested its physicality,
    so this never raises ``NotPhysical``.

    Raises:
        InvalidLlubo: the transform's determinant is rounded away from 1
            (local squeezes beyond about e^6.7 per mode).
    """
    n, m, c, c_prime, x, y, (u1, v1, w1), (u2, v2, w2), _ = state._form_I
    cx, sx, cy, sy = math.cos(x), math.sin(x), math.cos(y), math.sin(y)
    h1 = (cx * u1 + sx * v1, cx * v1 + sx * w1, cx * v1 - sx * u1, cx * w1 - sx * v1)
    h2 = (cy * u2 - sy * v2, cy * v2 - sy * w2, sy * u2 + cy * v2, sy * v2 + cy * w2)
    return StandardFormI(
        n=n, m=m, c=c, c_prime=c_prime, transform=Llubo._fresh(h1, h2)
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

    The balance conditions treat the two modes alike, so either order is
    accepted: ``solve_form_II_root(m, n, c, c')`` is the ``(n, m, c, c')``
    pair mirrored.  The bracket is proved for the larger mode first, which
    is the one bisected: with ``n >= m``, ``f(1) = |c| - |c'|``, and
    ``f(n) <= 0`` for any physical state (at r1 = n, r2 = m; Simon's
    ``n^2 + m^2 + 2cc' <= 1 + det M`` with ``nm(nm - c^2) >= det M >= 1``
    gives ``nm(n^2-1)(m^2-1) >= (nm|c| - |c'|)^2``), so ``[1, n]`` is
    bisected until its midpoint equals an endpoint.

    Raises:
        RootNotBracketed: ``f(n)`` is positive beyond rounding or NaN
            (unphysical input, or overflow).
    """
    abs_c, abs_cp = abs(c), abs(c_prime)
    swapped = n < m
    if swapped:
        n, m = m, n
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
    r2 = solve_r2_given_r1(n, m, mid)
    return (r2, mid) if swapped else (mid, r2)


def _squeezed(h: tuple, r: float) -> tuple:
    """Row-major entries of ``diag(sqrt(r), 1/sqrt(r)) @ h``, for ``h`` given
    the same way; ``r = 1`` copies h exactly."""
    q = math.sqrt(r)
    iq = 1.0 / q
    a, b, c, d = h
    return q * a, q * b, iq * c, iq * d


def to_standard_form_II(state: CorrelationMatrix) -> StandardFormII:
    """Reduce to standard form II via form I plus the balance squeezes.

    Degenerate inputs -- vanishing intermode block or a mode at vacuum
    purity -- skip the solve and return the trivial ``r1 = r2 = 1`` form
    flagged ``degenerate``.  Where ``r1 = r2 = 1`` (those, and the
    ``|c| = |c'|`` family), the transform is form I's own.
    """
    form1 = to_standard_form_I(state)
    n, m, c, cp = form1.n, form1.m, form1.c, form1.c_prime
    degenerate = (
        max(abs(c), abs(cp)) < EPS_FORM
        or n - 1.0 < EPS_FORM
        or m - 1.0 < EPS_FORM
    )
    if degenerate:
        r1, r2 = 1.0, 1.0
    else:
        r1, r2 = solve_form_II_root(n, m, c, cp)
    transform = form1.transform  # exact when r1 = r2 = 1: _squeezed(h, 1.0) is h
    if not r1 == r2 == 1.0:
        h1, h2 = transform._e1, transform._e2
        transform = Llubo._fresh(_squeezed(h1, r1), _squeezed(h2, r2))
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
        transform=transform,
        degenerate=degenerate,
    )


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
