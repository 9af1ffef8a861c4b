"""Constructive reduction of correlation matrices to their standard forms.

Form I has scalar diagonal blocks ``n*I``, ``m*I`` and a diagonal intermode
block ``diag(c, c')`` with ``c >= |c'|``; form II applies one more diagonal
squeeze per mode, with the squeeze parameters ``(r1, r2)`` solving a balance
condition located from its closed form for alike modes by a bracketed
secant (Anderson-Bjorck) step on the physical bracket ``[1, n]`` of the
larger mode's squeeze.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt, ulp

import numpy as np

from .core import CorrelationMatrix, Llubo, _check_blocks, _frozen
from .exceptions import DegenerateForm, RootNotBracketed

EPS_FORM = 1e-8  # entry-wise fidelity of the reduced layouts
_SQRT_HALF = math.sqrt(0.5)


def _layout(
    n1: float, n2: float, m1: float, m2: float, c1: float, c2: float
) -> tuple:
    """Rows of the layout with x sector [[n1, c1], [c1, m1]] and p sector
    [[n2, c2], [c2, m2]]."""
    return (
        (n1, 0.0, c1, 0.0),
        (0.0, n2, 0.0, c2),
        (c1, 0.0, m1, 0.0),
        (0.0, c2, 0.0, m2),
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
        return np.array(_layout(self.n, self.n, self.m, self.m, self.c, self.c_prime))


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
        return np.array(_layout(self.n1, self.n2, self.m1, self.m2, self.c1, self.c2))


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
    ``n, m >= 1`` and ``c >= |c'|``.  The scalars and blocks are the
    state's own, computed once when :func:`~cvsep.core.validate` tested
    its physicality, so this never raises ``NotPhysical``.

    Raises:
        InvalidLlubo: the transform's determinant is rounded away from 1
            (local squeezes beyond about e^6.7 per mode).
    """
    n, m, c, c_prime, h1, h2 = state._form_I
    transform = Llubo._fresh(h1, h2)
    return _frozen(
        StandardFormI,
        {"n": n, "m": m, "c": c, "c_prime": c_prime, "transform": transform},
    )


def solve_r2_given_r1(n: float, m: float, r1: float) -> float:
    """Mode-2 squeeze matching a given mode-1 squeeze in the balance ratio.

    Solves ``k*m*r2**2 + (1 - k)*r2 - m = 0`` with
    ``k = (n/r1 - 1)/(n*r1 - 1)``, returning the positive root on the branch
    continuous with ``r2(1) = 1`` (evaluated in a cancellation-free form;
    ``1 <= r1 <= n`` keeps ``0 <= k <= 1`` in floats, so it is always real).

    Raises:
        DegenerateForm: ``n`` or ``m`` within ``EPS_FORM`` of 1.
        ValueError: ``r1`` outside ``[1, n]``.
    """
    if n - 1.0 < EPS_FORM or m - 1.0 < EPS_FORM:
        raise DegenerateForm("a mode at vacuum purity has no balance ratio")
    if not 1.0 <= r1 <= n:
        raise ValueError(f"r1 must lie in [1, n] = [1, {n!r}], got {r1!r}")
    if r1 == 1.0:
        return 1.0
    k = (n / r1 - 1.0) / (n * r1 - 1.0)
    disc = (1.0 - k) ** 2 + 4.0 * k * m * m
    return 2.0 * m / ((1.0 - k) + math.sqrt(disc))


def _balance_residual(
    n: float, m: float, abs_c: float, abs_cp: float, r1: float
) -> tuple[float, float]:
    """``(f(r1), r2)``: LHS - RHS of the squeeze-balance condition, and r2(r1)."""
    r2 = solve_r2_given_r1(n, m, r1)
    s = sqrt(r1 * r2)
    t_up = (n * r1 - 1.0) * (m * r2 - 1.0)
    t_dn = (n / r1 - 1.0) * (m / r2 - 1.0)
    # Both products are nonnegative along the branch; clamp roundoff as
    # max(t, 0.0) would, passing NaN and -0.0 to sqrt.
    rhs = sqrt(t_up) if not t_up < 0.0 else 0.0
    rhs -= sqrt(t_dn) if not t_dn < 0.0 else 0.0
    return (s * abs_c - abs_cp / s) - rhs, r2


def solve_form_II_root(
    n: float, m: float, c: float, c_prime: float
) -> tuple[float, float]:
    """Locate the squeeze pair (r1, r2) balancing standard form I.

    The balance conditions treat the two modes alike, so either order is
    accepted: ``solve_form_II_root(m, n, c, c')`` is the ``(n, m, c, c')``
    pair mirrored.  The bracket is proved for the larger mode first, which
    is the one solved for: with ``n >= m``, ``f(1) = |c| - |c'|``, and
    ``f(n) <= 0`` for any physical state (at r1 = n, r2 = m; Simon's
    ``n^2 + m^2 + 2cc' <= 1 + det M`` with ``nm(nm - c^2) >= det M >= 1``
    gives ``nm(n^2-1)(m^2-1) >= (nm|c| - |c'|)^2``).

    Where :func:`solve_r2_given_r1` accepts ``r1 = 1`` and ``(n - 1)(m - 1)``
    is finite, ``f(1)`` is exactly ``|c| - |c'|`` (``s = 1`` and the two
    radicands are equal), so ``f(1) <= 0`` is tested without evaluating
    ``f``; the ``|c| = |c'|`` family exits there.  Elsewhere ``f(1)`` is
    evaluated: it raises where :func:`solve_r2_given_r1` does, or is NaN (a
    NaN ``m``, an infinite mode, an overflowing ``(n - 1)(m - 1)``).

    Otherwise the first point is ``sqrt((q - |c'|)/(q - |c|))``,
    ``q = sqrt(nm)``: the root where ``n = m`` (``+inf`` where ``|c| >= q``).
    Then ``[1, n]`` is narrowed by regula falsi with the Anderson-Bjorck
    rule (BIT 13, 253 (1973)): where an end moves twice in a row, from
    ``f_old`` to ``f_new``, the other end's stored ``f`` is scaled by
    ``g = 1 - f_new / f_old``, or halved where ``g <= 0``.  The ends start
    from that exact ``f(1)`` and from ``f(n) < 0``; while an end has no
    proven sign (``f(1)`` not exact, or ``f(n)`` in its rounding allowance)
    each later step bisects.  A point within 2 ulp of an end, or beyond it,
    is moved 2 ulp inside, so a converged end cannot stall the other.  The
    loop stops at ``hi - lo <= 4 ulp(hi)`` or an exact zero and returns the
    end with the smaller true ``|f|``.  Step ``j`` bisects where the bracket
    is wider than ``4 cap_j = 4 (n - 1) 2^(-j/2)``: no step widens it and
    ``2 cap_(j-1) < 4 cap_j``, so whatever the step rule it is at most
    ``4 cap_j`` wide after step ``j``, and no step follows the
    ``2 log2((n - 1) / ulp(1))``-th, twice bisection's count (up to the
    midpoint's rounding); a random state takes about 6, alike modes about 2.
    Each evaluation of ``f`` (``f(1)`` where not exact, ``f(n)``, each step)
    calls :func:`solve_r2_given_r1` once, whose ``r2`` is kept for its end.

    Raises:
        DegenerateForm: ``n`` or ``m`` within ``EPS_FORM`` of 1.
        ValueError: ``n`` is NaN.
        RootNotBracketed: ``f(n)`` is positive beyond rounding, +inf or NaN
            (unphysical input, an infinite ``|c|``, or overflow).
    """
    abs_c, abs_cp = abs(c), abs(c_prime)
    swapped = n < m
    if swapped:
        n, m = m, n
    dn, dm = n - 1.0, m - 1.0
    exact = dn >= EPS_FORM and dm >= EPS_FORM and math.isfinite(dn * dm)
    # f(1): exact, or evaluated, which raises as the guards do or gives NaN.
    f_lo = abs_c - abs_cp if exact else _balance_residual(n, m, abs_c, abs_cp, 1.0)[0]
    if f_lo <= 0.0:
        return 1.0, 1.0
    f_n, r2_hi = _balance_residual(n, m, abs_c, abs_cp, n)
    # A small positive f(n) is rounding at a root exactly at n; an infinite
    # |c| makes both f(n) and that allowance +inf.
    size = n * abs_c  # max(1.0, size), by a comparison in max's order
    if not f_n <= EPS_FORM * (size if size > 1.0 else 1.0) or f_n == math.inf:
        raise RootNotBracketed(f"no sign change of f on [1, n]: f(n) = {f_n!r}")
    # f_lo > 0 > f_hi are the stored (scaled) end values, NaN where no sign
    # is stored; err_* and r2_* are the true |f| and the r2 at the ends.
    lo, hi = (n if f_n == 0.0 else 1.0), n
    f_hi = f_n if f_n < 0.0 else math.nan
    err_lo, err_hi, r2_lo = abs(f_lo), abs(f_n), 1.0
    moved = 0  # +1 after lo moved, -1 after hi moved
    cap = dn * _SQRT_HALF
    # x is the next point, NaN to bisect: first the root of alike modes.
    q = sqrt(n * m)
    x = math.inf
    if q > abs_c:
        x = (q - abs_cp) / (q - abs_c)
        x = sqrt(0.0 if 0.0 > x else x)  # max(x, 0.0), NaN and -0.0 included
    while hi - lo > 4.0 * ulp(hi):
        step = 2.0 * ulp(hi)
        if x < lo + step:
            x = lo + step
        elif x > hi - step:
            x = hi - step
        if x != x:
            x = 0.5 * (lo + hi)
        f_x, r2_x = _balance_residual(n, m, abs_c, abs_cp, x)
        if f_x > 0.0:
            if moved > 0:
                g = 1.0 - f_x / f_lo
                f_hi *= g if g > 0.0 else 0.5
            lo, f_lo, err_lo, r2_lo, moved = x, f_x, f_x, r2_x, 1
        elif f_x < 0.0:
            if moved < 0:
                g = 1.0 - f_x / f_hi
                f_lo *= g if g > 0.0 else 0.5
            hi, f_hi, err_hi, r2_hi, moved = x, f_x, -f_x, r2_x, -1
        else:
            lo, hi, err_hi, r2_hi = x, x, 0.0, r2_x
        # A bracket wider than 4 cap, an end with no stored sign, or a NaN
        # secant point (inf / inf) bisects.
        cap *= _SQRT_HALF
        x = math.nan
        if (w := hi - lo) <= 4.0 * cap and f_lo > 0.0 > f_hi:
            x = lo + w * (f_lo / (f_lo - f_hi))
    r1, r2 = (lo, r2_lo) if err_lo < err_hi else (hi, r2_hi)
    return (r2, r1) if swapped else (r1, r2)


def _squeezed(h: tuple, r: float) -> tuple:
    """Row-major entries of ``diag(sqrt(r), 1/sqrt(r)) @ h``, for ``h`` given
    the same way; ``r = 1`` copies h exactly."""
    q = math.sqrt(r)
    iq = 1.0 / q
    a, b, c, d = h
    return q * a, q * b, iq * c, iq * d


def _form_II(form_I: tuple) -> tuple:
    """:func:`to_standard_form_II`'s fields from form I, with every check of it;
    the transform is returned as its checked blocks ``h1, h2``, after ``r2``."""
    n, m, c, cp, h1, h2 = form_I
    # Form I's blocks, checked before the solve, are form II's at r1 = r2 = 1.
    _check_blocks(h1, h2)
    # Form I has c >= |c'| >= 0.
    degenerate = c < EPS_FORM or n - 1.0 < EPS_FORM or m - 1.0 < EPS_FORM
    if degenerate:
        r1, r2 = 1.0, 1.0
    else:
        r1, r2 = solve_form_II_root(n, m, c, cp)
    if r1 != 1.0 or r2 != 1.0:
        h1, h2 = _squeezed(h1, r1), _squeezed(h2, r2)
        _check_blocks(h1, h2)
    geo = math.sqrt(r1 * r2)
    c1, c2 = geo * c, cp / geo
    return n * r1, n / r1, m * r2, m / r2, c1, c2, r1, r2, h1, h2, degenerate


def to_standard_form_II(state: CorrelationMatrix) -> StandardFormII:
    """Reduce to standard form II via form I plus the balance squeezes.

    Degenerate inputs -- vanishing intermode block or a mode at vacuum
    purity -- skip the solve and return the trivial ``r1 = r2 = 1`` form
    flagged ``degenerate``.  Where ``r1 = r2 = 1`` (those, and the
    ``|c| = |c'|`` family), the transform holds form I's own blocks.  Each
    block is checked once, and the transform is the one ``Llubo`` built.
    """
    n1, n2, m1, m2, c1, c2, r1, r2, h1, h2, degenerate = _form_II(state._form_I)
    return _frozen(StandardFormII, {
        "n1": n1, "n2": n2, "m1": m1, "m2": m2, "c1": c1, "c2": c2, "r1": r1, "r2": r2,
        "transform": _frozen(Llubo, {"_e1": h1, "_e2": h2}), "degenerate": degenerate,
    })


def balance_residuals(form: StandardFormII) -> tuple[float, float]:
    """Residuals of the two balance conditions for a non-degenerate form.

    Returns ``(ratio_residual, gap_residual)`` where the first is the
    difference of the x- and p-sector ratios ``(n_i - 1)/(m_i - 1)`` and the
    second is ``|c1| - |c2| - (sqrt((n1-1)(m1-1)) - sqrt((n2-1)(m2-1)))``.
    Ratio residual is reported as 0 when either denominator is within
    ``EPS_FORM`` of zero (the condition is vacuous there).
    """
    dn1, dn2, dm1, dm2 = form.n1 - 1.0, form.n2 - 1.0, form.m1 - 1.0, form.m2 - 1.0
    if dm1 > EPS_FORM and dm2 > EPS_FORM:
        ratio = dn1 / dm1 - dn2 / dm2
    else:
        ratio = 0.0
    gap = abs(form.c1) - abs(form.c2) - (
        math.sqrt(max(dn1 * dm1, 0.0)) - math.sqrt(max(dn2 * dm2, 0.0))
    )
    return float(ratio), float(gap)
