"""Core types and operations for two-mode Gaussian correlation matrices.

Conventions (fixed once, used everywhere):

* Quadrature ordering is ``(x1, p1, x2, p2)``; row/column ``i`` of a
  correlation matrix pairs with that list.
* Scaling is "vacuum = identity": entry ``M[i, j]`` equals twice the
  symmetrized second moment ``<{dxi_i, dxi_j}>/2``, so operator variances
  are matrix entries divided by two and every physical matrix satisfies
  ``M + i*Omega >= 0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    InvalidLlubo,
    NotFinite,
    NotPhysical,
    NotSymmetric,
    ZeroCoefficient,
)

# Tolerances (double-precision headroom on 4x4 problems).
EPS_SYM = 1e-10  # asymmetry allowed, relative to max(1, largest diagonal entry)
EPS_DET = 1e-10  # allowed departure of local-block determinants from 1

# Rounding allowance of a computed quantity, in units of the sizes of the
# products it is formed from (see _check_physical).
_ROUND = 8.0 * sys.float_info.epsilon


def _rows_array(rows) -> np.ndarray:
    """Read-only float64 copy of ``rows``: every read-only array cvsep owns."""
    arr = np.array(rows, dtype=float)
    arr.flags.writeable = False
    return arr


#: Symplectic form for two modes in (x1, p1, x2, p2) ordering.
OMEGA = _rows_array(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)))


@dataclass(frozen=True, eq=False, init=False)
class CorrelationMatrix:
    """Validated 4x4 correlation matrix of a two-mode Gaussian state.

    Only :func:`validate` builds one (``CorrelationMatrix(m)`` raises
    ``TypeError``), so every state is physical.  The state holds its checked
    rows as Python floats and their form I ``(n, m, c, c', h1, h2)``, which
    :func:`validate` computed to test physicality; ``m`` is built from the
    rows as a read-only array, owned by the state, on first read.
    """

    _rows: list[list[float]]
    _form_I: tuple

    @cached_property
    def m(self) -> np.ndarray:
        """The matrix, a read-only 4x4 array."""
        return _rows_array(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CorrelationMatrix({self._rows!r})"


@dataclass(frozen=True, eq=False, init=False)
class Llubo:
    """Local linear unitary Bogoliubov operation.

    A pair of unit-determinant 2x2 real matrices acting independently on the
    two modes; it acts on a correlation matrix by congruence with
    ``blockdiag(h1, h2)``.  Each block is held as its row-major entries, as
    Python floats; ``h1`` and ``h2`` are built from them as read-only
    arrays on first read.
    """

    _e1: tuple[float, float, float, float]
    _e2: tuple[float, float, float, float]

    def __init__(self, h1: np.ndarray, h2: np.ndarray) -> None:
        entries = []
        for name, h in (("h1", h1), ("h2", h2)):
            blk = _real_array(h, InvalidLlubo, name)
            if blk.shape != (2, 2):
                raise InvalidLlubo(f"{name} must be 2x2, got {blk.shape}")
            (a, b), (c, d) = blk.tolist()
            _check_unit_det(name, (a, b, c, d))
            entries.append((a, b, c, d))
        object.__setattr__(self, "_e1", entries[0])
        object.__setattr__(self, "_e2", entries[1])

    @classmethod
    def _fresh(cls, e1: tuple, e2: tuple) -> "Llubo":
        """Llubo of the row-major float entries of blocks built by cvsep.

        The entries are still checked as in ``Llubo(h1, h2)``, before any
        caller can read them: rounding under strong squeezes can move a
        product's determinant away from 1.
        """
        _check_blocks(e1, e2)
        return _frozen(cls, {"_e1": e1, "_e2": e2})

    @cached_property
    def h1(self) -> np.ndarray:
        """Mode-1 block, a read-only 2x2 array."""
        return _rows_array((self._e1[:2], self._e1[2:]))

    @cached_property
    def h2(self) -> np.ndarray:
        """Mode-2 block, a read-only 2x2 array."""
        return _rows_array((self._e2[:2], self._e2[2:]))

    @classmethod
    def identity(cls) -> "Llubo":
        return cls(np.eye(2), np.eye(2))

    def block_diagonal(self) -> np.ndarray:
        """The 4x4 matrix blockdiag(h1, h2)."""
        out = np.zeros((4, 4))
        out[:2, :2] = self.h1
        out[2:, 2:] = self.h2
        return out

    def inverse(self) -> "Llubo":
        """Element-wise inverse pair (adjugate; the blocks have det 1), unchecked:
        ``d*a - (-b)*(-c)`` is the checked ``a*d - b*c`` bit for bit."""
        (a1, b1, c1, d1), (a2, b2, c2, d2) = self._e1, self._e2
        return _frozen(Llubo, {"_e1": (d1, -b1, -c1, a1), "_e2": (d2, -b2, -c2, a2)})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Llubo(h1={self.h1!r}, h2={self.h2!r})"


def _frozen(cls: type, fields: dict):
    """Instance of the frozen dataclass ``cls`` whose attributes are
    ``fields``, a fresh dict in declaration order, without running
    ``__init__``: for values cvsep builds itself, of classes with no
    ``__post_init__``, and for a verdict's ``EprPair``, whose
    ``__post_init__`` checks ``separability._witness`` has already run.
    Equality, hash, ``repr`` and ``vars()`` are those of
    ``cls(**fields)``."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _real_array(x, error: type, name: str) -> np.ndarray:
    """``x`` as a float array; ``error`` unless its dtype is integer or
    float, rather than dropping an imaginary part or casting booleans,
    strings or objects."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        raise error(f"{name} must be real, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _check_unit_det(name: str, entries: tuple) -> None:
    """InvalidLlubo unless the block ``entries`` has ``|det - 1| <= EPS_DET``.

    The test is negated, so that a NaN determinant (``inf - inf`` from
    finite entries) fails too; the finiteness of the entries only chooses
    the message."""
    a, b, c, d = entries
    det = a * d - b * c
    if not abs(det - 1.0) <= EPS_DET:
        if not all(map(math.isfinite, entries)):
            raise InvalidLlubo(f"{name} has non-finite entries")
        raise InvalidLlubo(f"det({name}) = {det!r} differs from 1 beyond {EPS_DET}")


def _check_blocks(e1: tuple, e2: tuple) -> None:
    """``Llubo(h1, h2)``'s checks on the row-major entries of cvsep's blocks."""
    _check_unit_det("h1", e1)
    _check_unit_det("h2", e2)


@dataclass(frozen=True)
class LluboInvariants:
    """The four determinants preserved by local operations."""

    det_g1: float
    det_g2: float
    det_c: float
    det_m: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.det_g1, self.det_g2, self.det_c, self.det_m)


@dataclass(frozen=True)
class EprPair:
    """Coefficients of the EPR-type operator pair.

    ``u = |a| x1 + sign_u (1/|a|) x2`` and ``v = |a| p1 + sign_v (1/|a|) p2``;
    the signs multiply the mode-2 terms.  The generic correlated choice
    ``u = x1 + x2, v = p1 - p2`` is ``EprPair(1.0, +1, -1)``.  The pair
    reads ``a`` only as ``a^2`` and ``1/a^2``, which must both be finite and
    nonzero: ``~7.46e-155 <= |a| <= ~1.34e154``, else ``ZeroCoefficient``.
    """

    a: float
    sign_u: int = 1
    sign_v: int = -1

    def __post_init__(self) -> None:
        _check_coefficient(self.a)
        if self.sign_u not in (-1, 1) or self.sign_v not in (-1, 1):
            raise ValueError("signs must be -1 or +1")


def _check_coefficient(a: float) -> None:
    """ZeroCoefficient unless ``a^2`` and ``1/a^2`` are finite and nonzero."""
    a_abs = math.fabs(a)
    if not (0.0 < a_abs * a_abs < math.inf and 1.0 / (a_abs * a_abs) < math.inf):
        raise ZeroCoefficient(
            f"coefficient a = {a!r}: a^2 and 1/a^2 must be finite and nonzero"
        )


def validate(m: np.ndarray) -> CorrelationMatrix:
    """Validate a 4x4 array as a physical two-mode correlation matrix.

    The entries must be finite, and the largest asymmetry ``|m - m.T|`` may
    reach ``EPS_SYM`` times ``max(1, largest diagonal entry)``.  The result
    is ``(m + m.T)/2`` with the diagonal kept as given, so that it cannot
    overflow.  Physicality, ``M + i*Omega >= 0``, is Simon's condition
    (PRL 84, 2726 (2000)) on the local invariants ``(n, m, c, c')`` of
    standard form I, as in Serafini, Illuminati and De Siena (J. Phys. B
    37, L21 (2004)):

    * ``G1, G2 > 0`` with ``det G_i >= 1`` (``n, m >= 1``): each mode's
      uncertainty relation, and what form I needs;
    * ``nm >= c^2`` (so ``nm >= c'^2``, as ``c >= |c'|``): ``M >= 0``,
      which the determinants cannot see: ``[[I, 2I], [2I, I]]`` meets the
      other conditions, yet ``M`` has the eigenvalue -1;
    * ``det M = (nm - c^2)(nm - c'^2) >= 1``, which the last condition
      misses: ``n = m``, ``c' = -c``, ``n^2 - c^2 = 0.81`` meets it;
    * ``det M + 1 >= n^2 + m^2 + 2cc'``: with ``det M >= 1``, both
      symplectic eigenvalues are at least 1.

    Each is tested within a running estimate of its rounding error (see
    :func:`_check_physical`): a few eps for exact inputs, and form I's own
    rounding under local squeezes.  So the answer depends neither on a
    local operation applied first nor on the state's scale.  The state
    keeps form I, so ``to_standard_form_I`` does not recompute it.

    The checks run on the entries as Python floats, which the state keeps:
    it builds its array ``m`` only when a caller reads it, so
    ``decide_separability`` builds none (and ``scan_boundary`` no state).

    Raises:
        ValueError: ``m`` is complex or not 4x4.
        NotFinite: non-finite entries.
        NotSymmetric: asymmetry beyond ``EPS_SYM`` relative tolerance.
        NotPhysical: a condition fails beyond its rounding estimate (the
            message names it and its value), or ``det G_i`` overflows
            or form I's ``c`` is out of range (entries beyond ~1.3e154).
    """
    arr = _real_array(m, ValueError, "correlation matrix")
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    return _validate_rows(arr.tolist())


def _validate_rows(rows: list[list[float]]) -> CorrelationMatrix:
    """:func:`validate` on a 4x4 matrix given as nested lists of floats."""
    rows, form_I = _checked_rows(rows)
    return _frozen(CorrelationMatrix, {"_rows": rows, "_form_I": form_I})


def _checked_rows(rows: list[list[float]]) -> tuple:
    """The symmetrized rows and form I that :func:`_validate_rows` freezes,
    with every check of :func:`validate`, in its order and with its messages."""
    (a, b, c, d), (e, f, g, h), (i, j, k, s), (t, u, v, w) = rows
    # x * 0.0 is +-0.0 for finite x and NaN for inf or NaN, and cannot overflow;
    # ~0.3-0.5 us less than isfinite over the rows concatenated (CPython 3.11/3.12).
    if (a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 + e * 0.0 + f * 0.0 + g * 0.0 + h * 0.0 + i * 0.0
            + j * 0.0 + k * 0.0 + s * 0.0 + t * 0.0 + u * 0.0 + v * 0.0 + w * 0.0) != 0.0:
        raise NotFinite("correlation matrix has non-finite entries")
    # max(1, a, f, k, w) as comparisons in max's order: a builtin call
    # costs several times as much.
    scale = a if a > 1.0 else 1.0
    scale = f if f > scale else scale
    scale = k if k > scale else scale
    scale = w if w > scale else scale
    limit = EPS_SYM * scale
    # Differences of finite floats are never NaN, so one of them exceeds
    # the limit exactly where their max, the asymmetry, does.
    if (
        abs(b - e) > limit or abs(c - i) > limit or abs(d - t) > limit
        or abs(g - j) > limit or abs(h - u) > limit or abs(s - v) > limit
    ):
        asym = max(abs(b - e), abs(c - i), abs(d - t), abs(g - j), abs(h - u), abs(s - v))
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {EPS_SYM} x max(1, max diagonal)"
        )
    b, c, d = 0.5 * (b + e), 0.5 * (c + i), 0.5 * (d + t)
    g, h, s = 0.5 * (g + j), 0.5 * (h + u), 0.5 * (s + v)
    rows = [[a, b, c, d], [b, f, g, h], [c, g, k, s], [d, h, s, w]]
    return rows, _form_I_scalars(rows)


def _require(
    name: str, value: float, bound: float, err: float, unit: float = 1.0
) -> None:
    """Raise NotPhysical unless ``value >= bound`` within ``err``.

    All three are in multiples of ``unit``, a nonzero power of two, and
    are printed in the input's units: the value to 6 digits, or to all its
    digits where 6 would print the bound.  The test is negated, so that a
    NaN value or estimate fails too.
    """
    if not value - bound >= -err:
        shown, floor = f"{value / unit:.6g}", f"{bound / unit:g}"
        if shown == floor:
            shown = repr(value / unit)
        raise NotPhysical(
            f"{name} = {shown} < {floor} beyond its rounding "
            f"estimate {err / unit:.2g}; state violates the uncertainty relation"
        )


def _check_physical(n0, m0, c, cp, s1, s2, e1, e2, block) -> None:
    """Simon's condition (see :func:`validate`) on form I's scalars.

    The scalars ``(n0, m0, c, cp)``, squeezes ``s_i`` and estimates ``e_i``
    are those of :func:`_form_I_scalars`; ``block`` is ``C``, row-major.
    Each value is tested within a first-order running estimate of its
    rounding error (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3): ``_ROUND`` (8 eps) times the sizes of the products it is formed
    from, plus what its operands' estimates carry into it.

    * ``det G = ad - b^2`` carries ``e = _ROUND (|ad| + b^2)``, from
      :func:`_scalarize_block`.  As ``n`` and the exact ``sqrt(det G)`` are
      both at least 1, ``n`` carries ``e`` over ``n + 1``: a relative
      error ``rho_n``.  ``rho`` is ``rho_n + rho_m``, plus ``_ROUND`` per
      mode for the square root.
    * That error scales the squeeze ``S1`` by ``1 + O(rho_n)`` in its own
      eigenbasis, which moves ``c`` and ``c'`` by at most ``rho c``.
      Forming ``S1 C S2`` moves them by at most ``_ROUND tau``, with
      ``tau`` the sum of the entries of ``|S1| |C| |S2|``.
    * A difference carries its operands' estimates plus ``_ROUND`` times
      its terms; a product ``xy`` carries ``|x| dy + |y| dx + dx dy`` plus
      ``_ROUND |xy|``.

    An input in the form-I layout has ``tau = c`` and ``rho`` of a few eps.
    A local squeeze ``e^s`` per mode grows ``tau`` by up to
    ``e^(2 s1 + 2 s2)`` and ``rho`` by up to ``e^(4 s)``, as form I's own
    rounding grows.  The estimates cost about as much as form I, so a value
    at or above its bound passes without one.

    The scalars are first scaled by the power of two that brings
    ``max(n, m, c)`` into ``[2^249, 2^250)``: exact, so every value is a
    power of two times its value in the input's units, and ``_require``
    prints it in those.  A physical state has ``c <= sqrt(nm) < 2^512``
    (``det G_i`` is finite), so the scaled values, ``det M`` included, stay
    below ``2^1003``, and the units ``scale^2`` and ``scale^4`` stay at or
    above ``2^-1048``: nonzero and exact.  A ``c`` of ``2^512`` (~1.3e154)
    or more, or NaN, is out of that range and raises.  Only an estimate
    can still overflow, and only where it exceeds its value.

    Raises:
        NotPhysical: the first condition that fails beyond its estimate,
            or ``c`` out of range.
    """
    if not c < 2.0**512:
        raise NotPhysical(
            f"c = {c:.6g} of form I is out of range (beyond ~1.3e154); "
            "state violates the uncertainty relation"
        )
    top = m0 if m0 > n0 else n0  # max(n0, m0, c), as _checked_rows writes max
    top = c if c > top else top
    scale = math.ldexp(1.0, 250 - math.frexp(top)[1])
    n, m, c, cp = n0 * scale, m0 * scale, c * scale, cp * scale
    unit2 = scale * scale  # 1, in the units of n^2 and of c^2
    unit4 = unit2 * unit2  # 1, in the units of det M
    nm, c2, cp2 = n * m, c * c, cp * cp
    f1, f2 = nm - c2, nm - cp2
    det = f1 * f2
    squares, cross = n * n + m * m, 2.0 * c * cp
    gap = det + unit4 - unit2 * (squares + cross)
    if f1 >= 0.0 and det >= unit4 and gap >= 0.0:
        return
    # Some value falls short of its bound: is it by more than rounding?
    (u1, v1, w1), (u2, v2, w2), (p, q, r, s) = s1, s2, block
    rho = 2.0 * _ROUND + e1 / n0 / (n0 + 1.0) + e2 / m0 / (m0 + 1.0)
    # 1^T |S1| and |S2| 1 (both squeezes are symmetric), around |C|.
    row1, row2 = abs(u1) + abs(v1), abs(v1) + abs(w1)
    col1, col2 = abs(u2) + abs(v2), abs(v2) + abs(w2)
    tau = row1 * (abs(p) * col1 + abs(q) * col2)
    tau += row2 * (abs(r) * col1 + abs(s) * col2)
    dc = rho * c + _ROUND * tau * scale  # for c and for c' (|c'| <= c)
    df1 = rho * nm + 2.0 * c * dc + _ROUND * (nm + c2)
    df2 = rho * nm + 2.0 * abs(cp) * dc + _ROUND * (nm + cp2)
    _require("nm - c^2", f1, 0.0, df1, unit2)
    ddet = abs(f1) * df2 + abs(f2) * df1 + df1 * df2 + _ROUND * abs(det)
    _require("det M", det, unit4, ddet, unit4)
    dgap = (
        ddet
        + unit2 * (2.0 * rho * squares + 2.0 * (c + abs(cp)) * dc)
        + _ROUND * (abs(det) + unit4 + unit2 * (squares + abs(cross)))
    )
    _require("det M + 1 - (n^2 + m^2 + 2cc')", gap, 0.0, dgap, unit4)


def _form_I_scalars(rows: list[list[float]]) -> tuple:
    """``(n, m, c, c', h1, h2)`` of standard form I, checked physical.

    ``rows`` is a symmetric 4x4 matrix as nested lists of floats.
    ``s_i = (u, v, w)`` is the symmetric squeeze ``S_i = [[u, v], [v, w]]``
    that makes the diagonal block ``G_i`` scalar, and ``e_i`` is the
    rounding estimate of its computed ``det G_i`` (see
    :func:`_scalarize_block`); ``S1 C S2 = R(x) diag(c, c') R(y)`` (see
    :func:`_signed_svd`).  Simon's condition is tested on these
    (:func:`_check_physical`) before the transform is built: ``h_i`` are
    ``R(x)^T S1`` and ``R(y) S2``, row-major.  Called once per state, by
    :func:`_checked_rows`, whose result a state keeps as its ``_form_I``;
    so only validation meets its errors, and form I read from a state
    raises none.

    Raises:
        NotPhysical: ``G1`` or ``G2`` not positive definite with
            ``det >= 1`` within its rounding estimate, or ``det`` overflows;
            then the first condition of :func:`_check_physical` that fails.
    """
    (a1, b1, p, q), (_, d1, r, s), (_, _, a2, b2), (*_, d2) = rows
    n, e1, u1, v1, w1 = _scalarize_block(a1, b1, d1, "G1")
    m, e2, u2, v2, w2 = _scalarize_block(a2, b2, d2, "G2")
    # Rows of S1 C, then S1 C S2 (S2 is symmetric).
    x0, y0 = u1 * p + v1 * r, u1 * q + v1 * s
    x1, y1 = v1 * p + w1 * r, v1 * q + w1 * s
    c, c_prime, x, y = _signed_svd(
        x0 * u2 + y0 * v2, x0 * v2 + y0 * w2, x1 * u2 + y1 * v2, x1 * v2 + y1 * w2
    )
    _check_physical(n, m, c, c_prime, (u1, v1, w1), (u2, v2, w2), e1, e2, (p, q, r, s))
    cx, sx, cy, sy = math.cos(x), math.sin(x), math.cos(y), math.sin(y)
    h1 = (cx * u1 + sx * v1, cx * v1 + sx * w1, cx * v1 - sx * u1, cx * w1 - sx * v1)
    h2 = (cy * u2 - sy * v2, cy * v2 - sy * w2, sy * u2 + cy * v2, sy * v2 + cy * w2)
    return n, m, c, c_prime, h1, h2


def _scalarize_block(
    a: float, b: float, d: float, name: str
) -> tuple[float, float, float, float, float]:
    """``(n, err, u, v, w)`` with ``h = [[u, v], [v, w]]``, ``det h = 1`` and
    ``h g h^T = n I`` for the block ``name = g = [[a, b], [b, d]]``.

    ``n = sqrt(det g)`` and
    ``h = sqrt(n) g^(-1/2) = adj(g + nI) / sqrt(n (tr g + 2n))``, the
    symmetric positive definite choice.  The denominator is evaluated
    as ``2n sqrt((tr g + 2n) / 4n)``, which stays finite wherever ``det g``
    does (entries up to ~1.3e154) and is exactly ``2n`` when ``g = nI``, so
    that h is then exactly I.

    A physical block has ``det g >= 1``.  The rounding estimate of the
    computed ``det g = a*d - b*b`` is ``err = 8 eps (|a*d| + b*b)``: a deficit
    below 1 within it is rounding and gives ``n = 1``, as does an excess of
    ``n`` over 1 below ``8 eps``.

    Raises:
        NotPhysical: ``det g`` below 1 beyond its rounding estimate, or not
            finite; or ``g`` negative definite.
    """
    err = _ROUND * (abs(a * d) + b * b)
    if not err < math.inf:
        raise NotPhysical(
            f"det {name} overflows: entries beyond ~1.3e154 are out of range"
        )
    det = a * d - b * b
    if not det - 1.0 >= -err:
        _require(f"det {name}", det, 1.0, err)
    if not a + d > 0.0:
        raise NotPhysical(
            f"{name} is negative definite (tr {name} = {a + d:.6g}); state "
            "violates the uncertainty relation"
        )
    n = math.sqrt(1.0 if 1.0 > det else det)  # max(det, 1.0)
    if n - 1.0 <= _ROUND:
        n = 1.0
    k = 2.0 * n * math.sqrt((a + d + 2.0 * n) / (4.0 * n))
    # 0.0 - b, not -b: a zero b gives +0.0, so an identity h has no -0.0.
    return n, err, (d + n) / k, (0.0 - b) / k, (a + n) / k


def _signed_svd(
    p: float, q: float, r: float, s: float
) -> tuple[float, float, float, float]:
    """``(c, c', x, y)`` with ``[[p, q], [r, s]] = R(x) diag(c, c') R(y)``.

    ``R(t) = [[cos t, -sin t], [sin t, cos t]]``, and ``c >= |c'|``, ``c >= 0``.
    The block is ``E I + F Z + G X + H J`` with ``Z = diag(1, -1)``,
    ``X = [[0, 1], [1, 0]]``, ``J = [[0, -1], [1, 0]]``; its rotation part
    ``E I + H J`` is ``hypot(E, H) R(alpha)`` and its reflection part
    ``F Z + G X`` is ``hypot(F, G) R(beta) Z``, so ``x = (alpha + beta)/2`` and
    ``y = (alpha - beta)/2``, with ``alpha = atan2(H, E)`` and
    ``beta = atan2(G, F)`` taken in ``(-pi, pi]``.  That choice fixes the
    joint pi rotation ``(x, y) -> (x + pi, y + pi)`` the values leave free.
    A diagonal block with ``p >= |s|`` gives ``x = y = 0``.  Any other
    diagonal block (``p < |s|``) gives angles of ``pi/2`` or ``pi``, where
    ``cos`` or ``sin`` is not 0 in floats (``cos(pi/2) = 6.1e-17``), so the
    form-I transform built from them has entries of that relative size
    where the exact value is 0: rounding of the transform only, as
    ``c`` and ``c'`` do not depend on the angles.
    """
    e, f = 0.5 * (p + s), 0.5 * (p - s)
    g, h = 0.5 * (r + q), 0.5 * (r - q)
    rot, ref = math.hypot(e, h), math.hypot(f, g)
    alpha, beta = math.atan2(h, e), math.atan2(g, f)
    return rot + ref, rot - ref, 0.5 * (alpha + beta), 0.5 * (alpha - beta)


def apply_llubo(state: CorrelationMatrix, op: Llubo) -> CorrelationMatrix:
    """Congruence action of a local operation on the correlation matrix.

    Returns ``blockdiag(h1, h2) @ M @ blockdiag(h1, h2).T`` revalidated.  The
    product's off-diagonal pairs are averaged first, as :func:`validate`
    averages them: its roundoff asymmetry grows with the squeezes, so the
    entry-scaled ``EPS_SYM`` check is meant for inputs, not for this
    congruence.  Its diagonal is kept as computed, so a finite one cannot
    overflow.
    """
    b = op.block_diagonal()
    moved = b @ state.m @ b.T
    i, j = np.triu_indices(4, 1)
    moved[i, j] = moved[j, i] = 0.5 * (moved[i, j] + moved[j, i])
    return validate(moved)


def llubo_invariants(state: CorrelationMatrix) -> LluboInvariants:
    """The four local invariants (det G1, det G2, det C, det M) of the
    state's floats, each the float nearest its exact value: +0.0 where that
    value is 0, and +-inf only where it is beyond the float range.

    Every float is an integer times a power of two, so the entries shifted
    by one shared power of two are integers.  :func:`_checked_rows` builds
    every state's rows exactly symmetric, so only the 10 entries on and
    above the diagonal are converted.  Rows 1-2 and rows 3-4 give six 2x2
    minors each: det G1, det C and det G2 are three of them, and det M is
    Laplace's expansion by complementary minors.  Each value is rounded
    once, by int true division, which is correctly rounded.
    """
    (a, b, c, d), (_, f, g, h), (*_, k, l), (*_, p) = state._rows
    ratios = [x.as_integer_ratio() for x in (a, b, c, d, f, g, h, k, l, p)]
    # Each denominator is a power of two, so scale // den is a shift.
    scale = max(den for _, den in ratios)
    top = scale.bit_length()
    a, b, c, d, f, g, h, k, l, p = (num << (top - den.bit_length()) for num, den in ratios)
    ab, ac, ad = a * f - b * b, a * g - c * b, a * h - d * b
    bc, bd, cd = b * g - c * f, b * h - d * f, c * h - d * g
    # Rows 3-4 are (c, g, k, l) and (d, h, l, p).  Their minors are named by
    # columns i, j, k, l; the one on columns i, j is cd.
    ik, il = c * l - k * d, c * p - l * d
    jk, jl, kl = g * l - k * h, g * p - l * h, k * p - l * l
    det_m = ab * kl - ac * jl + ad * jk + bc * il - bd * ik + cd * cd
    scale2 = scale * scale
    return _frozen(LluboInvariants, {
        "det_g1": _nearest(ab, scale2),
        "det_g2": _nearest(kl, scale2),
        "det_c": _nearest(cd, scale2),
        "det_m": _nearest(det_m, scale2 * scale2),
    })


def _nearest(num: int, den: int) -> float:
    """The float nearest ``num / den`` for a positive ``den``, +-inf beyond
    the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def variance_pair(state: CorrelationMatrix, pair: EprPair) -> float:
    """Total variance ``<(du)^2> + <(dv)^2>`` of an EPR-type pair.

    Evaluated directly from second moments; depends on ``a`` only through
    ``a**2``.
    """
    (x1, _, u, _), (_, p1, _, v), (_, _, x2, _), (*_, p2) = state._rows
    return _total_variance(pair.a, pair.sign_u, pair.sign_v, x1 + p1, x2 + p2, u, v)


def _total_variance(
    a: float, sign_u: int, sign_v: int, tr1: float, tr2: float, u: float, v: float
) -> float:
    """``<(du)^2> + <(dv)^2>`` of the pair ``EprPair(a, sign_u, sign_v)`` on a
    matrix with ``tr G1 = tr1``, ``tr G2 = tr2``, ``M[0, 2] = u`` and
    ``M[1, 3] = v``.  The factor 1/2, which converts matrix entries to
    operator variances, is applied to each term before the sum, so no term
    overflows where the result is finite."""
    a2 = a * a
    return a2 * (0.5 * tr1) + (0.5 * tr2) / a2 + sign_u * u + sign_v * v
