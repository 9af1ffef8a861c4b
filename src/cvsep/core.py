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
from dataclasses import dataclass

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
EPS_PSD = 1e-9  # physicality slack, relative to the largest diagonal entry
EPS_DET = 1e-10  # allowed departure of local-block determinants from 1

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Symplectic form for two modes in (x1, p1, x2, p2) ordering.
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
OMEGA.flags.writeable = False
_NEG_OMEGA = -OMEGA  # signed zeros as in min_eig_hermitian_pair's embedding


def det2(a: np.ndarray) -> float:
    """Determinant of a 2x2 matrix, computed directly."""
    return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def min_eig_hermitian_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix A + iB.

    Uses the real symmetric embedding ``[[A, -B], [B, A]]``, whose spectrum
    is the spectrum of ``A + iB`` doubled, so no complex eigensolver is
    needed.
    """
    emb = np.block([[a, -b], [b, a]])
    return float(np.linalg.eigvalsh(emb)[0])


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated 4x4 correlation matrix of a two-mode Gaussian state.

    Construct through :func:`validate`; the wrapped array is read-only and
    may be a view into a stack validated in one call.
    """

    m: np.ndarray

    @property
    def g1(self) -> np.ndarray:
        """Mode-1 diagonal block (rows/cols 0..1)."""
        return self.m[:2, :2]

    @property
    def g2(self) -> np.ndarray:
        """Mode-2 diagonal block (rows/cols 2..3)."""
        return self.m[2:, 2:]

    @property
    def c(self) -> np.ndarray:
        """Intermode block (rows 0..1, cols 2..3)."""
        return self.m[:2, 2:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CorrelationMatrix({self.m.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Llubo:
    """Local linear unitary Bogoliubov operation.

    A pair of unit-determinant 2x2 real matrices acting independently on the
    two modes; it acts on a correlation matrix by congruence with
    ``blockdiag(h1, h2)``.
    """

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("h1", "h2"):
            blk = np.array(getattr(self, name), dtype=float)
            if blk.shape != (2, 2):
                raise InvalidLlubo(f"{name} must be 2x2, got {blk.shape}")
            _check_unit_det(name, blk)
            blk.flags.writeable = False
            object.__setattr__(self, name, blk)

    @classmethod
    def _fresh(cls, h1: np.ndarray, h2: np.ndarray) -> "Llubo":
        """Llubo of fresh float 2x2 blocks built by cvsep, without a copy.

        The blocks are still checked as in ``Llubo(h1, h2)``: rounding under
        strong squeezes can move a product's determinant away from 1.
        """
        _check_unit_det("h1", h1)
        _check_unit_det("h2", h2)
        op = object.__new__(cls)
        h1.flags.writeable = h2.flags.writeable = False
        object.__setattr__(op, "h1", h1)
        object.__setattr__(op, "h2", h2)
        return op

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
        """Element-wise inverse pair (adjugate; the blocks have det 1)."""
        return Llubo._fresh(_adj2(self.h1), _adj2(self.h2))


def _check_unit_det(name: str, blk: np.ndarray) -> None:
    # Python floats: the same IEEE arithmetic as det2, without numpy's
    # per-call overhead on four entries.
    (a, b), (c, d) = blk.tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise InvalidLlubo(f"{name} has non-finite entries")
    det = a * d - b * c
    if abs(det - 1.0) > EPS_DET:
        raise InvalidLlubo(f"det({name}) = {det!r} differs from 1 beyond {EPS_DET}")


def _adj2(a: np.ndarray) -> np.ndarray:
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


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
    ``u = x1 + x2, v = p1 - p2`` is ``EprPair(1.0, +1, -1)``.
    """

    a: float
    sign_u: int = 1
    sign_v: int = -1

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ZeroCoefficient("coefficient a must be a finite nonzero real")
        if self.a == 0.0:
            raise ZeroCoefficient("coefficient a must be nonzero")
        if self.sign_u not in (-1, 1) or self.sign_v not in (-1, 1):
            raise ValueError("signs must be -1 or +1")


def validate(m: np.ndarray) -> CorrelationMatrix:
    """Validate a 4x4 array as a physical two-mode correlation matrix.

    The input is symmetrized as ``(m + m.T)/2`` and physicality
    ``M + i*Omega >= 0`` is checked through the real symmetric embedding.
    Both tolerances are relative to ``max(1, largest diagonal entry)``, the
    entry scale of a physical matrix: the largest asymmetry ``|m - m.T|``
    may reach ``EPS_SYM`` times it, and the smallest eigenvalue may go down
    to ``-EPS_PSD`` times it.

    Raises:
        NotFinite: non-finite entries.
        NotSymmetric: asymmetry beyond ``EPS_SYM`` relative tolerance.
        NotPhysical: uncertainty relation violated beyond tolerance.
    """
    arr = np.asarray(m, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    return _validate_stack(arr[np.newaxis])[0]


def _validate_stack(arr: np.ndarray) -> list[CorrelationMatrix]:
    """:func:`validate` for each matrix of an (N, 4, 4) stack, in one eigensolve.

    Raises what :func:`validate` raises for the first invalid matrix, with
    the same message.  The results are read-only views into one stack.
    """
    finite = np.isfinite(arr).all(axis=(1, 2))
    # Matrices from the first non-finite one on are not checked further.
    count = len(arr) if finite.all() else int(np.argmin(finite))
    head = arr[:count]
    head_t = head.transpose(0, 2, 1)
    asym = np.abs(head - head_t).max(axis=(1, 2)).tolist()
    sym = 0.5 * (head + head_t)
    emb = np.empty((count, 8, 8))
    emb[:, :4, :4] = sym
    emb[:, :4, 4:] = _NEG_OMEGA
    emb[:, 4:, :4] = OMEGA
    emb[:, 4:, 4:] = sym
    lam = np.linalg.eigvalsh(emb)[:, 0].tolist()
    diag_max = np.diagonal(sym, axis1=1, axis2=2).max(axis=1)
    scales = np.maximum(diag_max, 1.0).tolist()
    for k in range(count):
        if asym[k] > EPS_SYM * scales[k]:
            raise NotSymmetric(
                f"asymmetry {asym[k]:.3e} exceeds {EPS_SYM} x max(1, max diagonal)"
            )
        if lam[k] < -EPS_PSD * scales[k]:
            raise NotPhysical(
                f"M + i*Omega has eigenvalue {lam[k]:.3e}; state violates the "
                "uncertainty relation"
            )
    if count < len(arr):
        raise NotFinite("correlation matrix has non-finite entries")
    sym.flags.writeable = False
    return [CorrelationMatrix(m) for m in sym]


def apply_llubo(state: CorrelationMatrix, op: Llubo) -> CorrelationMatrix:
    """Congruence action of a local operation on the correlation matrix.

    Returns ``blockdiag(h1, h2) @ M @ blockdiag(h1, h2).T`` revalidated.  The
    product is symmetrized first: its roundoff asymmetry grows with the
    squeezes, so the entry-scaled ``EPS_SYM`` check is meant for inputs, not
    for this congruence.
    """
    b = op.block_diagonal()
    moved = b @ state.m @ b.T
    return validate(0.5 * (moved + moved.T))


def llubo_invariants(state: CorrelationMatrix) -> LluboInvariants:
    """The four local invariants (det G1, det G2, det C, det M)."""
    return LluboInvariants(
        det_g1=det2(state.g1),
        det_g2=det2(state.g2),
        det_c=det2(state.c),
        det_m=float(np.linalg.det(state.m)),
    )


def variance_pair(state: CorrelationMatrix, pair: EprPair) -> float:
    """Total variance ``<(du)^2> + <(dv)^2>`` of an EPR-type pair.

    Evaluated directly from second moments; the factor 1/2 converts matrix
    entries to operator variances.  Depends on ``a`` only through ``a**2``.
    """
    if pair.a == 0.0:
        raise ZeroCoefficient("coefficient a must be nonzero")
    m = state.m
    a2 = pair.a * pair.a
    total = (
        a2 * (m[0, 0] + m[1, 1])
        + (m[2, 2] + m[3, 3]) / a2
        + 2.0 * pair.sign_u * m[0, 2]
        + 2.0 * pair.sign_v * m[1, 3]
    )
    return 0.5 * float(total)
