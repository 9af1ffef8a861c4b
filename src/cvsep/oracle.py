"""Independent verification machinery.

Everything here cross-checks the main decision pipeline without sharing its
code path: the partial-transpose test (necessary and sufficient for two-mode
Gaussian states), seeded generators of random physical states and of
explicitly separable mixtures, and Monte Carlo reconstruction of a state
from its P-representation certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import EPS_SYM, CorrelationMatrix, _real_array, _rows_array, validate
from .exceptions import NotPhysical, NotSymmetric
from .separability import EPS_DECIDE, Decision, PRepresentation, _check_tol


def ppt_decision(
    state: CorrelationMatrix, tol_decide: float = EPS_DECIDE
) -> Decision:
    """Partial-transpose separability test, exact on the state's floats.

    The state is separable iff momentum reversal on mode 2 gives a physical
    ``M~``: ``M`` is positive definite and ``M~``'s smallest symplectic
    eigenvalue ``nu~`` is at least 1.  With ``M = [[A, C], [C^T, B]]`` and
    ``D = det A + det B - 2 det C``, ``nu~^2 >= t`` iff ``D >= 2t`` and
    ``det M - t D + t^2 >= 0`` (Serafini, Illuminati & De Siena 2004).
    These local invariants are evaluated in rational arithmetic, so the
    test is exact and no local operation that is exact in floats changes
    it.  ``nu~^2 >= 1`` is separable and ``1 - tol_decide <= nu~^2 < 1``
    boundary (the band is in units of ``nu~^2``); anything below, or a
    matrix that ``validate`` accepted within rounding but that is not
    positive definite, is entangled.

    Raises:
        ValueError: ``tol_decide`` is negative, NaN or infinite.
    """
    _check_tol("tol_decide", tol_decide)
    u, v, w, x = ([Fraction(e) for e in row] for row in state._rows)
    # 2x2 minors of rows 1-2 and 3-4; column pairs k and 5 - k are complementary.
    top = [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(4), 2)]
    bottom = [w[i] * x[j] - w[j] * x[i] for i, j in combinations(range(4), 2)]
    det_m = sum(s * p * q for s, p, q in zip((1, -1, 1, 1, -1, 1), top, bottom[::-1]))
    delta = top[0] + bottom[5] - 2 * top[5]  # det A + det B - 2 det C
    # Sylvester's leading minors; the 3x3 one expanded along row 3.
    minor3 = w[0] * top[3] - w[1] * top[1] + w[2] * top[0]
    definite = min(u[0], top[0], minor3, det_m) > 0

    def at_least(t) -> bool:
        return definite and delta >= 2 * t and det_m - t * delta + t * t >= 0

    if at_least(1):
        return Decision.SEPARABLE
    if at_least(1 - Fraction(float(tol_decide))):
        return Decision.BOUNDARY
    return Decision.ENTANGLED


@dataclass(frozen=True, eq=False)
class ModeSpec:
    """Single-mode Gaussian: means plus a 2x2 covariance in matrix units."""

    mean_x: float
    mean_p: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_x) and math.isfinite(self.mean_p)):
            raise ValueError("mode means must be finite")
        arr = _real_array(self.cov, ValueError, "mode covariance")
        if arr.shape != (2, 2):
            raise ValueError(f"mode covariance must be 2x2, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("mode covariance has non-finite entries")
        (a, b), (c, d) = arr.tolist()
        # Checked as validate checks a matrix, and never symmetrized, so an
        # accepted cov keeps its bits.
        if abs(b - c) > EPS_SYM * max(1.0, a, d):
            raise NotSymmetric(
                f"mode covariance asymmetry {abs(b - c):.3e} exceeds "
                f"{EPS_SYM} x max(1, max diagonal)"
            )
        # cov + iJ >= 0: tr > 0 and det >= 1, within the rounding of ad - bc.
        tr, det = a + d, a * d - b * c
        err = 8.0 * np.finfo(float).eps * (abs(a * d) + abs(b * c))
        if not (tr > 0.0 and det - 1.0 >= -err):
            raise NotPhysical(f"mode covariance unphysical (tr {tr:.6g}, det {det!r})")
        object.__setattr__(self, "cov", _rows_array(((a, b), (c, d))))


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Explicit convex mixture of product Gaussians.

    Components are ``(weight, mode1, mode2)`` triples with positive weights
    summing to one; by construction the mixture is separable.
    """

    components: tuple[tuple[float, ModeSpec, ModeSpec], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        weights = [w for w, _, _ in self.components]
        # Negated comparisons, so that a NaN weight fails them too.
        if not all(0.0 < w <= 1.0 for w in weights):
            raise ValueError("weights must lie in (0, 1]")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1")


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _random_mode(rng: np.random.Generator) -> ModeSpec:
    n_th = rng.uniform(0.0, 3.0)
    squeeze = math.exp(rng.uniform(-1.0, 1.0))  # parameter in [1/e, e]
    rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
    nu = 2.0 * n_th + 1.0
    cov = rot @ np.diag([nu * squeeze**2, nu / squeeze**2]) @ rot.T
    return ModeSpec(
        mean_x=rng.uniform(-2.0, 2.0),
        mean_p=rng.uniform(-2.0, 2.0),
        cov=0.5 * (cov + cov.T),
    )


def sample_separable_ensemble(
    rng_seed: int, max_components: int
) -> SeparableEnsemble:
    """Deterministic random separable mixture.

    Each mode of each component is a rotated squeezed thermal state
    (squeeze parameter in [1/e, e], thermal occupation in [0, 3]) displaced
    by means in [-2, 2]; weights come from a normalized uniform draw.
    """
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    rng = np.random.default_rng(rng_seed)
    count = int(rng.integers(1, max_components + 1))
    raw = np.maximum(rng.uniform(size=count), 1e-9)
    weights = raw / raw.sum()
    components = tuple(
        (float(w), _random_mode(rng), _random_mode(rng)) for w in weights
    )
    return SeparableEnsemble(components)


def ensemble_covariance(ensemble: SeparableEnsemble) -> CorrelationMatrix:
    """Mixture second moments of an explicit separable ensemble.

    Weighted component covariances plus twice the scatter of the component
    means (the factor converts the mean-scatter covariance to matrix units).
    """
    mix = np.zeros((4, 4))
    mean_sq = np.zeros((4, 4))
    mean = np.zeros(4)
    for w, m1, m2 in ensemble.components:
        mix[:2, :2] += w * m1.cov
        mix[2:, 2:] += w * m2.cov
        mu = np.array([m1.mean_x, m1.mean_p, m2.mean_x, m2.mean_p])
        mean_sq += w * np.outer(mu, mu)
        mean += w * mu
    scatter = mean_sq - np.outer(mean, mean)
    return validate(mix + 2.0 * scatter)


def _random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    r = math.exp(rng.uniform(-1.0, 1.0))
    return (
        _rotation(rng.uniform(0.0, 2.0 * math.pi))
        @ np.diag([r, 1.0 / r])
        @ _rotation(rng.uniform(0.0, 2.0 * math.pi))
    )


def _beam_splitter(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    out = np.zeros((4, 4))
    out[:2, :2] = c * np.eye(2)
    out[2:, 2:] = c * np.eye(2)
    out[:2, 2:] = s * np.eye(2)
    out[2:, :2] = -s * np.eye(2)
    return out


def sample_random_physical(rng_seed: int) -> CorrelationMatrix:
    """Deterministic random physical two-mode Gaussian state.

    Built as ``S D S^T`` with symplectic eigenvalues drawn in [1, 4] and an
    Euler-style random symplectic (local rotation-squeeze-rotation layers
    around a two-mode mixing rotation), so both separable and entangled
    states occur with substantial frequency.
    """
    rng = np.random.default_rng(rng_seed)
    nu1, nu2 = rng.uniform(1.0, 4.0, size=2)
    d = np.diag([nu1, nu1, nu2, nu2])
    pre = np.zeros((4, 4))
    pre[:2, :2] = _random_local_symplectic(rng)
    pre[2:, 2:] = _random_local_symplectic(rng)
    post = np.zeros((4, 4))
    post[:2, :2] = _random_local_symplectic(rng)
    post[2:, 2:] = _random_local_symplectic(rng)
    s = post @ _beam_splitter(rng.uniform(0.0, 2.0 * math.pi)) @ pre
    return validate(s @ d @ s.T)


def reconstruct_from_p_samples(
    cert: PRepresentation, count: int, rng_seed: int
) -> CorrelationMatrix:
    """Monte Carlo reconstruction of a state from its P-certificate.

    Draws coherent-state labels from the certificate's Gaussian and forms
    the empirical mixture covariance: each label contributes identity
    covariance (matrix units) around its mean, so the estimate is
    ``I + 2 * sample_cov`` mapped back through ``transform_back``.
    Converges to the certified state at the Monte Carlo rate.
    """
    if count < 1000:
        raise ValueError("count must be >= 1000 for a stable estimate")
    rng = np.random.default_rng(rng_seed)
    w, v = np.linalg.eigh(cert.covariance)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    labels = rng.standard_normal((count, 4)) @ root.T
    centered = labels - labels.mean(axis=0)
    sample_cov = centered.T @ centered / (count - 1)
    t = cert.transform_back.block_diagonal()
    return validate(t @ (np.eye(4) + 2.0 * sample_cov) @ t.T)
