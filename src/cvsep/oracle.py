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

import numpy as np

from .core import EPS_PSD, OMEGA, CorrelationMatrix, validate
from .exceptions import NotPhysical
from .separability import EPS_DECIDE, Decision, PRepresentation

#: Momentum reversal on mode 2 (the partial-transpose map on covariances).
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def min_eig_hermitian_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix A + iB.

    Uses the real symmetric embedding ``[[A, -B], [B, A]]``, whose spectrum
    is the spectrum of ``A + iB`` doubled, so no complex eigensolver is
    needed.
    """
    emb = np.block([[a, -b], [b, a]])
    return float(np.linalg.eigvalsh(emb)[0])


def ppt_decision(
    state: CorrelationMatrix, tol_decide: float = EPS_DECIDE
) -> Decision:
    """Partial-transpose separability test.

    The partial transpose acts on the correlation matrix as momentum
    reversal on mode 2; the state is separable iff the reversed matrix is
    still physical.  The margin is the smallest eigenvalue of the reversed
    ``M + i*Omega``: down to ``-EPS_PSD`` relative to the largest diagonal
    entry it is separable, and anything between that and ``-tol_decide``
    is boundary.  Unlike ``validate``, which allows only rounding
    estimates in form-I units, this slack is not local-invariant.

    Raises:
        ValueError: ``tol_decide`` is negative, NaN or infinite.
    """
    if not (math.isfinite(tol_decide) and tol_decide >= 0.0):
        raise ValueError(f"tol_decide must be finite and >= 0, got {tol_decide!r}")
    mt = _PT @ state.m @ _PT
    lam_min = min_eig_hermitian_pair(mt, OMEGA)
    scale = max(float(np.max(np.diag(mt))), 1.0)
    if lam_min >= -EPS_PSD * scale:
        return Decision.SEPARABLE
    if lam_min < -tol_decide * scale:
        return Decision.ENTANGLED
    return Decision.BOUNDARY


@dataclass(frozen=True, eq=False)
class ModeSpec:
    """Single-mode Gaussian: means plus a 2x2 covariance in matrix units."""

    mean_x: float
    mean_p: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_x) and math.isfinite(self.mean_p)):
            raise ValueError("mode means must be finite")
        arr = np.array(np.asarray(self.cov, dtype=float))
        if arr.shape != (2, 2):
            raise ValueError(f"mode covariance must be 2x2, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("mode covariance has non-finite entries")
        # cov + iJ >= 0: tr > 0 and det >= 1, within the rounding of ad - bc.
        (a, b), (c, d) = arr.tolist()
        tr, det = a + d, a * d - b * c
        err = 8.0 * np.finfo(float).eps * (abs(a * d) + abs(b * c))
        if not (tr > 0.0 and det - 1.0 >= -err):
            raise NotPhysical(f"mode covariance unphysical (tr {tr:.6g}, det {det!r})")
        arr.flags.writeable = False
        object.__setattr__(self, "cov", arr)


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
