"""Separability decisions for two-mode Gaussian states.

The total-variance inequality gives a sufficient entanglement test for any
state; for Gaussian states the decision becomes exact after reduction to
standard form II, where separability is equivalent to positive
semidefiniteness of ``M - I`` and, in the separable regime, a Gaussian
P-representation serves as a constructive certificate.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import CorrelationMatrix, EprPair, Llubo, variance_pair
from .core import _check_coefficient, _frozen, _rows_array, _total_variance
from .exceptions import CvsepError, DegenerateForm, NotInSeparableRegime
from .standard_form import EPS_FORM, StandardFormII, _layout, to_standard_form_II

EPS_DECIDE = 1e-7  # half-width of the boundary band (relative to form scale)


class Decision(str, enum.Enum):
    """Three-valued separability verdict."""

    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    BOUNDARY = "boundary"


class TotalVarianceResult(NamedTuple):
    violated: bool
    total_variance: float
    bound: float


@dataclass(frozen=True, eq=False)
class PRepresentation:
    """Gaussian parameters of a positive P-distribution.

    ``covariance`` is the covariance of the coherent-state labels in
    quadrature coordinates, ``(M - I)/2`` of the reduced matrix;
    ``transform_back`` maps label space back to the original frame, so ``transform_back (2*cov + I) transform_back^T``
    reconstructs the input matrix.
    """

    covariance: np.ndarray
    transform_back: Llubo


@dataclass(frozen=True, eq=False)
class SeparabilityVerdict:
    """Decision plus its witnesses.

    ``margin = bound - total_variance`` is positive for entangled states.
    ``witness`` is the optimal pair when the form is non-degenerate and
    ``None`` otherwise (the variance data then refer to the fallback a = 1
    pair and are informational only; the decision always comes from the
    spectrum of ``M_II - I``).  ``certificate`` is not a constructor
    argument: it is computed from ``form`` on first read and cached.
    """

    decision: Decision
    total_variance: float
    bound: float
    witness: Optional[EprPair]
    margin: float
    form: StandardFormII
    min_eigenvalue: float

    @functools.cached_property
    def certificate(self) -> Optional[PRepresentation]:
        """P-representation of a SEPARABLE verdict's form, ``None`` otherwise.

        The covariance is ``(M_II - I)/2`` of the form as given, with no
        clipping: every SEPARABLE verdict of :func:`decide_separability`
        has ``min_eigenvalue >= 0``, so it is positive semidefinite.  Raises
        :class:`NotInSeparableRegime` as :func:`p_representation` does,
        which only a hand-built verdict can meet.
        """
        if self.decision is not Decision.SEPARABLE:
            return None
        return p_representation(self.form)


def _check_tol(name: str, tol: float) -> None:
    """Raise ValueError unless the tolerance ``name = tol`` is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


def total_variance_check(
    state: CorrelationMatrix, pair: EprPair, tol: float = EPS_DECIDE
) -> TotalVarianceResult:
    """Sufficient entanglement test from the total-variance inequality.

    Separable states obey ``total_variance >= a**2 + 1/a**2``; a violation
    (beyond ``tol``) certifies entanglement of any state, Gaussian or not.

    Raises:
        ValueError: ``tol`` is negative, NaN or infinite.
    """
    _check_tol("tol", tol)
    bound = pair.a * pair.a + 1.0 / (pair.a * pair.a)
    total = variance_pair(state, pair)
    return TotalVarianceResult(total < bound - tol, total, bound)


def construct_epr_pair(form: StandardFormII) -> EprPair:
    """Optimal witness pair for a non-degenerate standard form II.

    ``a0**2 = sqrt((m1-1)/(n1-1))`` with the mode-2 signs opposing the
    intermode correlations: ``u = a0 x1 - sgn(c1)/a0 x2`` and
    ``v = a0 p1 - sgn(c2)/a0 p2``.  A zero ``c2`` drops out of the variance,
    so either sign of ``v`` is optimal there; it gets ``sign_v = +1``, as
    the fallback pair does.

    Raises:
        DegenerateForm: a mode at vacuum purity or a vanishing ``c1``;
            callers must fall back to the spectral decision.
        ZeroCoefficient: ``a0**2`` or ``1/a0**2`` is not finite and nonzero.
    """
    return EprPair(*_witness(form))


def _witness(form: StandardFormII) -> tuple[float, int, int]:
    """``(a, sign_u, sign_v)`` of :func:`construct_epr_pair`, with every
    check of it and of ``EprPair``, in that order."""
    if form.degenerate:
        raise DegenerateForm("trivial form has no optimal pair")
    if form.n1 - 1.0 <= EPS_FORM or form.m1 - 1.0 <= EPS_FORM:
        raise DegenerateForm("a mode at vacuum purity has no optimal pair")
    if form.c1 == 0.0:
        raise DegenerateForm("vanishing intermode coefficient")
    a0_sq = math.sqrt((form.m1 - 1.0) / (form.n1 - 1.0))
    if form.n2 - 1.0 > EPS_FORM and form.m2 - 1.0 > EPS_FORM:
        alt = math.sqrt((form.m2 - 1.0) / (form.n2 - 1.0))
        if abs(a0_sq - alt) > EPS_FORM * max(1.0, a0_sq):
            raise CvsepError(
                f"inconsistent standard form: a0^2 = {a0_sq!r} vs {alt!r}"
            )
    a = math.sqrt(a0_sq)
    _check_coefficient(a)
    return a, -1 if form.c1 > 0.0 else 1, -1 if form.c2 > 0.0 else 1


def _block_min_eig(p: float, q: float, r: float) -> float:
    """Smallest eigenvalue of [[p, q], [q, r]]."""
    return 0.5 * (p + r) - math.hypot(0.5 * (p - r), q)


def _form_spectrum(form: StandardFormII) -> tuple[float, float]:
    """(min eigenvalue of M_II - I, entry scale of M_II - I)."""
    lam_x = _block_min_eig(form.n1 - 1.0, form.c1, form.m1 - 1.0)
    lam_p = _block_min_eig(form.n2 - 1.0, form.c2, form.m2 - 1.0)
    scale = max(
        abs(form.n1 - 1.0),
        abs(form.n2 - 1.0),
        abs(form.m1 - 1.0),
        abs(form.m2 - 1.0),
        abs(form.c1),
        abs(form.c2),
    )
    return min(lam_x, lam_p), scale


def _decide_form_II(form: StandardFormII, tol_decide: float) -> dict:
    """Decision core: a fresh dict of the :class:`SeparabilityVerdict`
    fields of ``form``, in declaration order, with every check of
    :func:`decide_separability` after its reduction.  ``witness`` is the
    optimal pair's ``(a, sign_u, sign_v)``, or ``None`` for a degenerate
    form, whose variance data belong to the fallback ``a = 1`` pair."""
    lam_min, scale = _form_spectrum(form)
    band = tol_decide * scale
    # A degenerate form is form I, whose negative eigenvalue proves
    # entanglement only where it is also form II: |c| = |c'| to rounding.
    if lam_min < -band and (
        not form.degenerate or form.c1 - abs(form.c2) <= EPS_FORM * form.c1
    ):
        decision = Decision.ENTANGLED
    elif lam_min >= band:
        decision = Decision.SEPARABLE
    elif form.c1 == 0.0 and form.c2 == 0.0 and lam_min >= 0.0:
        # Reduced form is exactly diagonal (product state); positive
        # semidefiniteness holds structurally, not by an eigenvalue margin.
        decision = Decision.SEPARABLE
    else:
        decision = Decision.BOUNDARY

    try:
        witness: Optional[tuple[float, int, int]] = _witness(form)
    except DegenerateForm:
        witness = None
    if witness is None:
        # a = 1 with signs opposing whatever correlations exist; the
        # correlated EPR choice (-1, +1) when they vanish.
        a = 1.0
        sign_u = -1 if form.c1 >= 0.0 else 1
        sign_v = 1 if form.c2 <= 0.0 else -1
    else:
        a, sign_u, sign_v = witness
    tr1, tr2 = form.n1 + form.n2, form.m1 + form.m2
    total = _total_variance(a, sign_u, sign_v, tr1, tr2, form.c1, form.c2)
    bound = a * a + 1.0 / (a * a)
    margin = bound - total

    if witness is not None:
        # The optimal pair's variance margin and the spectral test are
        # equivalent formulations; their signs must agree away from the edge.
        slack = 1e-11 * max(1.0, scale, abs(total))
        if decision is Decision.ENTANGLED and margin < -slack:
            raise CvsepError("witness margin contradicts spectral decision")
        if decision is Decision.SEPARABLE and margin > slack:
            raise CvsepError("witness margin contradicts spectral decision")

    return {
        "decision": decision,
        "total_variance": total,
        "bound": bound,
        "witness": witness,
        "margin": margin,
        "form": form,
        "min_eigenvalue": lam_min,
    }


def decide_separability(
    state: CorrelationMatrix, tol_decide: float = EPS_DECIDE
) -> SeparabilityVerdict:
    """Exact three-valued separability decision for a Gaussian state.

    Reduces to standard form II and tests ``M_II - I >= 0``; the boundary
    band is ``tol_decide`` relative to the entry scale of ``M_II - I``, so
    exactly reducible families (vacuum-bath decay, TMSV) are decided at
    their intrinsic precision.  A degenerate form, which is form I, is
    entangled only where ``c1 - |c2| <= EPS_FORM c1``, and boundary
    elsewhere below the band.  Non-degenerate forms also carry the optimal
    witness pair, whose variance margin is asserted consistent with the
    spectral decision.  Separable verdicts carry a P-representation
    certificate, built when first read.  The verdict freezes the record a
    private decision core returns from form II; ``scan_boundary`` reads it.

    The state passed :func:`~cvsep.core.validate`, so this never raises
    ``NotPhysical``.

    Raises:
        ValueError: ``tol_decide`` is negative, NaN or infinite.
        InvalidLlubo: a form's transform has a determinant rounded away
            from 1 (local squeezes beyond about e^6.7 per mode).
    """
    _check_tol("tol_decide", tol_decide)
    fields = _decide_form_II(to_standard_form_II(state), tol_decide)
    if (w := fields["witness"]) is not None:  # _witness ran EprPair's checks.
        fields["witness"] = _frozen(EprPair, {"a": w[0], "sign_u": w[1], "sign_v": w[2]})
    return _frozen(SeparabilityVerdict, fields)


def p_representation(form: StandardFormII) -> PRepresentation:
    """Gaussian P-distribution parameters of a separable standard form II.

    The distribution of coherent-state labels is the centered Gaussian with
    covariance ``(M_II - I)/2``, built from the form's entries as given: it
    exists exactly when ``M_II - I >= 0``, as the paper's separability
    condition states.  Its x and p sectors are decoupled 2x2 blocks, whose
    smallest eigenvalues are those :func:`decide_separability` tests.

    Raises:
        NotInSeparableRegime: a sector of ``M_II - I`` has an eigenvalue
            below 0.
    """
    lam_min, _ = _form_spectrum(form)
    if lam_min < 0.0:
        raise NotInSeparableRegime(
            f"M_II - I has eigenvalue {lam_min:.3e}; no positive P exists"
        )
    cov = _rows_array(0.5 * _layout(
        form.n1 - 1.0, form.n2 - 1.0, form.m1 - 1.0, form.m2 - 1.0, form.c1, form.c2
    ))
    return PRepresentation(covariance=cov, transform_back=form.transform.inverse())


def reconstruct_analytic(cert: PRepresentation) -> np.ndarray:
    """Exact mixture covariance implied by a P-certificate.

    Each coherent label contributes identity covariance (matrix units) plus
    its mean, so the reconstruction is ``T (2*cov + I) T^T``.
    """
    t = cert.transform_back.block_diagonal()
    return t @ (2.0 * cert.covariance + np.eye(4)) @ t.T
