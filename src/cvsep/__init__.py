"""Separability of two-mode Gaussian states from their correlation matrices.

Classifies any two-mode Gaussian state, given its 4x4 correlation matrix
(ordering x1, p1, x2, p2; vacuum = identity scaling), as entangled or
separable via the total-variance criterion made exact through standard-form
reductions, cross-checked by a partial-transpose oracle, and certified in
the separable case by an explicit positive P-representation.
"""

from .core import (
    CorrelationMatrix,
    EprPair,
    Llubo,
    LluboInvariants,
    apply_llubo,
    llubo_invariants,
    validate,
    variance_pair,
)
from .exceptions import (
    CvsepError,
    DegenerateForm,
    InvalidLlubo,
    NotFinite,
    NotInSeparableRegime,
    NotPhysical,
    NotSymmetric,
    RootNotBracketed,
    ZeroCoefficient,
)
from .oracle import (
    ModeSpec,
    SeparableEnsemble,
    ensemble_covariance,
    ppt_decision,
    reconstruct_from_p_samples,
    sample_random_physical,
    sample_separable_ensemble,
)
from .scenarios import (
    INFINITE,
    ScanPoint,
    ThermalScenario,
    evolve_thermal,
    scan_boundary,
    threshold_time,
    tmsv_matrix,
)
from .separability import (
    EPS_DECIDE,
    Decision,
    PRepresentation,
    SeparabilityVerdict,
    TotalVarianceResult,
    decide_separability,
    p_representation,
    total_variance_check,
)
from .standard_form import (
    StandardFormI,
    StandardFormII,
    balance_residuals,
    to_standard_form_I,
    to_standard_form_II,
)

__version__ = "1.0.0"

__all__ = [
    "CorrelationMatrix",
    "CvsepError",
    "Decision",
    "DegenerateForm",
    "EPS_DECIDE",
    "EprPair",
    "INFINITE",
    "InvalidLlubo",
    "Llubo",
    "LluboInvariants",
    "ModeSpec",
    "NotFinite",
    "NotInSeparableRegime",
    "NotPhysical",
    "NotSymmetric",
    "PRepresentation",
    "RootNotBracketed",
    "ScanPoint",
    "SeparabilityVerdict",
    "SeparableEnsemble",
    "StandardFormI",
    "StandardFormII",
    "TotalVarianceResult",
    "ThermalScenario",
    "ZeroCoefficient",
    "apply_llubo",
    "balance_residuals",
    "decide_separability",
    "ensemble_covariance",
    "evolve_thermal",
    "llubo_invariants",
    "p_representation",
    "ppt_decision",
    "reconstruct_from_p_samples",
    "sample_random_physical",
    "sample_separable_ensemble",
    "scan_boundary",
    "total_variance_check",
    "threshold_time",
    "tmsv_matrix",
    "to_standard_form_I",
    "to_standard_form_II",
    "validate",
    "variance_pair",
]
