"""Two-mode squeezed vacuum under independent thermal noise.

The worked scenario: a squeezed pair decoheres in two identical thermal
channels, staying in the symmetric standard-form family, and the exact
entanglement lifetime has a closed form.  Only the product ``eta * t``
enters the physics (eta carries inverse time, t carries time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

from .core import CorrelationMatrix, _validate_rows
from .separability import EPS_DECIDE, Decision, _decide_form_II
from .standard_form import _form_II


#: Returned by :func:`threshold_time` when the state never disentangles.
INFINITE = math.inf


@dataclass(frozen=True)
class ThermalScenario:
    """Squeezing r, damping eta, mean thermal occupation nbar, elapsed t."""

    r: float
    eta: float
    nbar: float
    t: float

    def __post_init__(self) -> None:
        # Negated so that NaN fails too; t = inf is the thermal product state.
        if not 0.0 <= self.r < math.inf:
            raise ValueError(
                f"squeezing parameter r must be finite and >= 0, got {self.r!r}"
            )
        try:  # cosh(2r)**2, the scale of det M, overflows from r = 177.79...
            scale = math.cosh(2.0 * self.r) ** 2
        except OverflowError:
            scale = math.inf
        if not scale < math.inf:  # 2r itself is inf from r = 8.99e307
            raise ValueError(f"cosh(2r)**2 overflows for r = {self.r!r}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(
                f"damping coefficient eta must be finite and > 0, got {self.eta!r}"
            )
        if not 0.0 <= self.nbar < math.inf:
            raise ValueError(
                f"thermal occupation nbar must be finite and >= 0, got {self.nbar!r}"
            )
        bath = 2.0 * self.nbar + 1.0  # n at long times, so det G1 is bath**2
        if not bath * bath < math.inf:  # from nbar = 6.7e153
            raise ValueError(f"(2 nbar + 1)**2 overflows for nbar = {self.nbar!r}")
        if not self.t >= 0.0:
            raise ValueError("elapsed time t must be >= 0")


def tmsv_matrix(r: float) -> CorrelationMatrix:
    """Two-mode squeezed vacuum: n = m = cosh 2r, c = -c' = sinh 2r."""
    return evolve_thermal(ThermalScenario(r=r, eta=1.0, nbar=0.0, t=0.0))


def evolve_thermal(scenario: ThermalScenario) -> CorrelationMatrix:
    """Correlation matrix after time t in independent thermal channels.

    ``n = m = cosh(2r) e^{-2 eta t} + (2 nbar + 1)(1 - e^{-2 eta t})`` and
    ``c = -c' = sinh(2r) e^{-2 eta t}``; t = 0 reproduces the squeezed
    vacuum and t -> infinity the thermal product state.  The entries are
    computed as Python floats and pass every check of
    :func:`~cvsep.core.validate`; the state builds its array on first read.
    """
    return _thermal_state(scenario.r, scenario.eta, scenario.nbar, scenario.t)


def _thermal_state(r: float, eta: float, nbar: float, t: float) -> CorrelationMatrix:
    """The validated form-I layout :func:`evolve_thermal` names."""
    # eta * t first: -2 eta is -inf from eta = 8.99e307, and -inf * 0 is NaN.
    d = math.exp(-2.0 * (eta * t))
    n = math.cosh(2.0 * r) * d + (2.0 * nbar + 1.0) * (1.0 - d)
    c = math.sinh(2.0 * r) * d
    return _validate_rows(
        [[n, 0.0, c, 0.0], [0.0, n, 0.0, -c], [c, 0.0, n, 0.0], [0.0, -c, 0.0, n]]
    )


def threshold_time(r: float, eta: float, nbar: float) -> float:
    """Closed-form entanglement lifetime of the thermal scenario.

    The state is entangled exactly while
    ``t < ln(1 + (1 - e^{-2r}) / (2 nbar)) / (2 eta)``.  A vacuum bath
    (nbar = 0) never disentangles the state, reported as :data:`INFINITE`.
    ``1 - e^{-2r}`` is ``-expm1(-2r)``, so a small ``r`` does not cancel.
    """
    if not r > 0.0:
        raise ValueError("squeezing parameter r must be > 0")
    if not eta > 0.0:
        raise ValueError("damping coefficient eta must be > 0")
    if not nbar >= 0.0:
        raise ValueError("thermal occupation nbar must be >= 0")
    if nbar == 0.0:
        return INFINITE
    gap = -math.expm1(-2.0 * r)
    ratio = 0.5 * gap / nbar  # not gap / (2 nbar): 2 nbar overflows from ~9e307
    if ratio == math.inf:  # subnormal nbar: the ratio overflows, its log does not
        log = math.log(gap) - math.log(2.0 * nbar)
    else:
        log = math.log1p(ratio)
    # 2 eta overflows from eta ~ 9e307: there divide by 2 and by eta in turn.
    return log / (2.0 * eta) if 2.0 * eta < math.inf else log / 2.0 / eta


class ScanPoint(NamedTuple):
    t: float
    margin: float
    decision: Decision


def scan_boundary(
    r: float,
    eta: float,
    nbar: float,
    t_max: float,
    resolution: int,
    t_min: float = 0.0,
) -> List[ScanPoint]:
    """Decision pipeline evaluated on a uniform time grid.

    Returns ``(t, margin, decision)`` per grid point
    ``t_min + (t_max - t_min) * i / (resolution - 1)`` over
    ``[t_min, t_max]``, which needs ``(t_max - t_min) * (resolution - 1)``
    finite; with nbar > 0 and a grid straddling the threshold, the sign
    change of the margin brackets the closed form within one step.
    Each point's state is built from floats as in :func:`evolve_thermal`,
    with every check of :func:`~cvsep.core.validate`, and reduced to form
    II's floats; the decision core of :func:`~cvsep.separability.decide_separability`
    gives the point's decision and margin, with no array, form object, witness pair or
    verdict: each point equals ``decide_separability(evolve_thermal(...))``.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not 0.0 <= t_min <= t_max < math.inf:
        raise ValueError("need 0 <= t_min <= t_max")
    try:  # the grid's products (t_max - t_min) * i must stay finite
        span = (t_max - t_min) * (resolution - 1)
    except OverflowError:  # a resolution beyond the float range
        span = math.inf
    if not span < math.inf:
        raise ValueError("(t_max - t_min) * (resolution - 1) overflows")
    ThermalScenario(r=r, eta=eta, nbar=nbar, t=t_min)  # rejects bad r, eta, nbar
    times = [t_min + (t_max - t_min) * i / (resolution - 1) for i in range(resolution)]
    points = []
    for t in times:
        state = _thermal_state(r, eta, nbar, t)
        n1, n2, m1, m2, c1, c2, _, _, _, degenerate = _form_II(state)
        out = _decide_form_II(n1, n2, m1, m2, c1, c2, degenerate, EPS_DECIDE)
        points.append(ScanPoint(t, out[4], out[0]))  # margin, decision
    return points
