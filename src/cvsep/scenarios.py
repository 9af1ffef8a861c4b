"""Two-mode squeezed vacuum under independent thermal noise.

The worked scenario: a squeezed pair decoheres in two identical thermal
channels, staying in the symmetric standard-form family, and the exact
entanglement lifetime has a closed form.  Only the product ``eta * t``
enters the physics (eta carries inverse time, t carries time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .core import CorrelationMatrix, validate
from .separability import Decision, decide_separability


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
            raise ValueError("squeezing parameter r must be >= 0")
        try:  # cosh(2r)**2, the scale of det M, overflows from r = 177.79...
            math.cosh(2.0 * self.r) ** 2
        except OverflowError:
            raise ValueError(f"cosh(2r)**2 overflows for r = {self.r!r}") from None
        if not 0.0 < self.eta < math.inf:
            raise ValueError("damping coefficient eta must be > 0")
        if not 0.0 <= self.nbar < math.inf:
            raise ValueError("thermal occupation nbar must be >= 0")
        if not self.t >= 0.0:
            raise ValueError("elapsed time t must be >= 0")


def tmsv_matrix(r: float) -> CorrelationMatrix:
    """Two-mode squeezed vacuum: n = m = cosh 2r, c = -c' = sinh 2r."""
    return evolve_thermal(ThermalScenario(r=r, eta=1.0, nbar=0.0, t=0.0))


def evolve_thermal(scenario: ThermalScenario) -> CorrelationMatrix:
    """Correlation matrix after time t in independent thermal channels.

    ``n = m = cosh(2r) e^{-2 eta t} + (2 nbar + 1)(1 - e^{-2 eta t})`` and
    ``c = -c' = sinh(2r) e^{-2 eta t}``; t = 0 reproduces the squeezed
    vacuum and t -> infinity the thermal product state.
    """
    layouts = _thermal_layouts(scenario.r, scenario.eta, scenario.nbar, [scenario.t])
    return validate(layouts[0])


def _thermal_layouts(
    r: float, eta: float, nbar: float, times: Sequence[float]
) -> np.ndarray:
    """(len(times), 4, 4) stack of the form-I layouts :func:`evolve_thermal` names."""
    cosh_2r = math.cosh(2.0 * r)
    sinh_2r = math.sinh(2.0 * r)
    bath = 2.0 * nbar + 1.0
    decays = [math.exp(-2.0 * eta * t) for t in times]
    n = np.array([cosh_2r * d + bath * (1.0 - d) for d in decays])
    c = np.array([sinh_2r * d for d in decays])
    out = np.zeros((len(decays), 4, 4))
    for i in range(4):
        out[:, i, i] = n
    out[:, 0, 2] = out[:, 2, 0] = c
    out[:, 1, 3] = out[:, 3, 1] = -c
    return out


def threshold_time(r: float, eta: float, nbar: float) -> float:
    """Closed-form entanglement lifetime of the thermal scenario.

    The state is entangled exactly while
    ``t < ln(1 + (1 - e^{-2r}) / (2 nbar)) / (2 eta)``.  A vacuum bath
    (nbar = 0) never disentangles the state, reported as :data:`INFINITE`.
    """
    if not r > 0.0:
        raise ValueError("squeezing parameter r must be > 0")
    if not eta > 0.0:
        raise ValueError("damping coefficient eta must be > 0")
    if not nbar >= 0.0:
        raise ValueError("thermal occupation nbar must be >= 0")
    if nbar == 0.0:
        return INFINITE
    gap = 1.0 - math.exp(-2.0 * r)
    ratio = gap / (2.0 * nbar)
    if ratio == math.inf:  # subnormal nbar: the ratio overflows, its log does not
        return (math.log(gap) - math.log(2.0 * nbar)) / (2.0 * eta)
    return math.log1p(ratio) / (2.0 * eta)


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

    Returns ``(t, margin, decision)`` per grid point over
    ``[t_min, t_max]``; with nbar > 0 and a grid straddling the threshold,
    the sign change of the margin brackets the closed form within one step.
    The grid's layouts are built in one call, then validated and decided
    one by one: each point equals ``decide_separability(evolve_thermal(...))``.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not 0.0 <= t_min <= t_max < math.inf:
        raise ValueError("need 0 <= t_min <= t_max")
    ThermalScenario(r=r, eta=eta, nbar=nbar, t=t_min)  # rejects bad r, eta, nbar
    times = [t_min + (t_max - t_min) * i / (resolution - 1) for i in range(resolution)]
    points = []
    for t, layout in zip(times, _thermal_layouts(r, eta, nbar, times)):
        verdict = decide_separability(validate(layout))
        points.append(ScanPoint(t=t, margin=verdict.margin, decision=verdict.decision))
    return points
