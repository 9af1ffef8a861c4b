"""Seeded inputs, the timed public call and the reference check of each workload.

Every workload is a pool of items generated from the workload seed before
timing starts.  ``op(item)`` is the only code inside the timed window; it
makes the public cvsep call(s) that one operation consists of.
``check(item, result)`` runs after the window and compares the result with
a reference that does not share cvsep's decision path.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Items per pass over the pool (one pass takes 3-5 s on a 2-core Xeon).  The
#: slowest 1% of a pool sets the p99, so a pool must hold enough items for
#: that 1% to look alike from seed to seed.
POOL_SIZES = {"survey": 8192, "thermal_scan": 2048, "edge": 2048, "cli_check": 2048}

#: Grid points per thermal scan call.  Even, so no grid point is exactly t*.
SCAN_POINTS = 12

# The state-file format read by ``cvsep check`` (written here independently).
_ORDERING = "x1p1x2p2"
_SCALING = "vacuum-identity"


class Tally(NamedTuple):
    """Outcome of one operation, in states."""

    boundary: int  # states given a BOUNDARY verdict
    wrong: int  # states whose verdict or output contradicts the reference


class Workload:
    STATES = 1  # states one operation decides
    items: list

    def close(self) -> None:
        """Remove what set-up left on disk."""


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _local_op(rng: np.random.Generator, max_squeeze: float) -> np.ndarray:
    """blockdiag(h1, h2) with each h a rotation-squeeze-rotation, squeeze up to e^max."""
    out = np.zeros((4, 4))
    for k in (0, 2):
        s = rng.uniform(-max_squeeze, max_squeeze)
        out[k : k + 2, k : k + 2] = (
            _rotation(rng.uniform(0.0, 2.0 * math.pi))
            @ np.diag([math.exp(s), math.exp(-s)])
            @ _rotation(rng.uniform(0.0, 2.0 * math.pi))
        )
    return out


def _form_i(n: float, m: float, c: float, c_prime: float) -> np.ndarray:
    return np.array(
        [
            [n, 0.0, c, 0.0],
            [0.0, n, 0.0, c_prime],
            [c, 0.0, m, 0.0],
            [0.0, c_prime, 0.0, m],
        ]
    )


def _item_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**32, size=count)]


def _latin_hypercube(rng: np.random.Generator, count: int, ranges) -> list[np.ndarray]:
    """One uniform draw per stratum of each range, strata shuffled per axis.

    Every seed then covers each parameter range evenly, so the mix of cheap
    and expensive scans barely changes from seed to seed.
    """
    out = []
    for lo, hi in ranges:
        u = (rng.permutation(count) + rng.uniform(size=count)) / count
        out.append(lo + (hi - lo) * u)
    return out


class Survey(Workload):
    """Random physical states as raw arrays; reference: the PPT oracle."""

    def __init__(self, cv, seed: int, pool: int) -> None:
        self.cv = cv
        rng = np.random.default_rng(seed)
        self.items = [
            np.array(cv.sample_random_physical(s).m) for s in _item_seeds(rng, pool)
        ]

    def op(self, m: np.ndarray):
        state = self.cv.validate(m)
        return state, self.cv.decide_separability(state)

    def check(self, m: np.ndarray, result) -> Tally:
        state, verdict = result
        boundary = self.cv.Decision.BOUNDARY
        if verdict.decision is boundary:
            return Tally(1, 0)
        ref = self.cv.ppt_decision(state)
        return Tally(0, int(ref is not boundary and ref is not verdict.decision))


class ThermalScan(Workload):
    """``scan_boundary`` over (r, eta, nbar) grids to twice the closed-form t*.

    Reference: ``threshold_time``; a non-boundary point on the wrong side of
    t* is wrong.
    """

    STATES = SCAN_POINTS

    def __init__(self, cv, seed: int, pool: int) -> None:
        self.cv = cv
        rng = np.random.default_rng(seed)
        r, eta, nbar = _latin_hypercube(rng, pool, [(0.1, 10.0), (0.5, 2.0), (0.05, 3.0)])
        self.items = [
            (*args, cv.threshold_time(*args))
            for args in zip(r.tolist(), eta.tolist(), nbar.tolist())
        ]

    def op(self, item):
        r, eta, nbar, t_star = item
        return self.cv.scan_boundary(r, eta, nbar, 2.0 * t_star, SCAN_POINTS)

    def check(self, item, points) -> Tally:
        t_star = item[3]
        d = self.cv.Decision
        boundary = wrong = 0
        for p in points:
            if p.decision is d.BOUNDARY:
                boundary += 1
            elif p.decision is not (d.ENTANGLED if p.t < t_star else d.SEPARABLE):
                wrong += 1
        return Tally(boundary, wrong + SCAN_POINTS - len(points))


class EdgeItem(NamedTuple):
    m: np.ndarray
    label: object  # expected Decision, or None where either side is acceptable


class Edge(Workload):
    """Adversarial families with labels known by construction, in turn.

    The congruence results are deliberately left unsymmetrized: a library
    that rejects their roundoff asymmetry fails those operations.
    """

    def __init__(self, cv, seed: int, pool: int) -> None:
        self.cv = cv
        rng = np.random.default_rng(seed)
        families = (self._large_squeeze, self._near_edge, self._near_vacuum, self._equal_c)
        self.items = []
        for i in range(pool):
            base, label, max_squeeze = families[i % len(families)](rng)
            b = _local_op(rng, max_squeeze)
            self.items.append(EdgeItem(b @ base @ b.T, label))

    def _large_squeeze(self, rng):
        # Thermal two-mode squeezed state, symplectic eigenvalue nu; its
        # smallest partially transposed symplectic eigenvalue is nu e^{-2r}.
        d = self.cv.Decision
        r = rng.uniform(0.0, 12.0)
        nu = rng.uniform(1.0, 3.0)
        n, c = nu * math.cosh(2.0 * r), nu * math.sinh(2.0 * r)
        edge = math.log(nu) - 2.0 * r
        label = None if abs(edge) < 1e-6 else (d.ENTANGLED if edge < 0 else d.SEPARABLE)
        return _form_i(n, n, c, -c), label, 6.0

    def _near_edge(self, rng):
        # Balanced (form II) layout with M - I >= 0 and its smallest
        # eigenvalue in [0, 1e-6]: separable (M - I >= 0 gives a positive P).
        k = rng.uniform(1.0, 4.0)
        a1, a2 = rng.uniform(0.1, 3.0, size=2)
        lam = rng.uniform(0.0, 1e-6)
        eps = lam * (k + 1.0) / (2.0 * math.sqrt(k))
        c1 = math.sqrt(k) * a1 - eps
        c2 = -(math.sqrt(k) * a2 - eps)
        base = np.array(
            [
                [1.0 + k * a1, 0.0, c1, 0.0],
                [0.0, 1.0 + k * a2, 0.0, c2],
                [c1, 0.0, 1.0 + a1, 0.0],
                [0.0, c2, 0.0, 1.0 + a2],
            ]
        )
        return base, self.cv.Decision.SEPARABLE, 2.0

    def _near_vacuum(self, rng):
        d = self.cv.Decision
        if rng.uniform() < 0.5:
            # Thermal product state with one mode a hair above vacuum.
            nu1 = 1.0 + 10.0 ** rng.uniform(-12.0, -6.0)
            nu2 = rng.uniform(1.0, 3.0)
            return _form_i(nu1, nu2, 0.0, 0.0), d.SEPARABLE, 1.0
        # Weakly squeezed pure two-mode squeezed vacuum: entangled for r > 0.
        r = 10.0 ** rng.uniform(-6.0, -3.0)
        n, c = math.cosh(2.0 * r), math.sinh(2.0 * r)
        return _form_i(n, n, c, -c), d.ENTANGLED, 1.0

    def _equal_c(self, rng):
        d = self.cv.Decision
        if rng.uniform() < 0.5:
            # c' = c with M - I >= 0: separable.
            n, m = rng.uniform(1.0, 4.0, size=2)
            c = rng.uniform(0.0, 1.0) * math.sqrt((n - 1.0) * (m - 1.0))
            return _form_i(n, m, c, c), d.SEPARABLE, 1.0
        # Symmetric c' = -c with symplectic eigenvalue nu: entangled iff n - c < 1.
        n = rng.uniform(1.0, 5.0)
        nu = rng.uniform(1.0, n)
        c = math.sqrt(n * n - nu * nu)
        gap = n - c - 1.0
        label = None if abs(gap) < 1e-9 else (d.ENTANGLED if gap < 0 else d.SEPARABLE)
        return _form_i(n, n, c, -c), label, 1.0

    def op(self, item: EdgeItem):
        return self.cv.decide_separability(self.cv.validate(item.m))

    def check(self, item: EdgeItem, verdict) -> Tally:
        if verdict.decision is self.cv.Decision.BOUNDARY:
            return Tally(1, 0)
        return Tally(0, int(item.label is not None and verdict.decision is not item.label))


class CliItem(NamedTuple):
    path: str
    matrix: list


class CliCheck(Workload):
    """``cvsep check --json`` in-process on files of separable mixtures.

    Reference: exit code 0 (separable) and a ``state`` block equal to the
    file's matrix.
    """

    def __init__(self, cv, seed: int, pool: int, workdir: Path) -> None:
        import cvsep.cli

        self.cv = cv
        self.cli = cvsep.cli
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli_check-", dir=workdir))
        rng = np.random.default_rng(seed)
        self.items = []
        for i, s in enumerate(_item_seeds(rng, pool)):
            m = cv.ensemble_covariance(cv.sample_separable_ensemble(s, 5)).m
            doc = {"matrix": m.tolist(), "ordering": _ORDERING, "scaling": _SCALING}
            path = self.dir / f"state-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.items.append(CliItem(str(path), doc["matrix"]))

    def op(self, item: CliItem):
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.cli.main(["check", "--json", item.path])
        return code, out.getvalue()

    def check(self, item: CliItem, result) -> Tally:
        code, text = result
        try:
            report = json.loads(text)
            ok = (
                code == 0
                and report["decision"] == "separable"
                and report["state"]["matrix"] == item.matrix
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        boundary = int(code == 2)
        return Tally(boundary, int(not ok and not boundary))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = ("survey", "thermal_scan", "edge", "cli_check")


def make(name: str, cv, seed: int, pool: int | None, workdir: Path) -> Workload:
    """Build workload ``name`` from ``seed`` with ``pool`` items per pass."""
    size = POOL_SIZES[name] if pool is None else pool
    if name == "survey":
        return Survey(cv, seed, size)
    if name == "thermal_scan":
        return ThermalScan(cv, seed, size)
    if name == "edge":
        return Edge(cv, seed, size)
    if name == "cli_check":
        return CliCheck(cv, seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
