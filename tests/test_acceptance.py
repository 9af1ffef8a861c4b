"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated: decision band 1e-7,
balance residuals 1e-8 / 1e-10, invariant drift 1e-9 relative, lifetime
agreement 1e-6 time units, witness variance 1e-10, certificates 1e-8
analytic and 5e-2 Monte Carlo at 1e6 samples.
"""

import math
import time

import numpy as np
import pytest

import cvsep as cv

N_SURVEY = 10_000
N_ENSEMBLES = 10_000

_timings: dict[str, float] = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def survey():
    """Verdicts of both deciders over the seeded random-state survey."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(N_SURVEY):
        state = cv.sample_random_physical(seed)
        rows.append((state, cv.decide_separability(state), cv.ppt_decision(state)))
    _timings["survey"] = time.perf_counter() - t0
    return rows


def test_criterion_1_ppt_equivalence(survey):
    t0 = time.perf_counter()
    disagreements = 0
    compared = 0
    boundary = 0
    entangled = 0
    separable = 0
    for _, verdict, ppt in survey:
        if verdict.decision is cv.Decision.ENTANGLED:
            entangled += 1
        elif verdict.decision is cv.Decision.SEPARABLE:
            separable += 1
        if cv.Decision.BOUNDARY in (verdict.decision, ppt):
            boundary += 1
            continue
        compared += 1
        if verdict.decision is not ppt:
            disagreements += 1
    elapsed = _timings["survey"] + (time.perf_counter() - t0)
    _timings["c1"] = elapsed
    ok = (
        disagreements == 0
        and compared >= N_SURVEY - 10
        and entangled >= N_SURVEY // 10
        and separable >= N_SURVEY // 10
        and elapsed < 30.0
    )
    _report(
        1,
        ok,
        f"{compared} non-boundary states, {disagreements} disagreements, "
        f"{entangled} entangled / {separable} separable / {boundary} boundary, "
        f"{elapsed:.1f} s",
    )
    assert disagreements == 0
    assert entangled >= N_SURVEY // 10 and separable >= N_SURVEY // 10
    assert elapsed < 30.0


def test_criterion_2_total_variance_soundness():
    t0 = time.perf_counter()
    grid = np.logspace(math.log10(1.0 / 8.0), math.log10(8.0), 17)
    pairs = [
        cv.EprPair(float(a), su, sv)
        for a in grid
        for su, sv in ((1, -1), (-1, 1))
    ]
    violations = 0
    worst = math.inf
    for seed in range(N_ENSEMBLES):
        state = cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 10))
        for pair in pairs:
            res = cv.total_variance_check(state, pair)
            worst = min(worst, res.total_variance - res.bound)
            if res.violated:
                violations += 1
    _timings["c2"] = time.perf_counter() - t0
    ok = violations == 0
    _report(
        2,
        ok,
        f"{N_ENSEMBLES} ensembles x {len(pairs)} pairs, {violations} violations, "
        f"closest approach to the bound {worst:.3e}",
    )
    assert violations == 0


def _bisect_entanglement_boundary(r: float, eta: float, nbar: float) -> float:
    # The verdict margin (total-variance gap of the witness pair) changes
    # sign exactly at the separability boundary; bisect on its sign.
    def margin(t: float) -> float:
        return cv.decide_separability(
            cv.evolve_thermal(cv.ThermalScenario(r=r, eta=eta, nbar=nbar, t=t))
        ).margin

    lo, hi = 0.0, 8.0 / eta
    assert margin(lo) > 0.0 > margin(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_entanglement_lifetime():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for r in (0.25, 0.5, 1.0, 2.0):
        for eta in (0.5, 1.0):
            for nbar in (0.5, 1.0, 2.0):
                points += 1
                t_closed = cv.threshold_time(r, eta, nbar)
                t_pipeline = _bisect_entanglement_boundary(r, eta, nbar)
                worst = max(worst, abs(t_pipeline - t_closed))
    _timings["c3"] = time.perf_counter() - t0
    ok = worst < 1e-6 and points == 24
    _report(3, ok, f"{points} grid points, worst lifetime deviation {worst:.3e}")
    assert points == 24
    assert worst < 1e-6


def test_criterion_4_vacuum_bath_always_entangled():
    t0 = time.perf_counter()
    checked = 0
    failures = 0
    for r in (0.25, 1.0, 2.0):
        for eta_t in np.linspace(0.0, 20.0, 81):
            state = cv.evolve_thermal(
                cv.ThermalScenario(r=r, eta=1.0, nbar=0.0, t=float(eta_t))
            )
            checked += 1
            if cv.decide_separability(state).decision is not cv.Decision.ENTANGLED:
                failures += 1
    _timings["c4"] = time.perf_counter() - t0
    ok = failures == 0
    _report(4, ok, f"{checked} vacuum-bath states up to eta*t = 20, {failures} not entangled")
    assert failures == 0


def test_criterion_5_tmsv_variance_law():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        state = cv.tmsv_matrix(r)
        form = cv.to_standard_form_II(state)
        pair = cv.separability.construct_epr_pair(form)
        # The squeezed vacuum is already in its standard form II.
        np.testing.assert_array_equal(form.transform.h1, np.eye(2))
        total = cv.variance_pair(state, pair)
        worst = max(worst, abs(total - 2.0 * math.exp(-2.0 * r)))
    _timings["c5"] = time.perf_counter() - t0
    ok = worst < 1e-10
    _report(5, ok, f"worst |variance - 2 e^(-2r)| = {worst:.3e} over r in {{0.1, 0.5, 1, 2}}")
    assert worst < 1e-10


def test_criterion_6_standard_form_fidelity(survey):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_gap = 0.0
    worst_eq13 = 0.0
    worst_eq14 = 0.0
    worst_inv = 0.0
    for state, verdict, _ in survey:
        form = verdict.form
        if not form.degenerate:
            ratio_res, gap_res = cv.balance_residuals(form)
            worst_ratio = max(worst_ratio, abs(ratio_res))
            worst_gap = max(worst_gap, abs(gap_res))
            f1 = cv.to_standard_form_I(state)
            n, m = f1.n, f1.m
            r1, r2 = form.r1, form.r2
            k1 = (n / r1 - 1.0) / (n * r1 - 1.0)
            k2 = (m / r2 - 1.0) / (m * r2 - 1.0)
            worst_eq13 = max(worst_eq13, abs(k1 - k2))
            s = math.sqrt(r1 * r2)
            lhs = s * abs(f1.c) - abs(f1.c_prime) / s
            rhs = math.sqrt(max((n * r1 - 1.0) * (m * r2 - 1.0), 0.0)) - math.sqrt(
                max((n / r1 - 1.0) * (m / r2 - 1.0), 0.0)
            )
            worst_eq14 = max(worst_eq14, abs(lhs - rhs))
        before = np.array(cv.llubo_invariants(state).as_tuple())
        after = np.array(
            cv.llubo_invariants(cv.validate(form.matrix())).as_tuple()
        )
        drift = np.max(np.abs(after - before) / np.maximum(np.abs(before), 1.0))
        worst_inv = max(worst_inv, float(drift))
    _timings["c6"] = time.perf_counter() - t0
    ok = (
        worst_ratio < 1e-8
        and worst_gap < 1e-8
        and worst_eq13 < 1e-10
        and worst_eq14 < 1e-10
        and worst_inv < 1e-9
    )
    _report(
        6,
        ok,
        f"balance residuals {worst_ratio:.2e}/{worst_gap:.2e}, "
        f"solver residuals {worst_eq13:.2e}/{worst_eq14:.2e}, "
        f"invariant drift {worst_inv:.2e} over {N_SURVEY} states",
    )
    assert worst_ratio < 1e-8 and worst_gap < 1e-8
    assert worst_eq13 < 1e-10 and worst_eq14 < 1e-10
    assert worst_inv < 1e-9


def test_criterion_7_certificate_validity(survey):
    t0 = time.perf_counter()
    separable = [
        (state, verdict)
        for state, verdict, _ in survey
        if verdict.certificate is not None
    ]
    worst_analytic = 0.0
    for state, verdict in separable:
        recon = cv.separability.reconstruct_analytic(verdict.certificate)
        worst_analytic = max(worst_analytic, float(np.max(np.abs(recon - state.m))))
    # Monte Carlo on ten certified cases (smallest label covariance first,
    # keeping the 1e6-sample estimator comfortably inside the tolerance).
    separable.sort(key=lambda row: float(np.max(np.abs(row[1].certificate.covariance))))
    worst_mc = 0.0
    for seed, (state, verdict) in enumerate(separable[:10]):
        recon = cv.reconstruct_from_p_samples(verdict.certificate, 1_000_000, seed)
        worst_mc = max(worst_mc, float(np.max(np.abs(recon.m - state.m))))
    _timings["c7"] = time.perf_counter() - t0
    ok = worst_analytic < 1e-8 and worst_mc < 5e-2
    _report(
        7,
        ok,
        f"{len(separable)} certificates, analytic error {worst_analytic:.3e}, "
        f"Monte Carlo error {worst_mc:.3e} over 10 cases at 1e6 samples",
    )
    assert len(separable) >= N_SURVEY // 10
    assert worst_analytic < 1e-8
    assert worst_mc < 5e-2


def test_criterion_8_suite_composition_and_runtime():
    total = sum(_timings.values())
    ok = total < 120.0 and len(_timings) >= 7
    _report(
        8,
        ok,
        "property-based criteria 1/2/6/7 plus closed-form criteria 3/4/5; "
        f"acceptance wall time {total:.1f} s (budget 120 s)",
    )
    assert len(_timings) >= 7, "acceptance criteria must all have run"
    assert total < 120.0
