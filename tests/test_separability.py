"""Decision-layer tests: sufficient test, witness construction, exact decision,
and the P-representation certificate."""

import dataclasses
import math
import re

import numpy as np
import pytest

import cvsep as cv
from _util import (
    MODE_SWAP,
    edge_family_matrices,
    layout,
    near_vacuum_forms,
    random_llubo_blocks,
    tmsv_layout,
)


def make_form(n1, n2, m1, m2, c1, c2, r1=1.0, r2=1.0, degenerate=False):
    """Hand-built standard form II (identity transform)."""
    return cv.StandardFormII(
        n1=n1, n2=n2, m1=m1, m2=m2, c1=c1, c2=c2, r1=r1, r2=r2,
        transform=cv.Llubo.identity(), degenerate=degenerate,
    )


class TestTotalVarianceCheck:
    def test_vacuum_sits_on_the_bound(self):
        vac = cv.validate(np.eye(4))
        res = cv.total_variance_check(vac, cv.EprPair(1.0, 1, -1))
        assert res == (False, pytest.approx(2.0), pytest.approx(2.0))

    def test_tmsv_violates_with_matched_signs(self):
        state = cv.validate(tmsv_layout(0.5))
        res = cv.total_variance_check(state, cv.EprPair(1.0, -1, 1))
        assert res.violated
        assert res.total_variance == pytest.approx(0.7357588823428847, abs=1e-12)
        assert res.bound == pytest.approx(2.0)

    def test_tmsv_with_wrong_signs_does_not_violate(self):
        state = cv.validate(tmsv_layout(0.5))
        res = cv.total_variance_check(state, cv.EprPair(1.0, 1, -1))
        assert not res.violated
        assert res.total_variance == pytest.approx(5.43656365691809, abs=1e-12)
        assert res.bound == pytest.approx(2.0)


    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_invalid_tolerance_rejected(self, tol):
        # tol = -1 would report the vacuum as violating the bound, certifying
        # a separable state entangled; tol = NaN would never report one.
        vac = cv.validate(np.eye(4))
        msg = f"tol must be finite and >= 0, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            cv.total_variance_check(vac, cv.EprPair(1.0, 1, -1), tol)


class TestConstructEprPair:
    def test_tmsv_witness(self):
        form = cv.to_standard_form_II(cv.validate(tmsv_layout(0.5)))
        pair = cv.separability.construct_epr_pair(form)
        assert pair.a == 1.0  # n1 == m1 forces a0 = 1 exactly
        assert pair.sign_u == -1  # c1 > 0
        assert pair.sign_v == 1  # c2 < 0

    def test_asymmetric_form_value(self):
        # (n1, m1) = (3, 2) with consistent (n2, m2) = (2, 1.5):
        # both ratios (n_i - 1)/(m_i - 1) equal 2.
        gap = math.sqrt(2.0) - math.sqrt(0.5)
        form = make_form(3.0, 2.0, 2.0, 1.5, c1=0.3 + gap, c2=-0.3)
        pair = cv.separability.construct_epr_pair(form)
        assert pair.a**2 == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert pair.a**2 == pytest.approx(0.7071067811865476, rel=1e-12)
        assert (pair.sign_u, pair.sign_v) == (-1, 1)

    def test_vanishing_coefficient_rejected(self):
        form = make_form(3.0, 2.0, 2.0, 1.5, c1=0.0, c2=-0.3)
        with pytest.raises(cv.DegenerateForm):
            cv.separability.construct_epr_pair(form)

    def test_vacuum_pure_mode_rejected(self):
        form = make_form(1.0, 1.0, 2.0, 2.0, c1=0.0, c2=0.0, degenerate=True)
        with pytest.raises(cv.DegenerateForm):
            cv.separability.construct_epr_pair(form)
        # Flagged non-degenerate, a vacuum-pure mode 1 or mode 2 still fails.
        msg = "a mode at vacuum purity has no optimal pair"
        for form in (
            make_form(1.0, 1.0, 2.0, 2.0, c1=0.5, c2=-0.5),
            make_form(2.0, 2.0, 1.0, 1.0, c1=0.5, c2=-0.5),
        ):
            with pytest.raises(cv.DegenerateForm, match=f"^{msg}$"):
                cv.separability.construct_epr_pair(form)

    def test_inconsistent_form_rejected(self):
        form = make_form(3.0, 5.0, 2.0, 1.5, c1=1.0, c2=-0.3)
        with pytest.raises(cv.CvsepError):
            cv.separability.construct_epr_pair(form)

    def test_overflowing_coefficient_raises_from_the_decision_core(self):
        # (m1 - 1)/(n1 - 1) overflows, so a = inf fails EprPair's range check;
        # the decision core runs the same check with the same message.
        form = make_form(1.0 + 2e-8, 1.0, 1e301, 2.0, c1=1.0, c2=0.0)
        msg = "coefficient a = inf: a^2 and 1/a^2 must be finite and nonzero"
        with pytest.raises(cv.ZeroCoefficient, match=f"^{re.escape(msg)}$"):
            cv.separability.construct_epr_pair(form)
        with pytest.raises(cv.ZeroCoefficient, match=f"^{re.escape(msg)}$"):
            cv.separability._decide_form_II(form, cv.EPS_DECIDE)

    def test_witness_contradicting_an_entangled_spectrum_raises(self):
        # Hand-built, not balanced: the x sector of M - I has eigenvalue
        # -0.2, yet the optimal pair (a = 1) misses the bound by 0.8.  The
        # SEPARABLE half of the check can fire only by rounding: the margin
        # is minus a sum of one quadratic form per sector of M - I, so it is
        # <= 0 wherever both sectors are positive semidefinite.
        form = make_form(2.0, 2.0, 2.0, 2.0, c1=1.2, c2=0.0)
        assert cv.separability._form_spectrum(form)[0] == pytest.approx(-0.2)
        pair = cv.separability.construct_epr_pair(form)
        res = cv.total_variance_check(cv.validate(form.matrix()), pair)
        assert res.bound - res.total_variance == pytest.approx(-0.8)
        msg = "witness margin contradicts spectral decision"
        with pytest.raises(cv.CvsepError, match=f"^{msg}$"):
            cv.separability._decide_form_II(form, cv.EPS_DECIDE)


class TestDecideSeparability:
    def test_tmsv_entangled_with_closed_form_margin(self):
        verdict = cv.decide_separability(cv.validate(tmsv_layout(0.5)))
        assert verdict.decision is cv.Decision.ENTANGLED
        assert verdict.margin == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-12)
        assert verdict.margin == pytest.approx(1.2642411176571153, abs=1e-12)
        assert verdict.certificate is None
        # min eigenvalue of M_II - I is (cosh - 1) - sinh = e^{-1} - 1
        assert verdict.min_eigenvalue == pytest.approx(
            math.exp(-1.0) - 1.0, abs=1e-12
        )

    def test_vacuum_separable_with_point_mass_certificate(self):
        verdict = cv.decide_separability(cv.validate(np.eye(4)))
        assert verdict.decision is cv.Decision.SEPARABLE
        assert verdict.margin == 0.0
        assert verdict.witness is None
        assert verdict.certificate is not None
        np.testing.assert_array_equal(
            verdict.certificate.covariance, np.zeros((4, 4))
        )

    def test_threshold_state_is_boundary(self):
        t_star = cv.threshold_time(1.0, 1.0, 1.0)
        state = cv.evolve_thermal(
            cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=t_star)
        )
        verdict = cv.decide_separability(state)
        assert verdict.decision is cv.Decision.BOUNDARY
        assert abs(verdict.margin) < cv.EPS_DECIDE

    def test_certificate_present_iff_separable(self):
        for seed in range(60):
            verdict = cv.decide_separability(cv.sample_random_physical(seed))
            assert (verdict.certificate is not None) == (
                verdict.decision is cv.Decision.SEPARABLE
            )

    def test_certificate_built_on_first_read_only(self, monkeypatch):
        calls = []
        build = cv.separability.p_representation

        def counted(form):
            calls.append(form)
            return build(form)

        monkeypatch.setattr(cv.separability, "p_representation", counted)
        points = cv.scan_boundary(1.0, 1.0, 1.0, 2.0, 20)
        assert cv.Decision.SEPARABLE in {p.decision for p in points}
        verdict = cv.decide_separability(cv.validate(np.eye(4)))
        entangled = cv.decide_separability(cv.validate(tmsv_layout(0.5)))
        assert calls == []
        cert = verdict.certificate
        assert verdict.certificate is cert
        assert len(calls) == 1 and calls[0] is verdict.form
        assert entangled.certificate is None
        assert len(calls) == 1

    def test_witness_consistency_with_decision(self):
        # Violation by the optimal pair is equivalent to entanglement.
        for seed in range(120):
            state = cv.sample_random_physical(seed)
            verdict = cv.decide_separability(state)
            if verdict.witness is None or verdict.decision is cv.Decision.BOUNDARY:
                continue
            reduced = cv.validate(verdict.form.matrix())
            res = cv.total_variance_check(reduced, verdict.witness)
            assert res.violated == (verdict.decision is cv.Decision.ENTANGLED)

    def test_verdict_invariant_under_llubo(self):
        rng = np.random.default_rng(31)
        for seed in range(40):
            state = cv.sample_random_physical(seed)
            base = cv.decide_separability(state).decision
            h1, h2 = random_llubo_blocks(rng)
            moved = cv.apply_llubo(state, cv.Llubo(h1, h2))
            other = cv.decide_separability(moved).decision
            if cv.Decision.BOUNDARY in (base, other):
                continue
            assert base == other

    def test_near_vacuum_tmsv_under_local_operations_entangled(self):
        # n - 1 ~ 2 r^2 lies in [2e-8, 2e-6], so the balance root sits in a
        # bracket [1, n] barely wider than the vacuum snap.
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(1e-4, 1e-3)
            h1, h2 = random_llubo_blocks(rng, 1.0)
            state = cv.apply_llubo(cv.tmsv_matrix(r), cv.Llubo(h1, h2))
            assert cv.decide_separability(state).decision is cv.Decision.ENTANGLED
            assert cv.ppt_decision(state) is cv.Decision.ENTANGLED

    def test_tolerance_override_widens_band(self):
        # A mildly entangled state becomes boundary under a huge band.
        state = cv.validate(tmsv_layout(0.1))
        assert cv.decide_separability(state).decision is cv.Decision.ENTANGLED
        wide = cv.decide_separability(state, tol_decide=10.0)
        assert wide.decision is cv.Decision.BOUNDARY
        exact = cv.decide_separability(state, tol_decide=0.0)
        assert exact.decision is cv.Decision.ENTANGLED

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_invalid_tolerance_rejected_before_reduction(self, tol, monkeypatch):
        def no_reduction(state):
            raise AssertionError("reduced before checking tol_decide")

        monkeypatch.setattr(cv.separability, "to_standard_form_II", no_reduction)
        with pytest.raises(ValueError, match="tol_decide"):
            cv.decide_separability(cv.validate(tmsv_layout(0.1)), tol_decide=tol)


@pytest.fixture(scope="module")
def mid_near_vacuum():
    """``(n, m, c, c')``, whether form II is degenerate, the decision or the
    ``CvsepError`` raised, and the truth, for each accepted draw among the
    first 2000 of the ``mid`` near-vacuum family."""
    out = []
    for args in near_vacuum_forms("mid", 2000):
        try:
            state = cv.validate(layout(*args))
        except cv.CvsepError:
            continue
        degenerate = cv.to_standard_form_II(state).degenerate
        try:
            decision = cv.decide_separability(state).decision
        except cv.CvsepError as exc:
            decision = exc
        out.append((args, degenerate, decision, cv.ppt_decision(state, 0.0)))
    return out


class TestNearVacuum:
    # A mode within EPS_FORM of vacuum snaps form II to form I, flagged
    # degenerate.  Form I's negative eigenvalue proves entanglement only
    # where form I is form II, at |c| = |c'| (ROADMAP item 14).
    def test_degenerate_form_with_unequal_c_is_boundary(self):
        # Item 14's example: form I's lam_min is -6.4e-9, yet the state is
        # separable.
        hexes = ("0x1.0000001e5d33dp+0", "0x1.01c187b91d81ep+0",
                 "0x1.4227add03613cp-17", "-0x1.2aa6147a077bdp-19")
        state = cv.validate(layout(*map(float.fromhex, hexes)))
        verdict = cv.decide_separability(state)
        assert verdict.form.degenerate and verdict.min_eigenvalue < -1e-9
        assert verdict.decision is cv.Decision.BOUNDARY
        assert cv.ppt_decision(state, 0.0) is cv.Decision.SEPARABLE

    def test_weak_tmsv_under_local_operations_stays_entangled(self):
        # n - 1 ~ 2 r^2 < 2e-9: every form is degenerate, with c = |c'| only
        # to rounding on most draws, which the EPS_FORM tolerance accepts.
        rng = np.random.default_rng(5)
        unequal = 0
        for _ in range(200):
            r = 10.0 ** rng.uniform(-6.0, -4.5)
            op = cv.Llubo(*random_llubo_blocks(rng, 1.0))
            state = cv.apply_llubo(cv.tmsv_matrix(r), op)
            verdict = cv.decide_separability(state)
            assert verdict.form.degenerate
            assert verdict.decision is cv.Decision.ENTANGLED
            assert cv.ppt_decision(state, 0.0) is cv.Decision.ENTANGLED
            unequal += verdict.form.c1 != abs(verdict.form.c2)
        assert unequal > 100

    def test_degenerate_forms_are_right_or_boundary(self, mid_near_vacuum):
        degenerate = [row for row in mid_near_vacuum if row[1]]
        wrong = [args for args, _, decision, truth in degenerate
                 if decision not in (truth, cv.Decision.BOUNDARY)]
        assert len(degenerate) > 800
        assert wrong == []

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 14: solved near-vacuum forms cancel in n r1 - 1 and "
        "the like, giving wrong verdicts and bare CvsepErrors",
    )
    def test_every_verdict_is_right_or_boundary(self, mid_near_vacuum):
        wrong = [args for args, _, decision, truth in mid_near_vacuum
                 if isinstance(decision, cv.Decision)
                 and decision not in (truth, cv.Decision.BOUNDARY)]
        bare = [args for args, _, decision, _ in mid_near_vacuum
                if type(decision) is cv.CvsepError]
        assert wrong == [] and bare == []


def _outcomes(m):
    """(validate error, decision or its error, PPT decision) for a raw matrix."""
    try:
        state = cv.validate(m)
    except cv.CvsepError as exc:
        return type(exc), None, None
    try:
        decision = cv.decide_separability(state).decision
    except cv.CvsepError as exc:
        decision = type(exc)
    return None, decision, cv.ppt_decision(state)


class TestBuiltValues:
    """Forms and verdicts cvsep builds are those of the dataclass ``__init__``."""

    @staticmethod
    def _assert_as_init(value):
        cls = type(value)
        names = [f.name for f in dataclasses.fields(cls)]
        twin = cls(**{name: getattr(value, name) for name in names})
        assert list(vars(value)) == list(vars(twin)) == names
        assert vars(value) == vars(twin)
        assert repr(value) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, names[0], None)
        return twin

    def test_forms_and_verdicts(self):
        rng = np.random.default_rng(15)
        thermal = [
            cv.evolve_thermal(cv.ThermalScenario(r=r, eta=1.0, nbar=nbar, t=t))
            for r, nbar, t in rng.uniform((0.1, 0.0, 0.0), (3.0, 2.0, 2.0), (20, 3)).tolist()
        ]
        states = thermal + [cv.sample_random_physical(seed) for seed in range(40)]
        # A product state: degenerate, SEPARABLE by structure, witness None.
        states.append(cv.validate(np.diag([2.0, 2.0, 3.0, 3.0])))
        built = 0
        for state in states:
            form_I = cv.to_standard_form_I(state)
            assert form_I == self._assert_as_init(form_I)
            verdict = cv.decide_separability(state)
            twin = self._assert_as_init(verdict.form)
            assert verdict.form == twin and hash(verdict.form) == hash(twin)
            self._assert_as_init(verdict)
            cert = verdict.certificate
            assert verdict.certificate is cert and vars(verdict)["certificate"] is cert
            built += cert is not None
        assert 0 < built < len(states)
        assert verdict.form.degenerate and verdict.witness is None  # the product state
        assert verdict.decision is cv.Decision.SEPARABLE and verdict.min_eigenvalue == 1.0

    def test_witness_pairs(self):
        # A verdict's witness skips EprPair's __init__, whose checks the
        # decision core has run: it is the public pair in ==, hash and repr.
        signs = set()
        for seed in range(200):
            verdict = cv.decide_separability(cv.sample_random_physical(seed))
            pair = verdict.witness
            if pair is None:
                continue
            built = cv.separability.construct_epr_pair(verdict.form)
            for twin in (self._assert_as_init(pair), built):
                assert pair == twin and hash(pair) == hash(twin) and repr(pair) == repr(twin)
            signs.add((pair.sign_u, pair.sign_v))
        assert len(signs) >= 2


class TestModeSwap:
    """Exchanging the modes is not a local operation, but physicality,
    separability and the balance conditions of form II are symmetric in
    the two modes."""

    def test_random_states(self):
        for seed in range(500):
            m = cv.sample_random_physical(seed).m
            swapped = MODE_SWAP @ m @ MODE_SWAP
            assert _outcomes(swapped) == _outcomes(m)
            form = cv.to_standard_form_II(cv.validate(m))
            other = cv.to_standard_form_II(cv.validate(swapped))
            assert other.degenerate == form.degenerate
            np.testing.assert_allclose(
                [other.n1, other.n2, other.m1, other.m2, other.c1, other.c2,
                 other.r1, other.r2],
                [form.m1, form.m2, form.n1, form.n2, form.c1, form.c2,
                 form.r2, form.r1],
                rtol=1e-12,
            )

    @pytest.mark.parametrize(
        "family",
        ["large_squeeze", "near_edge", "near_vacuum_product", "near_vacuum_tmsv",
         "equal_c", "opposite_c"],
    )
    def test_edge_families(self, family):
        # Only the outcomes: on a strongly squeezed input, form I of the two
        # mode orders differs by its own rounding error.
        m = edge_family_matrices(7)[family]
        assert _outcomes(MODE_SWAP @ m @ MODE_SWAP) == _outcomes(m)


def _exact_local_orbit():
    """17 operations that are exact on floats, as ``(perm, scale)``: the
    matrix ``m`` goes to ``scale_i scale_j m[perm_i, perm_j]``.

    The identity, a 90 degree rotation of each mode, the mode swap, momentum
    reversal on both modes (``diag(1, -1, 1, -1)``), and ``diag(2^k, 2^-k)``
    squeezes for k in {3, 6, 10} on mode 1, on mode 2, on both, and on both
    in opposite directions.  None changes whether a state is separable.
    """
    same = [0, 1, 2, 3]
    yield same, [1, 1, 1, 1]
    yield [1, 0, 2, 3], [1, -1, 1, 1]  # (x1, p1) -> (p1, -x1)
    yield [0, 1, 3, 2], [1, 1, 1, -1]
    yield [2, 3, 0, 1], [1, 1, 1, 1]
    yield same, [1, -1, 1, -1]
    for k in (3, 6, 10):
        up, down = 2.0**k, 2.0**-k
        for scale in ([up, down, 1, 1], [1, 1, up, down], [up, down, up, down],
                      [up, down, down, up]):
            yield same, scale


class TestExactLocalOrbits:
    """A verdict does not depend on a local operation applied first."""

    def test_no_orbit_splits(self):
        orbit = [(np.array(p), np.outer(s, s)) for p, s in _exact_local_orbit()]
        assert len(orbit) == 17
        seen = set()
        for seed in range(300):
            m = cv.sample_random_physical(seed).m
            decisions = {
                cv.decide_separability(cv.validate(m[np.ix_(p, p)] * scale)).decision
                for p, scale in orbit
            }
            assert not {cv.Decision.ENTANGLED, cv.Decision.SEPARABLE} <= decisions, seed
            seen |= decisions
        assert {cv.Decision.ENTANGLED, cv.Decision.SEPARABLE} <= seen


class TestPRepresentation:
    def test_vacuum_point_mass(self):
        form = cv.to_standard_form_II(cv.validate(np.eye(4)))
        cert = cv.p_representation(form)
        np.testing.assert_array_equal(cert.covariance, np.zeros((4, 4)))

    def test_symmetric_edge_form_spectrum(self):
        # n = m = 2, c = -c' = 1 sits exactly on the separable edge.
        form = make_form(2.0, 2.0, 2.0, 2.0, c1=1.0, c2=-1.0)
        # Oracle: eigenvalues of M - I computed directly.
        eigs = np.linalg.eigvalsh(form.matrix() - np.eye(4))
        np.testing.assert_allclose(sorted(eigs), [0.0, 0.0, 2.0, 2.0], atol=1e-12)
        cert = cv.p_representation(form)
        np.testing.assert_allclose(
            sorted(np.linalg.eigvalsh(2.0 * cert.covariance)),
            [0.0, 0.0, 2.0, 2.0],
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "n1, n2, m1, m2, c1, c2",
        [
            # x sector with det(A) < 0 by a few 1e-10: one eigenvalue just below 0.
            (3.0, 1.5, 1.5, 1.2, 1.0 + 2e-10, 0.1),
            (1.5, 2.0, 3.0, 1.25, -0.1, -(0.5 + 3e-10)),
            # Both sectors negative, mixed signs of the intermode entries.
            (2.0, 1.25, 1.5, 1.5, -(math.sqrt(0.5) + 1e-10), math.sqrt(0.125) + 1e-10),
            # p sector with both eigenvalues slightly negative.
            (2.0, 1.0 - 2e-10, 2.0, 1.0 - 5e-11, 0.5, 1e-11),
        ],
    )
    def test_clipped_sectors_match_eigh_reference(self, n1, n2, m1, m2, c1, c2):
        # Sectors that only a clip to zero would make PSD: the eigh reference
        # of M_II - I has an eigenvalue below 0 by ~1e-10, so no positive P
        # exists, however small the deficit, and none is built.
        form = make_form(n1, n2, m1, m2, c1, c2)
        w = np.linalg.eigvalsh(form.matrix() - np.eye(4))
        assert w[0] < 0.0
        with pytest.raises(cv.NotInSeparableRegime):
            cv.p_representation(form)

    def test_entangled_form_rejected(self):
        form = cv.to_standard_form_II(cv.validate(tmsv_layout(0.5)))
        with pytest.raises(cv.NotInSeparableRegime):
            cv.p_representation(form)

    def test_analytic_reconstruction_matches_original(self):
        count = 0
        for seed in range(150):
            state = cv.sample_random_physical(seed)
            verdict = cv.decide_separability(state)
            if verdict.certificate is None:
                continue
            count += 1
            recon = cv.separability.reconstruct_analytic(verdict.certificate)
            np.testing.assert_allclose(recon, state.m, atol=1e-8)
        assert count > 30  # the sampler produces plenty of separable states

    def test_certificate_covariance_is_psd(self):
        for seed in range(80):
            verdict = cv.decide_separability(cv.sample_random_physical(seed))
            if verdict.certificate is None:
                continue
            lam = np.linalg.eigvalsh(verdict.certificate.covariance)[0]
            assert lam >= -1e-9
