"""Oracle-side tests: PPT decision, samplers, and Monte Carlo reconstruction."""

import math

import numpy as np
import pytest

import cvsep as cv
from _util import (
    accepted_edge_states,
    blockdiag,
    complex_min_eig,
    edge_family_matrices,
    exact_ppt,
    non_number_identities,
    rot2,
    strong_local_squeezes,
    tmsv_layout,
)


class TestPptDecision:
    def test_vacuum_separable(self):
        assert cv.ppt_decision(cv.validate(np.eye(4))) is cv.Decision.SEPARABLE

    def test_tmsv_entangled(self):
        state = cv.validate(tmsv_layout(0.5))
        # Oracle for the oracle: momentum reversal by hand, complex eigensolve.
        pt = np.diag([1.0, 1.0, 1.0, -1.0])
        lam = complex_min_eig(pt @ state.m @ pt)
        assert lam == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)
        assert cv.ppt_decision(state) is cv.Decision.ENTANGLED

    def test_two_mode_thermal_separable(self):
        state = cv.validate(np.diag([3.0, 3.0, 3.0, 3.0]))
        assert cv.ppt_decision(state) is cv.Decision.SEPARABLE

    def test_tolerance_override(self):
        state = cv.validate(tmsv_layout(0.05))
        assert cv.ppt_decision(state) is cv.Decision.ENTANGLED
        assert cv.ppt_decision(state, tol_decide=1.0) is cv.Decision.BOUNDARY

    @pytest.mark.parametrize(
        "tol, decision",
        [
            (0.18, cv.Decision.ENTANGLED),
            (0.19, cv.Decision.BOUNDARY),
            (np.float32(0.19), cv.Decision.BOUNDARY),
        ],
    )
    def test_band_in_units_of_nu_squared(self, tol, decision):
        # nu~^2 = e^{-4r} = 0.8187 at r = 0.05: boundary iff 1 - tol <= 0.8187.
        state = cv.validate(tmsv_layout(0.05))
        assert cv.ppt_decision(state, tol_decide=tol) is decision

    @pytest.mark.parametrize("k1, k2", [(10, 0), (0, -10), (20, 20), (-20, 15), (5, -5)])
    def test_invariant_under_exact_local_squeezes(self, k1, k2):
        # Power-of-two squeezes scale entries exactly, so the input's
        # PPT class, and the exact oracle's answer, cannot change.
        s = np.diag([2.0**k1, 2.0**-k1, 2.0**k2, 2.0**-k2])
        states = [cv.sample_random_physical(seed) for seed in range(100)]
        states += [state for _, state in accepted_edge_states(cv, range(4))]
        for state in states:
            moved = cv.validate(s @ state.m @ s.T)
            np.testing.assert_array_equal(moved.m / np.outer(np.diag(s), np.diag(s)), state.m)
            assert cv.ppt_decision(moved) is cv.ppt_decision(state)

    @pytest.mark.parametrize("seed", [481, 760, 1029])
    def test_indefinite_input_is_entangled(self, seed):
        # validate accepts these within its rounding estimate, but M is
        # exactly indefinite, where D and det M alone would read as PPT.
        m = edge_family_matrices(seed)["large_squeeze"]
        state = cv.validate(0.5 * (m + m.T))
        assert not exact_ppt(state.m)
        assert cv.ppt_decision(state) is cv.Decision.ENTANGLED

    def test_separable_split_matches_exact_reference(self):
        # Sylvester's criterion on M~ + i Omega in complex rationals; the
        # strong squeezes put many inputs within rounding of the PPT edge.
        states = [cv.sample_random_physical(seed) for seed in range(200)]
        squeezed = strong_local_squeezes([state.m for state in states])
        states += [cv.validate(m) for m in squeezed]
        split = {True: 0, False: 0}
        for state in states:
            ppt = exact_ppt(state.m)
            split[ppt] += 1
            assert (cv.ppt_decision(state) is cv.Decision.SEPARABLE) == ppt
        assert min(split.values()) > 50

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
    def test_invalid_tolerance_rejected(self, tol):
        # Same message as decide_separability; a NaN band used to report an
        # entangled state as boundary.
        state = cv.tmsv_matrix(0.5)
        msg = f"tol_decide must be finite and >= 0, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            cv.ppt_decision(state, tol)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            cv.decide_separability(state, tol)


class TestSeparableEnsemble:
    def test_single_component_is_full_weight(self):
        ens = cv.sample_separable_ensemble(123, 1)
        assert len(ens.components) == 1
        assert ens.components[0][0] == pytest.approx(1.0)

    def test_deterministic_in_seed(self):
        a = cv.sample_separable_ensemble(7, 6)
        b = cv.sample_separable_ensemble(7, 6)
        assert len(a.components) == len(b.components)
        for (wa, a1, a2), (wb, b1, b2) in zip(a.components, b.components):
            assert wa == wb
            np.testing.assert_array_equal(a1.cov, b1.cov)
            np.testing.assert_array_equal(a2.cov, b2.cov)
            assert (a1.mean_x, a1.mean_p) == (b1.mean_x, b1.mean_p)
            assert (a2.mean_x, a2.mean_p) == (b2.mean_x, b2.mean_p)

    def test_bad_component_count_rejected(self):
        with pytest.raises(ValueError):
            cv.sample_separable_ensemble(0, 0)

    def test_weights_validated(self):
        mode = cv.ModeSpec(0.0, 0.0, np.eye(2))
        with pytest.raises(ValueError):
            cv.SeparableEnsemble(((0.5, mode, mode), (0.6, mode, mode)))

    @pytest.mark.parametrize(
        "weights", [(math.nan,), (0.5, math.nan), (math.nan, 1.0), (0.5, 0.5, math.nan)]
    )
    def test_nan_weights_rejected(self, weights):
        mode = cv.ModeSpec(0.0, 0.0, np.eye(2))
        with pytest.raises(ValueError, match="weights must lie in"):
            cv.SeparableEnsemble(tuple((w, mode, mode) for w in weights))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="ensemble needs at least one component"):
            cv.SeparableEnsemble(())

    def test_unphysical_mode_rejected(self):
        with pytest.raises(cv.NotPhysical):
            cv.ModeSpec(0.0, 0.0, 0.25 * np.eye(2))

    @pytest.mark.parametrize("cov", [np.diag([1.0 - 1e-10, 1.0]), -np.eye(2)])
    def test_mode_beyond_rounding_rejected(self, cov):
        # det 1 - 1e-10 is below 1 beyond rounding, as validate finds for
        # the mode; -I has det 1 but is negative definite.
        with pytest.raises(cv.NotPhysical, match="mode covariance unphysical"):
            cv.ModeSpec(0.0, 0.0, cov)

    def test_asymmetric_mode_covariance_rejected(self):
        with pytest.raises(cv.NotSymmetric, match=r"asymmetry 5\.000e-01 exceeds"):
            cv.ModeSpec(0.0, 0.0, [[2.0, 0.5], [0.0, 2.0]])
        # Within EPS_SYM x max(1, largest diagonal entry) it is accepted and
        # kept as given, not symmetrized.
        cov = [[1e3, 0.5 + 5e-8], [0.5, 1e3]]
        assert cv.ModeSpec(0.0, 0.0, cov).cov.tolist() == cov
        for seed in range(2000):
            cv.sample_separable_ensemble(seed, 5)

    @pytest.mark.parametrize("means", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_mean_rejected(self, means):
        with pytest.raises(ValueError, match="mode means must be finite"):
            cv.ModeSpec(*means, np.eye(2))

    def test_complex_mode_covariance_rejected(self):
        with pytest.raises(ValueError, match="mode covariance must be real"):
            cv.ModeSpec(0.0, 0.0, np.eye(2) + 1j * np.eye(2))

    @pytest.mark.parametrize("cov", non_number_identities(2))
    def test_non_number_mode_covariance_rejected(self, cov):
        with pytest.raises(ValueError, match="mode covariance must be real, got dtype"):
            cv.ModeSpec(0.0, 0.0, cov)

    @pytest.mark.parametrize("cov", [np.eye(3), np.ones(2), np.ones((2, 3)), [[1.0]]])
    def test_mode_covariance_not_2x2_rejected(self, cov):
        with pytest.raises(ValueError, match=r"mode covariance must be 2x2, got \("):
            cv.ModeSpec(0.0, 0.0, cov)

    def test_integer_mode_covariance_accepted(self):
        mode = cv.ModeSpec(0, 0, [[2, 0], [0, 3]])
        assert mode.cov.dtype == np.float64 and mode.cov.tolist() == [[2.0, 0.0], [0.0, 3.0]]

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_mode_covariance_rejected(self, entry):
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = entry
        with pytest.raises(ValueError, match="mode covariance has non-finite entries"):
            cv.ModeSpec(0.0, 0.0, cov)


class TestEnsembleCovariance:
    def test_single_vacuum_component_is_identity(self):
        mode = cv.ModeSpec(0.0, 0.0, np.eye(2))
        ens = cv.SeparableEnsemble(((1.0, mode, mode),))
        np.testing.assert_array_equal(cv.ensemble_covariance(ens).m, np.eye(4))

    @pytest.mark.parametrize("d", [0.3, 1.0, 2.5])
    def test_anticorrelated_mean_scatter(self, d):
        plus = (
            0.5,
            cv.ModeSpec(d, 0.0, np.eye(2)),
            cv.ModeSpec(-d, 0.0, np.eye(2)),
        )
        minus = (
            0.5,
            cv.ModeSpec(-d, 0.0, np.eye(2)),
            cv.ModeSpec(d, 0.0, np.eye(2)),
        )
        state = cv.ensemble_covariance(cv.SeparableEnsemble((plus, minus)))
        # Oracle: identity plus the 2 d^2 anticorrelated scatter pattern.
        v = np.array([1.0, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(
            state.m, np.eye(4) + 2.0 * d * d * np.outer(v, v), atol=1e-14
        )
        # The reversal leaves M = I + rank one unchanged, so nu~ = 1 exactly
        # and rounding of the entries decides between separable and boundary.
        ppt = cv.ppt_decision(state)
        assert ppt is not cv.Decision.ENTANGLED
        assert (ppt is cv.Decision.SEPARABLE) == exact_ppt(state.m)
        assert cv.decide_separability(state).decision is not cv.Decision.ENTANGLED

    def test_random_ensembles_never_entangled(self):
        for seed in range(400):
            state = cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 10))
            assert complex_min_eig(state.m) >= -1e-9 * np.max(np.diag(state.m))
            assert cv.decide_separability(state).decision is not cv.Decision.ENTANGLED
            assert cv.ppt_decision(state) is not cv.Decision.ENTANGLED

    def test_bound_never_violated_on_mixtures(self):
        grid = np.logspace(math.log10(1.0 / 8.0), math.log10(8.0), 9)
        for seed in range(150):
            state = cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 6))
            for a in grid:
                for su, sv in ((1, -1), (-1, 1)):
                    res = cv.total_variance_check(state, cv.EprPair(float(a), su, sv))
                    assert not res.violated


class TestSampleRandomPhysical:
    def test_deterministic_and_physical(self):
        a = cv.sample_random_physical(42)
        b = cv.sample_random_physical(42)
        np.testing.assert_array_equal(a.m, b.m)
        assert complex_min_eig(a.m) >= -1e-9 * np.max(np.diag(a.m))

    def test_produces_both_classes(self):
        decisions = {
            cv.decide_separability(cv.sample_random_physical(seed)).decision
            for seed in range(200)
        }
        assert cv.Decision.ENTANGLED in decisions
        assert cv.Decision.SEPARABLE in decisions

    def test_local_only_symplectic_is_separable(self):
        # Pure product state: vacuum spectrum, local operations only.
        rng = np.random.default_rng(9)
        for _ in range(10):
            s1 = rot2(rng.uniform(0, 7)) @ np.diag([1.7, 1 / 1.7]) @ rot2(rng.uniform(0, 7))
            s2 = rot2(rng.uniform(0, 7)) @ np.diag([0.6, 1 / 0.6]) @ rot2(rng.uniform(0, 7))
            s = blockdiag(s1, s2)
            state = cv.validate(s @ s.T)
            assert cv.decide_separability(state).decision is cv.Decision.SEPARABLE
            # A pure product state sits exactly at the PPT edge, so rounding
            # of the entries decides between separable and boundary.
            ppt = cv.ppt_decision(state)
            assert ppt is not cv.Decision.ENTANGLED
            assert (ppt is cv.Decision.SEPARABLE) == exact_ppt(state.m)


class TestReconstruction:
    def test_point_mass_reconstructs_identity_exactly(self):
        verdict = cv.decide_separability(cv.validate(np.eye(4)))
        recon = cv.reconstruct_from_p_samples(verdict.certificate, 2000, 5)
        np.testing.assert_array_equal(recon.m, np.eye(4))

    def test_count_floor_enforced(self):
        verdict = cv.decide_separability(cv.validate(np.eye(4)))
        with pytest.raises(ValueError):
            cv.reconstruct_from_p_samples(verdict.certificate, 999, 5)

    def test_symmetric_separable_form_monte_carlo(self):
        form = cv.StandardFormII(
            n1=2.0, n2=2.0, m1=2.0, m2=2.0, c1=1.0, c2=-1.0,
            r1=1.0, r2=1.0, transform=cv.Llubo.identity(), degenerate=False,
        )
        cert = cv.p_representation(form)
        recon = cv.reconstruct_from_p_samples(cert, 1_000_000, 77)
        np.testing.assert_allclose(recon.m, form.matrix(), atol=5e-2)

    def test_reconstructions_stay_separable_under_ppt(self):
        done = 0
        for seed in range(40):
            verdict = cv.decide_separability(cv.sample_random_physical(seed))
            if verdict.certificate is None:
                continue
            done += 1
            recon = cv.reconstruct_from_p_samples(verdict.certificate, 20_000, seed)
            assert cv.ppt_decision(recon) is cv.Decision.SEPARABLE
        assert done > 10
