"""Standard-form reduction tests: constructions, solver, invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvsep as cv
from _util import (
    COSH1,
    SINH1,
    blockdiag,
    complex_min_eig,
    layout,
    random_llubo_blocks,
    rot2,
    tmsv_layout,
)


def _form_ii_balance(n, m, c, cp, r1, r2):
    """Independent re-evaluation of both balance conditions at (r1, r2)."""
    k1 = (n / r1 - 1.0) / (n * r1 - 1.0)
    k2 = (m / r2 - 1.0) / (m * r2 - 1.0)
    s = math.sqrt(r1 * r2)
    lhs = s * abs(c) - abs(cp) / s
    rhs = math.sqrt(max((n * r1 - 1.0) * (m * r2 - 1.0), 0.0)) - math.sqrt(
        max((n / r1 - 1.0) * (m / r2 - 1.0), 0.0)
    )
    return abs(k1 - k2), abs(lhs - rhs)


class TestFormI:
    def test_vacuum_trivial(self):
        form = cv.to_standard_form_I(cv.validate(np.eye(4)))
        assert (form.n, form.m, form.c, form.c_prime) == (1.0, 1.0, 0.0, 0.0)
        np.testing.assert_array_equal(form.transform.h1, np.eye(2))
        np.testing.assert_array_equal(form.transform.h2, np.eye(2))

    def test_tmsv_already_reduced(self):
        form = cv.to_standard_form_I(cv.validate(tmsv_layout(0.5)))
        assert form.n == pytest.approx(COSH1, abs=1e-14)
        assert form.m == pytest.approx(COSH1, abs=1e-14)
        assert form.c == pytest.approx(SINH1, abs=1e-14)
        assert form.c_prime == pytest.approx(-SINH1, abs=1e-14)
        np.testing.assert_array_equal(form.transform.h1, np.eye(2))

    def test_llubo_conjugation_recovers_parameters(self):
        rng = np.random.default_rng(21)
        base = cv.validate(tmsv_layout(0.5))
        for _ in range(10):
            h1, h2 = random_llubo_blocks(rng)
            scrambled = cv.apply_llubo(base, cv.Llubo(h1, h2))
            form = cv.to_standard_form_I(scrambled)
            assert form.n == pytest.approx(COSH1, abs=1e-8)
            assert form.m == pytest.approx(COSH1, abs=1e-8)
            assert abs(form.c) == pytest.approx(SINH1, abs=1e-8)
            assert abs(form.c_prime) == pytest.approx(SINH1, abs=1e-8)

    def test_round_trip_and_canonical_orientation(self):
        for seed in range(60):
            state = cv.sample_random_physical(seed)
            form = cv.to_standard_form_I(state)
            b = form.transform.block_diagonal()
            np.testing.assert_allclose(
                b @ state.m @ b.T, form.matrix(), atol=1e-8
            )
            assert form.n >= 1.0 and form.m >= 1.0
            assert form.c >= abs(form.c_prime) - 1e-14

    def test_idempotent_on_reduced_input(self):
        for seed in (2, 7, 19):
            first = cv.to_standard_form_I(cv.sample_random_physical(seed))
            again = cv.to_standard_form_I(cv.validate(first.matrix()))
            assert again.n == pytest.approx(first.n, abs=1e-8)
            assert again.m == pytest.approx(first.m, abs=1e-8)
            assert abs(again.c) == pytest.approx(abs(first.c), abs=1e-8)
            assert abs(again.c_prime) == pytest.approx(abs(first.c_prime), abs=1e-8)

    def test_invariants_preserved(self):
        for seed in range(40):
            state = cv.sample_random_physical(seed)
            form = cv.to_standard_form_I(state)
            before = np.array(cv.llubo_invariants(state).as_tuple())
            after = np.array(
                cv.llubo_invariants(cv.validate(form.matrix())).as_tuple()
            )
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)
            # Parameters determine the four invariants in closed form.
            n, m, c, cp = form.n, form.m, form.c, form.c_prime
            np.testing.assert_allclose(
                before,
                [n * n, m * m, c * cp, (n * m - c * c) * (n * m - cp * cp)],
                rtol=1e-9,
                atol=1e-9,
            )

    def test_anisotropic_block_reduced(self):
        # det G1 = 1 from entries 1e-155 and 1e155: the mode-1 squeeze is
        # ~3e77, past where a fourth root of the entries' ratio overflows.
        m = np.diag([1e-155, 1e155, 2.0, 2.0])
        state = cv.validate(m)
        form = cv.to_standard_form_I(state)
        assert (form.n, form.m, form.c, form.c_prime) == (1.0, 2.0, 0.0, 0.0)
        verdict = cv.decide_separability(state)
        assert verdict.decision is cv.Decision.SEPARABLE
        np.testing.assert_allclose(
            cv.reconstruct_analytic(verdict.certificate), m, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("nu, k", [(0.9, 5.0), (0.99, 5.0), (0.5, 8.0)])
    def test_sub_vacuum_block_rejected(self, nu, k):
        # nu*I squeezed by diag(e^k, e^-k) on both modes has det G = nu^2 < 1,
        # far beyond rounding, whatever the squeezed entries' size.
        s = np.diag([math.exp(k), math.exp(-k)] * 2)
        m = s @ (nu * np.eye(4)) @ s
        message = f"^det G1 = {re.escape(f'{nu * nu:.6g}')} < 1 "
        with pytest.raises(cv.NotPhysical, match=message):
            cv.validate(m)

    def test_physicality_bound_on_c(self):
        # |c| <= sqrt(n(m - 1/m)) in the n >= m orientation.
        for seed in range(80):
            form = cv.to_standard_form_I(cv.sample_random_physical(seed))
            n, m = max(form.n, form.m), min(form.n, form.m)
            if m <= 1.0:
                continue
            assert abs(form.c) <= math.sqrt(n * (m - 1.0 / m)) + 1e-8


class TestSolveR2:
    def test_unit_r1_gives_unit_r2(self):
        assert cv.solve_r2_given_r1(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_case_residual(self):
        r2 = cv.solve_r2_given_r1(2.0, 2.0, 1.5)
        k1 = (2.0 / 1.5 - 1.0) / (2.0 * 1.5 - 1.0)
        k2 = (2.0 / r2 - 1.0) / (2.0 * r2 - 1.0)
        assert abs(k1 - k2) < 1e-12
        assert r2 == pytest.approx(1.5, rel=1e-12)

    def test_degenerate_mode_rejected(self):
        with pytest.raises(cv.DegenerateMode):
            cv.solve_r2_given_r1(1.0 + 1e-15, 2.0, 1.3)
        with pytest.raises(cv.DegenerateMode):
            cv.solve_r2_given_r1(2.0, 1.0 + 1e-15, 1.3)

    def test_r1_below_domain_rejected(self):
        with pytest.raises(ValueError):
            cv.solve_r2_given_r1(2.0, 2.0, 0.5)

    def test_no_real_root_when_orientation_violated(self):
        # With n < m the quadratic has no real root at the extremal
        # r1 = n + sqrt(n^2 - 1); that r1 lies beyond the physical bracket
        # [1, n], so it is rejected before the quadratic is formed.
        with pytest.raises(ValueError):
            cv.solve_r2_given_r1(1.5, 3.0, 1.5 + math.sqrt(1.25))

    @pytest.mark.parametrize(
        "n, m, r1",
        [(2.0, 2.0, math.nextafter(2.0, 3.0)), (2.0, 1.5, 3.0), (1.5, 3.0, 1.6)],
    )
    def test_r1_above_domain_rejected(self, n, m, r1):
        with pytest.raises(ValueError):
            cv.solve_r2_given_r1(n, m, r1)

    @settings(max_examples=200)
    @given(
        n=st.floats(min_value=1.001, max_value=50.0),
        m=st.floats(min_value=1.001, max_value=50.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_branch_residual_property(self, n, m, frac):
        # Every r1 in the physical bracket [1, n] has a real branch, for
        # either mode order.
        r1 = 1.0 + frac * (n - 1.0)
        r2 = cv.solve_r2_given_r1(n, m, r1)
        assert r2 > 0.0
        k1 = (n / r1 - 1.0) / (n * r1 - 1.0)
        k2 = (m / r2 - 1.0) / (m * r2 - 1.0)
        assert abs(k1 - k2) < 1e-10 * max(1.0, abs(k1))


class TestFormII:
    def test_tmsv_symmetric_family(self):
        form = cv.to_standard_form_II(cv.validate(tmsv_layout(0.5)))
        assert form.r1 == 1.0 and form.r2 == 1.0
        assert not form.degenerate
        assert form.n1 == pytest.approx(COSH1, abs=1e-14)
        assert form.n2 == pytest.approx(COSH1, abs=1e-14)
        assert form.m1 == pytest.approx(COSH1, abs=1e-14)
        assert form.m2 == pytest.approx(COSH1, abs=1e-14)
        assert form.c1 == pytest.approx(SINH1, abs=1e-14)
        assert form.c2 == pytest.approx(-SINH1, abs=1e-14)

    def test_vacuum_trivial_form(self):
        form = cv.to_standard_form_II(cv.validate(np.eye(4)))
        assert form.degenerate
        assert form.r1 == 1.0 and form.r2 == 1.0
        assert form.c1 == 0.0 and form.c2 == 0.0
        assert form.n1 == 1.0 and form.m1 == 1.0

    def test_transform_maps_input_with_smaller_first_mode(self):
        # n < m: form II and its transform keep the input's mode order.
        state = cv.validate(layout(1.3, 2.5, 0.4, -0.2))
        form = cv.to_standard_form_II(state)
        assert not form.degenerate and form.r1 != 1.0
        assert form.n1 * form.n2 == pytest.approx(1.3**2, rel=1e-14)
        assert form.m1 * form.m2 == pytest.approx(2.5**2, rel=1e-14)
        b = form.transform.block_diagonal()
        np.testing.assert_allclose(b @ state.m @ b.T, form.matrix(), atol=1e-8)

    def test_random_states_balance_and_roundtrip(self):
        for seed in range(60):
            state = cv.sample_random_physical(seed)
            form = cv.to_standard_form_II(state)
            b = form.transform.block_diagonal()
            np.testing.assert_allclose(b @ state.m @ b.T, form.matrix(), atol=1e-8)
            if form.degenerate:
                continue
            ratio_res, gap_res = cv.balance_residuals(form)
            assert abs(ratio_res) < 1e-8
            assert abs(gap_res) < 1e-8
            # Solver residuals of the two balance equations at (r1, r2).
            f1 = cv.to_standard_form_I(state)
            k_res, f_res = _form_ii_balance(
                f1.n, f1.m, f1.c, f1.c_prime, form.r1, form.r2
            )
            assert k_res < 1e-10
            assert f_res < 1e-10

    def test_invariants_preserved_through_form_ii(self):
        for seed in range(40):
            state = cv.sample_random_physical(seed)
            form = cv.to_standard_form_II(state)
            before = np.array(cv.llubo_invariants(state).as_tuple())
            after = np.array(
                cv.llubo_invariants(cv.validate(form.matrix())).as_tuple()
            )
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)

    def test_solver_root_is_bracketed_for_physical_states(self):
        # The balance function root lies in [1, n] for every physical state.
        for seed in range(1000):
            f1 = cv.to_standard_form_I(cv.sample_random_physical(seed))
            n, m = max(f1.n, f1.m), min(f1.n, f1.m)
            if m - 1.0 < cv.EPS_FORM or max(abs(f1.c), abs(f1.c_prime)) < cv.EPS_FORM:
                continue
            r1, r2 = cv.solve_form_II_root(n, m, f1.c, f1.c_prime)
            assert 1.0 <= r1 <= n and r2 >= 1.0 - 1e-12

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_anticorrelated_scatter_root_at_bracket_end(self, d):
        # I + 2 d^2 v v^T with v = (1, 0, -1, 0): c' = 0 and a saturated x
        # sector put the root exactly at r1 = n, where f(n) is rounding.
        plus = (0.5, cv.ModeSpec(d, 0.0, np.eye(2)), cv.ModeSpec(-d, 0.0, np.eye(2)))
        minus = (0.5, cv.ModeSpec(-d, 0.0, np.eye(2)), cv.ModeSpec(d, 0.0, np.eye(2)))
        state = cv.ensemble_covariance(cv.SeparableEnsemble((plus, minus)))
        f1 = cv.to_standard_form_I(state)
        n = max(f1.n, f1.m)
        assert f1.c_prime == 0.0
        form = cv.to_standard_form_II(state)
        assert not form.degenerate
        assert 1.0 <= form.r1 <= n
        assert form.r1 == pytest.approx(n, rel=1e-14)
        # c2 = 0 drops out of the variance, so the optimal pair exists (with
        # sign_v = +1); the mixture is on the separability edge, and the
        # pair saturates its bound as the spectrum does.
        verdict = cv.decide_separability(state)
        assert verdict.witness == cv.EprPair(1.0, -1, 1)
        assert verdict.decision is cv.Decision.BOUNDARY
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)

    def test_form_matrix_is_physical(self):
        for seed in range(30):
            form = cv.to_standard_form_II(cv.sample_random_physical(seed))
            assert complex_min_eig(form.matrix()) >= -1e-8

    def test_either_mode_order_mirrors_the_root(self):
        mirrored = 0
        for seed in range(60):
            f1 = cv.to_standard_form_I(cv.sample_random_physical(seed))
            if min(f1.n, f1.m) - 1.0 < cv.EPS_FORM or f1.n == f1.m:
                continue
            r1, r2 = cv.solve_form_II_root(f1.n, f1.m, f1.c, f1.c_prime)
            assert cv.solve_form_II_root(f1.m, f1.n, f1.c, f1.c_prime) == (r2, r1)
            mirrored += r1 != r2
        assert mirrored > 30

    def test_unphysical_coefficient_never_brackets(self):
        # |c| beyond sqrt(n(m - 1/m)) keeps the balance function positive
        # at the end r1 = n of the bracket; physical states cannot get here.
        with pytest.raises(cv.RootNotBracketed):
            cv.solve_form_II_root(2.0, 2.0, 3.0, 0.1)


class TestInternalTransforms:
    """Transforms cvsep builds itself skip ``Llubo``'s copy but not its checks."""

    @staticmethod
    def _assert_det_one_read_only(op):
        assert isinstance(op, cv.Llubo)
        for blk in (op.h1, op.h2):
            assert blk.shape == (2, 2) and blk.dtype == np.float64
            assert not blk.flags.writeable
            (a, b), (c, d) = blk.tolist()
            assert abs(a * d - b * c - 1.0) <= cv.EPS_DET

    def test_det_one_and_read_only(self):
        states = [cv.sample_random_physical(seed) for seed in range(1000)]
        for r in (0.1, 1.0, 3.0, 10.0):
            for nbar in (0.0, 0.5, 3.0):
                for t in np.linspace(0.0, 2.0, 9):
                    scenario = cv.ThermalScenario(r=r, eta=1.0, nbar=nbar, t=float(t))
                    states.append(cv.evolve_thermal(scenario))
        certificates = 0
        for state in states:
            verdict = cv.decide_separability(state)
            ops = [cv.to_standard_form_I(state).transform, verdict.form.transform]
            if verdict.certificate is not None:
                ops.append(verdict.certificate.transform_back)
                certificates += 1
            for op in ops:
                self._assert_det_one_read_only(op)
                self._assert_det_one_read_only(op.inverse())
        assert certificates > 300

    def test_decisions_build_no_transform_array(self, monkeypatch):
        built = []
        block_array = cv.core._block_array

        def counted(entries):
            built.append(entries)
            return block_array(entries)

        monkeypatch.setattr(cv.core, "_block_array", counted)
        verdicts = [cv.decide_separability(cv.sample_random_physical(s)) for s in range(40)]
        assert {v.decision for v in verdicts} >= {cv.Decision.SEPARABLE, cv.Decision.ENTANGLED}
        cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        certificates = [v.certificate for v in verdicts if v.certificate is not None]
        assert built == []  # certificates invert on floats too
        assert certificates[0].transform_back.h1.shape == (2, 2)
        assert len(built) == 1  # the first read builds the array

    def test_form_II_reuses_form_I_transform_at_unit_squeezes(self, monkeypatch):
        # r1 = r2 = 1 squeezes nothing, so form II's transform is form I's.
        fresh = cv.Llubo._fresh
        calls = []

        def counted(e1, e2):
            calls.append((e1, e2))
            return fresh(e1, e2)

        monkeypatch.setattr(cv.Llubo, "_fresh", staticmethod(counted))
        thermal = [
            cv.evolve_thermal(cv.ThermalScenario(r=r, eta=1.0, nbar=0.5, t=t))
            for r in (0.3, 2.0) for t in (0.0, 0.2, 1.0)
        ]
        product = cv.validate(np.diag([2.0, 2.0, 3.0, 3.0]))
        for state in thermal + [product]:
            calls.clear()
            form = cv.decide_separability(state).form
            assert (form.r1, form.r2) == (1.0, 1.0) and len(calls) == 1
            assert form.transform._e1 == cv.to_standard_form_I(state).transform._e1
        assert form.degenerate  # the product state, last in the loop
        calls.clear()
        cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        assert len(calls) == 20
        for seed in range(20):
            state = cv.sample_random_physical(seed)
            calls.clear()
            form = cv.decide_separability(state).form
            assert form.r1 != 1.0 and len(calls) == 2

    @pytest.mark.parametrize(
        "r, nu, k1, k2, a1, a2, stage",
        [(0.5, 1.0, 8.0, -4.0, 1.1, -1.1, "I"), (0.7, 3.0, 8.0, -8.0, 1.3, 1.3, "II")],
    )
    def test_strong_squeeze_raises_from_the_decision(self, r, nu, k1, k2, a1, a2, stage):
        # The check runs when cvsep builds a transform, before any verdict:
        # deferring it to the first read of h1 or h2 gives wrong verdicts.
        h1 = rot2(a1) @ np.diag([math.exp(k1), math.exp(-k1)])
        h2 = rot2(a2) @ np.diag([math.exp(k2), math.exp(-k2)])
        b = blockdiag(h1, h2)
        m = b @ (nu * tmsv_layout(r)) @ b.T
        state = cv.validate(0.5 * (m + m.T))
        with pytest.raises(cv.InvalidLlubo, match=r"^det\(h[12]\) = "):
            cv.decide_separability(state)
        if stage == "I":
            with pytest.raises(cv.InvalidLlubo):
                cv.to_standard_form_I(state)
        else:
            cv.to_standard_form_I(state)  # only form II's squeezed blocks fail

    def test_strong_local_squeezes_raise_or_agree(self):
        # Squeezes up to e^12 round the form-I and form-II products away
        # from det 1; that must raise InvalidLlubo, not yield a verdict.
        rng = np.random.default_rng(6)
        eps = np.finfo(float).eps
        invalid = 0
        for seed in range(1000):
            base = cv.sample_random_physical(seed)
            b = blockdiag(*random_llubo_blocks(rng, max_log_squeeze=12.0))
            m = b @ base.m @ b.T
            try:
                state = cv.validate(0.5 * (m + m.T))
                verdict = cv.decide_separability(state)
            except cv.InvalidLlubo:
                invalid += 1
                continue
            except cv.CvsepError:
                continue
            op = verdict.form.transform
            self._assert_det_one_read_only(cv.to_standard_form_I(state).transform)
            self._assert_det_one_read_only(op)
            if verdict.decision is not cv.ppt_decision(base):
                # Known defect (ROADMAP item 3): a wrong verdict here has its
                # eigenvalue inside the rounding error of the reduction.
                norm2 = max(float((op.h1**2).sum()), float((op.h2**2).sum()))
                band = 64 * eps * max(float(np.abs(m).max()) * norm2, 1.0)
                assert abs(verdict.min_eigenvalue) < band
        assert invalid > 100
