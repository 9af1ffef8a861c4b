"""Standard-form reduction tests: constructions, solver, invariants."""

import itertools
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
    accepted_edge_states,
    blockdiag,
    complex_min_eig,
    layout,
    random_llubo_blocks,
    rot2,
    strong_local_squeezes,
    symmetric_layout,
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
            cv.separability.reconstruct_analytic(verdict.certificate), m, rtol=1e-12, atol=0
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

    def test_scalars_ordered_on_accepted_states(self):
        # c >= |c'| >= 0 and n, m >= 1, which form II's degeneracy test reads
        # off c alone.  The scalars are the state's own (to_standard_form_I
        # returns them), read directly because strong squeezes make its
        # transform raise InvalidLlubo.
        states = [cv.sample_random_physical(seed) for seed in range(1000)]
        states += [state for _, state in accepted_edge_states(cv, range(100))]
        accepted = len(states)
        for matrix in strong_local_squeezes([state.m for state in states[:1000]]):
            try:
                states.append(cv.validate(matrix))
            except cv.CvsepError:
                pass
        assert accepted > 1500 and len(states) - accepted > 900
        for state in states:
            n, m, c, c_prime = state._form_I[:4]
            assert c >= abs(c_prime) >= 0.0
            assert n >= 1.0 and m >= 1.0


class TestSolveR2:
    def test_unit_r1_gives_unit_r2(self):
        assert cv.standard_form.solve_r2_given_r1(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_case_residual(self):
        r2 = cv.standard_form.solve_r2_given_r1(2.0, 2.0, 1.5)
        k1 = (2.0 / 1.5 - 1.0) / (2.0 * 1.5 - 1.0)
        k2 = (2.0 / r2 - 1.0) / (2.0 * r2 - 1.0)
        assert abs(k1 - k2) < 1e-12
        assert r2 == pytest.approx(1.5, rel=1e-12)

    def test_degenerate_mode_rejected(self):
        with pytest.raises(cv.DegenerateForm):
            cv.standard_form.solve_r2_given_r1(1.0 + 1e-15, 2.0, 1.3)
        with pytest.raises(cv.DegenerateForm):
            cv.standard_form.solve_r2_given_r1(2.0, 1.0 + 1e-15, 1.3)

    def test_r1_below_domain_rejected(self):
        with pytest.raises(ValueError):
            cv.standard_form.solve_r2_given_r1(2.0, 2.0, 0.5)

    def test_no_real_root_when_orientation_violated(self):
        # With n < m the quadratic has no real root at the extremal
        # r1 = n + sqrt(n^2 - 1); that r1 lies beyond the physical bracket
        # [1, n], so it is rejected before the quadratic is formed.
        with pytest.raises(ValueError):
            cv.standard_form.solve_r2_given_r1(1.5, 3.0, 1.5 + math.sqrt(1.25))

    @pytest.mark.parametrize(
        "n, m, r1",
        [(2.0, 2.0, math.nextafter(2.0, 3.0)), (2.0, 1.5, 3.0), (1.5, 3.0, 1.6)],
    )
    def test_r1_above_domain_rejected(self, n, m, r1):
        with pytest.raises(ValueError):
            cv.standard_form.solve_r2_given_r1(n, m, r1)

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
        r2 = cv.standard_form.solve_r2_given_r1(n, m, r1)
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

    def test_gap_residual_is_the_solvers_residual(self):
        # balance_residuals' gap is f at the returned root, bit for bit, with
        # the larger mode first as the solver takes it.
        checked = 0
        for seed in range(3000):
            state = cv.sample_random_physical(seed)
            form = cv.to_standard_form_II(state)
            if form.degenerate:
                continue
            n, m, c, c_prime = state._form_I[:4]
            if n >= m:
                f = cv.standard_form._balance_residual(n, m, abs(c), abs(c_prime), form.r1)[0]
            else:
                f = cv.standard_form._balance_residual(m, n, abs(c), abs(c_prime), form.r2)[0]
            assert cv.balance_residuals(form)[1] == f
            checked += 1
        assert checked > 2900

    @pytest.mark.parametrize(
        "n1, n2, m1, m2, c1, c2, ratio, gap",
        [
            # m1 - 1 or m2 - 1 within EPS_FORM: the ratio is vacuous.
            (2.5, 1.75, 1.0 + 5e-9, 1.6, 0.3, -0.2, "0x0.0p+0", "0x1.8a9d9e920aa55p-1"),
            (2.5, 1.75, 1.6, 1.0, 0.3, -0.2, "0x0.0p+0", "-0x1.b2869e0393a64p-1"),
            # (n1 - 1)(m1 - 1) < 0: the clamp gives that root 0.
            (0.5, 1.75, 1.5, 1.6, 0.3, -0.2, "-0x1.2000000000000p+1", "0x1.8aa8f87832596p-1"),
            (2.5, 1.75, math.nan, 1.6, 0.3, -0.2, "0x0.0p+0", "nan"),
            (2.5, 1.75, 1.6, 1.4, -0.7, 0.1, "0x1.3fffffffffff8p-1", "0x1.97a1e52fd2838p-3"),
        ],
    )
    def test_residuals_of_hand_built_forms(self, n1, n2, m1, m2, c1, c2, ratio, gap):
        # Forms no reduction returns, pinned bit for bit.
        form = cv.StandardFormII(
            n1=n1, n2=n2, m1=m1, m2=m2, c1=c1, c2=c2, r1=1.0, r2=1.0,
            transform=cv.Llubo.identity(), degenerate=False,
        )
        assert [x.hex() for x in cv.balance_residuals(form)] == [ratio, gap]

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
            if m - 1.0 < cv.standard_form.EPS_FORM or max(abs(f1.c), abs(f1.c_prime)) < cv.standard_form.EPS_FORM:
                continue
            r1, r2 = cv.standard_form.solve_form_II_root(n, m, f1.c, f1.c_prime)
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
            if min(f1.n, f1.m) - 1.0 < cv.standard_form.EPS_FORM or f1.n == f1.m:
                continue
            r1, r2 = cv.standard_form.solve_form_II_root(f1.n, f1.m, f1.c, f1.c_prime)
            assert cv.standard_form.solve_form_II_root(f1.m, f1.n, f1.c, f1.c_prime) == (r2, r1)
            mirrored += r1 != r2
        assert mirrored > 30

    def test_unphysical_coefficient_never_brackets(self):
        # |c| beyond sqrt(n(m - 1/m)) keeps the balance function positive
        # at the end r1 = n of the bracket; physical states cannot get here.
        with pytest.raises(cv.RootNotBracketed):
            cv.standard_form.solve_form_II_root(2.0, 2.0, 3.0, 0.1)


@pytest.fixture
def residual_calls(monkeypatch):
    """Arguments of each call to ``standard_form.solve_r2_given_r1``: one per
    residual evaluation of the root solve, counted as the benchmark does."""
    calls = []
    solve_r2 = cv.standard_form.solve_r2_given_r1

    def counted(*args):
        calls.append(args)
        return solve_r2(*args)

    monkeypatch.setattr(cv.standard_form, "solve_r2_given_r1", counted)
    return calls


def evaluation_bound(n):
    """The documented bound on one call's residual evaluations, bigger mode n:
    ``2 log2((n - 1) / ulp(1))`` steps, plus ``f(1)`` and ``f(n)``, plus 2 for
    the midpoint's rounding."""
    return 4 + math.ceil(2.0 * math.log2((n - 1.0) / math.ulp(1.0)))


def _contract_forms():
    """Accepted, non-degenerate form-I scalars of seeded random and edge states."""
    states = [cv.sample_random_physical(seed) for seed in range(1000)]
    states += [state for _, state in accepted_edge_states(cv, range(200))]
    eps = cv.standard_form.EPS_FORM
    for state in states:
        n, m, c, cp = state._form_I[:4]
        if not (c < eps or n - 1.0 < eps or m - 1.0 < eps):
            yield n, m, c, cp


def _residual_signs(big, small, c, cp, r1):
    """Signs (0 for a root) of the residual at the floats within 8 steps of
    r1 in ``[1, big]``; f(big) within its rounding allowance counts as a
    root, as in the solver's bracket check."""
    near = [r1]
    for toward in (0.0, math.inf):
        x = r1
        for _ in range(8):
            x = math.nextafter(x, toward)
            if 1.0 <= x <= big:
                near.append(x)
    allowance = cv.standard_form.EPS_FORM * max(1.0, big * abs(c))
    signs = set()
    for x in near:
        f = cv.standard_form._balance_residual(big, small, abs(c), abs(cp), x)[0]
        root = f == 0.0 or (x == big and f <= allowance)
        signs.add(0.0 if root else math.copysign(1.0, f))
    return signs


class TestSolveRoot:
    @pytest.mark.parametrize(
        "n, m, c, cp, expected",
        [
            # |c| = |c'|, either mode order: the unit exit.
            (3.0, 2.0, 1.5, -1.5, (1.0, 1.0)),
            (2.0, 3.0, 1.5, -1.5, (1.0, 1.0)),
            (2.0, 2.0, 0.0, -0.0, (1.0, 1.0)),
            # |c| < |c'|, either mode order.
            (3.0, 2.0, 1.0, -1.2, (1.0, 1.0)),
            (2.0, 3.0, 1.0, 1.2, (1.0, 1.0)),
            # |c| > |c'|: solved, the root mirrored with the modes (see
            # test_root_within_4_ulp_of_bisection).
            (3.0, 2.0, 1.5, 0.5, (1.5275499155836278, 1.3648365531115727)),
            (2.0, 3.0, 1.5, 0.5, (1.3648365531115727, 1.5275499155836278)),
            # Vacuum modes and n < 1.
            (1.0, 2.0, 0.5, 0.5, cv.DegenerateForm),
            (2.0, 1.0, 0.5, 0.5, cv.DegenerateForm),
            (1.0, 1.0, 0.0, 0.0, cv.DegenerateForm),
            (0.5, 2.0, 0.1, 0.1, cv.DegenerateForm),
            (0.5, 0.5, 0.1, 0.1, cv.DegenerateForm),
            # NaN and infinite entries.
            (math.nan, 2.0, 0.1, 0.1, ValueError),
            (math.nan, math.nan, 0.1, 0.1, ValueError),
            (2.0, math.nan, 0.1, 0.1, cv.RootNotBracketed),
            (2.0, 2.0, math.nan, 0.1, cv.RootNotBracketed),
            (2.0, 2.0, 0.1, math.nan, cv.RootNotBracketed),
            (2.0, 2.0, math.inf, math.inf, cv.RootNotBracketed),
            (math.inf, 2.0, 1.0, 1.0, cv.RootNotBracketed),
            (2.0, math.inf, 1.0, 1.0, cv.RootNotBracketed),
            (2.0, 2.0, 0.1, math.inf, (1.0, 1.0)),
            # An infinite |c| makes f(n) = +inf, not a root at n.
            (2.0, 2.0, math.inf, 0.1, cv.RootNotBracketed),
            (2.0, 2.0, -math.inf, 0.1, cv.RootNotBracketed),
            (3.0, 2.0, math.inf, 1.0, cv.RootNotBracketed),
            # (n - 1)(m - 1) overflows: f(1) is NaN, not |c| - |c'|.
            (1e200, 1e200, 1.0, 1.0, cv.RootNotBracketed),
            (1e160, 1e160, 1.0, 1.0, cv.RootNotBracketed),
            (1e300, 2.0, 1.0, 1.0, (1.0, 1.0)),
            (2.0, 1e300, 1.0, 1.0, (1.0, 1.0)),
        ],
    )
    def test_unit_exit_as_the_residual_decides(self, n, m, c, cp, expected):
        # The root is (1, 1) without a solve exactly where f(1) <= 0,
        # and the residual's guards raise as the solver does.
        solve = cv.standard_form.solve_form_II_root
        big, small = (m, n) if n < m else (n, m)
        try:
            unit = cv.standard_form._balance_residual(big, small, abs(c), abs(cp), 1.0)[0] <= 0.0
        except (cv.DegenerateForm, ValueError) as exc:
            assert type(exc) is expected
            with pytest.raises(expected, match=re.escape(str(exc))):
                solve(n, m, c, cp)
            return
        assert unit == (expected == (1.0, 1.0))
        if isinstance(expected, tuple):
            assert solve(n, m, c, cp) == expected
        else:
            with pytest.raises(expected):
                solve(n, m, c, cp)

    @pytest.mark.parametrize("n, m, c, cp", [(3.0, 2.0, 1.5, 0.5), (2.0, 3.0, 1.5, 0.5)])
    def test_root_within_4_ulp_of_bisection(self, n, m, c, cp):
        # Bisection to the last bit found (1.527549915583628, 1.364836553111573),
        # where the residual is exactly 0; the secant loop stops at a 4-ulp
        # bracket, one ulp below in r1 and in r2 here.
        bisected = (1.527549915583628, 1.364836553111573)
        if n < m:
            bisected = bisected[::-1]
        root = cv.standard_form.solve_form_II_root(n, m, c, cp)
        for r, b in zip(root, bisected):
            assert abs(r - b) <= 4.0 * math.ulp(b)

    def test_closed_form_start_of_alike_modes(self, residual_calls):
        # n = m: the first point, sqrt((q - |c'|)/(q - |c|)) with q = n, is the
        # root, so the loop ends a step or two after it: f(n), the start and
        # at most two steps (no f(1): it is exact).
        for seed in range(300):
            n, m, c, cp = cv.validate(symmetric_layout(seed))._form_I[:4]
            assert n == m and c > abs(cp)
            residual_calls.clear()
            r1, r2 = cv.standard_form.solve_form_II_root(n, m, c, cp)
            closed = math.sqrt((n - abs(cp)) / (n - c))
            assert abs(r1 - closed) <= 2.0 * math.ulp(closed)
            assert abs(r2 - closed) <= 4.0 * math.ulp(closed)
            assert len(residual_calls) <= 4

    def test_root_just_above_one(self, residual_calls):
        # |c| one ulp above |c'|: f(1) = 2.2e-16 and f(1 + ulp) = -2.2e-16, so
        # the root is the bracket's lower end to rounding.
        c, cp = 1.5, math.nextafter(1.5, 0.0)
        residual = cv.standard_form._balance_residual
        assert residual(3.0, 2.0, c, cp, 1.0)[0] > 0.0 > residual(3.0, 2.0, c, cp, 1.0 + math.ulp(1.0))[0]
        residual_calls.clear()
        root = cv.standard_form.solve_form_II_root(3.0, 2.0, c, cp)
        assert 1.0 <= root[0] <= 1.0 + 4.0 * math.ulp(1.0)
        assert 1.0 <= root[1] <= 1.0 + 4.0 * math.ulp(1.0)
        # The secant point lands one ulp above 1 and ends the loop in one step.
        assert len(residual_calls) <= 6

    def test_converged_end_does_not_stall(self, residual_calls):
        # Form I of sample_random_physical(4): a secant step lands 2.2e-16
        # below zero while the lower end is 6e-10 away, so the next secant
        # point rounds onto the upper end.  Moved 2 ulp inside, it ends the
        # loop; bisecting there walks the lower end in, 31 evaluations.
        n, m = 3.8481353235089175, 2.5941391306400003
        c, cp = 0.6625787839344379, -0.3426801439506831
        r1, _ = cv.standard_form.solve_form_II_root(n, m, c, cp)
        assert len(residual_calls) <= 12
        assert _residual_signs(n, m, c, cp, r1) == {-1.0, 1.0}

    def test_exact_zero_at_the_bracket_end(self, residual_calls):
        # c' = 0 and c = sqrt((n^2 - 1)(m^2 - 1) / nm) = 2 put f(n) at 0
        # exactly: n is returned with f(n)'s r2 and no step, after f(n) alone
        # (f(1) is exact: both modes are away from vacuum).
        assert cv.standard_form.solve_form_II_root(3.0, 2.0, 2.0, 0.0) == (3.0, 2.0)
        assert len(residual_calls) == 1

    def test_root_at_n_inside_the_allowance(self, residual_calls):
        # c one ulp above 2: f(n) = 1.1e-15 > 0 lies in the rounding allowance,
        # so no sign change is stored and every step bisects towards n.
        c = math.nextafter(2.0, 3.0)
        assert 0.0 < cv.standard_form._balance_residual(3.0, 2.0, c, 0.0, 3.0)[0] < 1e-14
        residual_calls.clear()
        root = cv.standard_form.solve_form_II_root(3.0, 2.0, c, 0.0)
        assert 3.0 - 4.0 * math.ulp(3.0) <= root[0] <= 3.0
        assert root[1] == cv.standard_form.solve_r2_given_r1(3.0, 2.0, root[0])
        assert 50 <= len(residual_calls) <= evaluation_bound(3.0)
        assert cv.standard_form.solve_form_II_root(2.0, 3.0, c, 0.0) == root[::-1]

    def test_returns_the_end_with_the_smaller_true_residual(self, monkeypatch):
        # The Anderson-Bjorck rule scales stored end values, so the returned
        # end is chosen by the true |f| of the last point evaluated on each
        # side.
        residual = cv.standard_form._balance_residual
        evaluated = []

        def logged(*args):
            f, r2 = residual(*args)
            evaluated.append((args[-1], f))
            return f, r2

        monkeypatch.setattr(cv.standard_form, "_balance_residual", logged)
        checked = 0
        for seed in range(1000):
            evaluated.clear()
            n, m, c, cp = cv.sample_random_physical(seed)._form_I[:4]
            r1 = cv.standard_form.solve_form_II_root(max(n, m), min(n, m), c, cp)[0]
            last = {f > 0.0: (x, abs(f)) for x, f in evaluated if f != 0.0}
            if len(last) == 2 and r1 in (last[True][0], last[False][0]):
                assert dict(last.values())[r1] == min(last[True][1], last[False][1])
                checked += 1
        assert checked > 600  # the rest end at an exact zero

    def test_contract_on_seeded_states(self, residual_calls):
        # Random and edge states in both mode orders: a bracketed root with
        # a sign change within 8 floats, mirrored bit for bit, and the
        # documented evaluation bound.
        solve = cv.standard_form.solve_form_II_root
        evals = []
        solved = unbracketed = 0
        for n, m, c, cp in _contract_forms():
            big, small = max(n, m), min(n, m)
            roots = []
            for args in ((n, m, c, cp), (m, n, c, cp)):
                residual_calls.clear()
                try:
                    roots.append(solve(*args))
                except cv.RootNotBracketed:
                    roots.append(None)
                evals.append(len(residual_calls))
                assert evals[-1] <= evaluation_bound(big)
            if roots[0] is None:
                assert roots[1] is None
                unbracketed += 1
                continue
            solved += 1
            if n != m:  # n = m gives the same call twice
                assert roots[1] == roots[0][::-1]
            r1, r2 = roots[0] if n >= m else roots[0][::-1]
            assert 1.0 <= r1 <= big
            assert r2.hex() == cv.standard_form.solve_r2_given_r1(big, small, r1).hex()
            signs = _residual_signs(big, small, c, cp, r1)
            assert 0.0 in signs or signs == {-1.0, 1.0}, (n, m, c, cp, r1)
        assert solved > 1500 and 0 < unbracketed < 40
        assert sum(evals) / len(evals) <= 6.00  # measured 5.50

    @pytest.mark.parametrize(
        "f, root",
        [
            (lambda x: math.expm1(30.0 * (2.0 - x)), 2.0),
            (lambda x: -math.expm1(30.0 * (x - 1.3)), 1.3),
        ],
        ids=["convex", "concave"],
    )
    def test_width_cap_ends_a_crawling_secant(self, monkeypatch, residual_calls, f, root):
        # Saturated at one end, f keeps the far end's stored value ~1e13
        # times the near one's: the scaled secant then creeps along the
        # near end for ~40 steps per move of the far one (over 1000
        # evaluations without the width cap).  The cap's forced bisections
        # keep the call within the documented bound.
        bound = evaluation_bound(3.0)

        def curved(n, m, abs_c, abs_cp, r1):
            r2 = cv.standard_form.solve_r2_given_r1(n, m, r1)
            assert len(residual_calls) <= bound
            return f(r1), r2

        monkeypatch.setattr(cv.standard_form, "_balance_residual", curved)
        r1, _ = cv.standard_form.solve_form_II_root(3.0, 2.0, f(1.0), 0.0)
        assert len(residual_calls) <= bound
        assert abs(r1 - root) <= 4.0 * math.ulp(root)

    def test_lean_clamp_keeps_the_bits_of_max(self, monkeypatch):
        # The residual clamps its radicands as sqrt(max(t, 0.0)) would, NaN
        # and -0.0 included.  (The overflowing (1e200, 1e200, 1, 1) and
        # (1e160, 1e160, 1, 1) cases of test_unit_exit_as_the_residual_decides,
        # with f(n) = inf - inf, still raise RootNotBracketed.)
        values = (0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, math.inf, math.nan)
        r2 = [1.0]
        monkeypatch.setattr(cv.standard_form, "solve_r2_given_r1", lambda n, m, r1: r2[0])
        radicands = []
        for n, m, r1, r2[0] in itertools.product(values, repeat=4):
            s = math.sqrt(r1 * r2[0])
            t_up = (n * r1 - 1.0) * (m * r2[0] - 1.0)
            t_dn = (n / r1 - 1.0) * (m / r2[0] - 1.0)
            radicands += (t_up, t_dn)
            rhs = math.sqrt(max(t_up, 0.0)) - math.sqrt(max(t_dn, 0.0))
            for abs_c, abs_cp in itertools.product((-0.0, 0.0, 1.0), repeat=2):
                want = (s * abs_c - abs_cp / s) - rhs
                got, got_r2 = cv.standard_form._balance_residual(n, m, abs_c, abs_cp, r1)
                assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)
                assert got_r2 is r2[0]
        zeros = {math.copysign(1.0, t) for t in radicands if t == 0.0}
        assert any(map(math.isnan, radicands)) and zeros == {-1.0, 1.0}
        assert any(-1e-15 < t < 0.0 for t in radicands)
        assert any(0.0 < t < 1e-15 for t in radicands)
        assert 1.0 in radicands and math.inf in radicands


class TestInternalTransforms:
    """Transforms cvsep builds itself skip ``Llubo``'s copy but not its checks."""

    @staticmethod
    def _assert_det_one_read_only(op):
        assert isinstance(op, cv.Llubo)
        for blk in (op.h1, op.h2):
            assert blk.shape == (2, 2) and blk.dtype == np.float64
            assert not blk.flags.writeable
            (a, b), (c, d) = blk.tolist()
            assert abs(a * d - b * c - 1.0) <= cv.core.EPS_DET

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
        rows_array = cv.core._rows_array

        def counted(rows):
            built.append(rows)
            return rows_array(rows)

        monkeypatch.setattr(cv.core, "_rows_array", counted)
        verdicts = [cv.decide_separability(cv.sample_random_physical(s)) for s in range(40)]
        assert {v.decision for v in verdicts} >= {cv.Decision.SEPARABLE, cv.Decision.ENTANGLED}
        cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        certificates = [v.certificate for v in verdicts if v.certificate is not None]
        assert built == []  # certificates invert on floats too
        assert certificates[0].transform_back.h1.shape == (2, 2)
        assert len(built) == 1  # the first read builds the array

    def test_form_II_reuses_form_I_transform_at_unit_squeezes(self, monkeypatch):
        # r1 = r2 = 1 squeezes nothing, so form II's transform holds form I's
        # blocks; every block a decision builds is checked once.
        check = cv.core._check_unit_det
        checked = []

        def counted(name, entries):
            checked.append(entries)
            check(name, entries)

        monkeypatch.setattr(cv.core, "_check_unit_det", counted)
        thermal = [
            cv.evolve_thermal(cv.ThermalScenario(r=r, eta=1.0, nbar=0.5, t=t))
            for r in (0.3, 2.0) for t in (0.0, 0.2, 1.0)
        ]
        product = cv.validate(np.diag([2.0, 2.0, 3.0, 3.0]))
        for state in thermal + [product]:
            checked.clear()
            form = cv.decide_separability(state).form
            h1, h2 = state._form_I[4:]
            assert (form.r1, form.r2) == (1.0, 1.0)
            assert form.transform._e1 is h1 and form.transform._e2 is h2
            assert checked == [h1, h2]
        assert form.degenerate  # the product state, last in the loop
        checked.clear()
        cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        assert len(checked) == 40
        for seed in range(20):
            state = cv.sample_random_physical(seed)
            checked.clear()
            form = cv.decide_separability(state).form
            assert form.r1 != 1.0
            assert checked == [*state._form_I[4:], form.transform._e1, form.transform._e2]

    def test_solved_decision_freezes_one_transform(self, monkeypatch):
        # Form I's blocks are checked but not frozen where the solve squeezes
        # them: the form's transform is the one Llubo a decision builds.
        frozen = cv.core._frozen
        transforms = []

        def counted(cls, fields):
            obj = frozen(cls, fields)
            if cls is cv.Llubo:
                transforms.append(obj)
            return obj

        for module in (cv.core, cv.standard_form, cv.separability):
            monkeypatch.setattr(module, "_frozen", counted)
        for seed in range(20):
            state = cv.sample_random_physical(seed)
            transforms.clear()
            form = cv.decide_separability(state).form
            assert form.r1 != 1.0
            assert transforms == [form.transform]

    @pytest.mark.parametrize(
        "r, nu, k1, k2, a1, a2, stage",
        [(0.5, 1.0, 8.0, -4.0, 1.1, -1.1, "I"), (0.7, 3.0, 8.0, -8.0, 1.3, 1.3, "II")],
    )
    def test_strong_squeeze_raises_from_the_decision(
        self, monkeypatch, r, nu, k1, k2, a1, a2, stage
    ):
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
            # Form II checks form I's blocks before its solve (None would
            # raise TypeError), with the message Llubo._fresh gives them.
            with pytest.raises(cv.InvalidLlubo) as expected:
                cv.Llubo._fresh(*state._form_I[4:])
            with monkeypatch.context() as patch:
                patch.setattr(cv.standard_form, "solve_form_II_root", None)
                with pytest.raises(cv.InvalidLlubo, match=f"^{re.escape(str(expected.value))}$"):
                    cv.decide_separability(state)
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
