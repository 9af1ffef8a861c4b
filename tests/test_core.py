"""Core type and operation tests: validation, local operations, variances."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
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


class TestValidate:
    def test_vacuum_is_valid(self):
        state = cv.validate(np.eye(4))
        np.testing.assert_array_equal(state.m, np.eye(4))

    def test_below_vacuum_variances_rejected(self):
        with pytest.raises(cv.NotPhysical):
            cv.validate(np.diag([0.5, 0.5, 1.0, 1.0]))

    def test_tmsv_is_physical(self):
        m = tmsv_layout(0.5)
        # Independent oracle: complex eigensolve of M + i*Omega.
        assert complex_min_eig(m) >= -1e-12
        state = cv.validate(m)
        assert state.m[0, 0] == pytest.approx(COSH1, abs=1e-15)

    def test_non_finite_rejected(self):
        m = np.eye(4)
        m[1, 2] = np.nan
        with pytest.raises(cv.NotFinite):
            cv.validate(m)

    def test_large_asymmetry_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(cv.NotSymmetric):
            cv.validate(m)

    def test_small_asymmetry_silently_symmetrized(self):
        m = np.diag([2.0, 2.0, 2.0, 2.0])
        m[0, 1] = 4e-11  # below EPS_SYM, must not raise
        state = cv.validate(m)
        np.testing.assert_array_equal(state.m, state.m.T)
        assert state.m[0, 1] == pytest.approx(2e-11, rel=1e-12)

    @staticmethod
    def _large_thermal_congruence():
        # Thermal two-mode squeezed state (nu = 1e9, r = 0.5) under a local
        # operation, left unsymmetrized: entries ~1e10, roundoff asymmetry
        # ~1e-6, far above 1e-10 in absolute terms.
        b = blockdiag(*random_llubo_blocks(np.random.default_rng(0)))
        return b @ (1e9 * tmsv_layout(0.5)) @ b.T

    def test_congruence_roundoff_at_large_entry_scale_accepted(self):
        m = self._large_thermal_congruence()
        assert np.diagonal(m).max() > 1e9
        assert np.abs(m - m.T).max() > 1e3 * cv.EPS_SYM
        state = cv.validate(m)
        assert cv.decide_separability(state).decision is cv.Decision.SEPARABLE

    def test_asymmetry_beyond_entry_scale_rejected(self):
        m = self._large_thermal_congruence()
        m[0, 1] += 1e-9 * np.diagonal(m).max()
        with pytest.raises(cv.NotSymmetric):
            cv.validate(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            cv.validate(np.eye(3))
        with pytest.raises(ValueError, match=r"4x4 matrix, got shape \(1, 4, 4\)"):
            cv.validate(np.eye(4)[np.newaxis])

    def test_symmetrized_bytes(self):
        ms = [cv.sample_random_physical(s).m for s in range(40)]
        m = np.diag([2.0, 2.0, 2.0, 2.0])
        m[0, 1] = 4e-11  # below EPS_SYM: symmetrized, not rejected
        ms += [m, tmsv_layout(3.0), np.eye(4), self._large_thermal_congruence()]
        for m in ms:
            state = cv.validate(m)
            assert state.m.tobytes() == (0.5 * (m + m.T)).tobytes()
            assert not state.m.flags.writeable
            assert not np.shares_memory(state.m, m)

    def test_fault_precedence(self):
        # Finiteness is checked before symmetry, symmetry before physicality.
        m = np.diag([0.5, 0.5, 1.0, 1.0])
        m[0, 1] = 1e-6
        message = r"^asymmetry 1\.000e-06 exceeds 1e-10 x max\(1, max diagonal\)$"
        with pytest.raises(cv.NotSymmetric, match=message):
            cv.validate(m)
        m[1, 2] = np.nan
        with pytest.raises(cv.NotFinite, match="^correlation matrix has non-finite"):
            cv.validate(m)

    def test_row_core_raises_as_validate(self):
        # evolve_thermal and scan_boundary validate their rows through it.
        nonfinite, asym = np.eye(4), np.eye(4)
        nonfinite[2, 3] = nonfinite[3, 2] = np.nan
        asym[0, 1] = 0.5
        unphysical = np.diag([0.5, 0.5, 1.0, 1.0])
        for m, error in ((nonfinite, cv.NotFinite), (asym, cv.NotSymmetric),
                         (unphysical, cv.NotPhysical)):
            with pytest.raises(error) as expected:
                cv.validate(m)
            message = f"^{re.escape(str(expected.value))}$"
            with pytest.raises(error, match=message):
                cv.core._validate_rows(m.tolist())

    def test_decisions_build_no_state_array(self, monkeypatch):
        inputs = [np.array(cv.sample_random_physical(s).m) for s in range(40)]
        built = []
        rows_array = cv.core._rows_array

        def counted(rows):
            built.append(rows)
            return rows_array(rows)

        monkeypatch.setattr(cv.core, "_rows_array", counted)
        states = [cv.validate(m) for m in inputs]
        verdicts = [cv.decide_separability(state) for state in states]
        assert {v.decision for v in verdicts} >= {cv.Decision.SEPARABLE, cv.Decision.ENTANGLED}
        cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        scenario = cv.ThermalScenario(r=1.0, eta=1.0, nbar=0.5, t=0.3)
        cv.decide_separability(cv.evolve_thermal(scenario))
        assert built == []
        m = states[0].m
        assert len(built) == 1  # the first read builds the array
        assert states[0].m is m and len(built) == 1
        assert not m.flags.writeable
        assert not np.shares_memory(m, inputs[0])

    def test_validate_is_the_only_constructor(self):
        m = np.eye(4)
        with pytest.raises(TypeError):
            cv.CorrelationMatrix(m)
        state = cv.validate(m)
        m[:] = cv.tmsv_matrix(1.0).m  # entangled; the state must not see it
        assert cv.decide_separability(state).decision is cv.Decision.SEPARABLE
        assert cv.ppt_decision(state) is cv.Decision.SEPARABLE

    def test_form_I_computed_once_per_decision(self, monkeypatch):
        calls = []
        form_I_scalars = cv.core._form_I_scalars

        def counted(rows):
            calls.append(rows)
            return form_I_scalars(rows)

        for module in vars(cv).values():  # wherever cvsep imported it
            if getattr(module, "_form_I_scalars", None) is form_I_scalars:
                monkeypatch.setattr(module, "_form_I_scalars", counted)
        for m in (tmsv_layout(0.5), cv.sample_random_physical(3).m):
            calls.clear()
            cv.decide_separability(cv.validate(m))
            assert len(calls) == 1

    def test_result_is_read_only(self):
        state = cv.validate(np.eye(4))
        with pytest.raises(ValueError):
            state.m[0, 0] = 2.0

    def test_blocks_are_views(self):
        state = cv.validate(tmsv_layout(0.3))
        np.testing.assert_array_equal(state.g1, state.m[:2, :2])
        np.testing.assert_array_equal(state.g2, state.m[2:, 2:])
        np.testing.assert_array_equal(state.c, state.m[:2, 2:])


#: [[I, 2I], [2I, I]]: det G1 = det G2 = 1, det M = 9 and
#: det G1 + det G2 + 2 det C = 10, so its invariants alone give symplectic
#: eigenvalues 1 and 3, yet M has the eigenvalue -1.
INDEFINITE = layout(1.0, 1.0, 2.0, 2.0)


def _degenerate(n, nu):
    """n = m, c' = -c with n^2 - c^2 = nu^2: det M = nu^4.

    For nu < 1 this is unphysical, yet Simon's inequality
    det M + 1 >= n^2 + m^2 + 2cc' = 2 nu^2 holds: only det M >= 1 fails.
    """
    c = math.sqrt(n * n - nu * nu)
    return layout(n, n, c, -c)


def _local_congruence(m, rng, max_log_squeeze):
    b = blockdiag(*random_llubo_blocks(rng, max_log_squeeze))
    return b @ m @ b.T


class TestPhysicality:
    """validate decides M + i*Omega >= 0 on form I's scalars: the result does
    not depend on local operations or on the state's scale."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_indefinite_rejected(self, seed):
        m = INDEFINITE
        if seed is not None:
            m = _local_congruence(m, np.random.default_rng(seed), 4.0)
        assert complex_min_eig(m) < 0.0
        with pytest.raises(cv.NotPhysical, match=r"^nm - c\^2 = -[23]\.?\d* < 0 "):
            cv.validate(m)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1.2, 2.0, 4.5])
    def test_degenerate_sub_vacuum_rejected(self, n, seed):
        m = _degenerate(n, 0.9)
        if seed is not None:
            m = _local_congruence(m, np.random.default_rng(seed), 4.0)
        assert complex_min_eig(m) < 0.0
        with pytest.raises(cv.NotPhysical, match=r"^det M = 0\.656\d* < 1 "):
            cv.validate(m)

    def test_unit_scale_messages(self):
        cases = [
            (np.diag([0.9, 0.9, 1.0, 1.0]), "det G1 = 0.81 < 1 "),
            # 6 digits would print "1 < 1": all of them are shown instead.
            (np.diag([1.0 - 1e-10, 1.0, 1.0, 1.0]), "det G1 = 0.9999999999 < 1 "),
            (np.diag([1.0, 1.0, 0.5, 1.5]), "det G2 = 0.75 < 1 "),
            (INDEFINITE, "nm - c^2 = -3 < 0 "),
            (_degenerate(2.0, 0.9), "det M = 0.6561 < 1 "),
            (-np.eye(4), "G1 is negative definite (tr G1 = -2)"),
        ]
        for m, message in cases:
            with pytest.raises(cv.NotPhysical) as info:
                cv.validate(m)
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
    def test_indefinite_rejected_at_large_scale(self, scale):
        with pytest.raises(cv.NotPhysical):
            cv.validate(scale * INDEFINITE)

    @pytest.mark.parametrize("n, corr", [(1e100, 1e45), (1e150, 1e70)])
    def test_correlated_vacuum_rejected_at_large_scale(self, n, corr):
        # Mode 2 is vacuum, yet correlated: M >= 0 and det M >= 1 hold, but
        # det M + 1 - (n^2 + m^2 + 2cc') = -corr^2 n.  In units of max(n, m),
        # 1 in the units of det M is below the smallest float here.
        with pytest.raises(cv.NotPhysical, match=r"^det M \+ 1 - .* = -\d"):
            cv.validate(layout(n, 1.0, corr, 0.0))

    @pytest.mark.parametrize("corr", [1e100, 1e160, 1e200, 1e300])
    def test_huge_correlation_rejected(self, corr):
        # c^2 overflows from ~1.3e154 on; it must not pass as within rounding.
        with pytest.raises(cv.NotPhysical, match=r"^(nm - c\^2 = -|c = )"):
            cv.validate(layout(1.0, 1.0, corr, 0.0))

    @pytest.mark.parametrize(
        "diagonal", [[1e308, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.7e308]]
    )
    def test_finite_huge_diagonal_accepted(self, diagonal):
        # A product state: symmetrizing must not overflow 2x an entry >= 2^1023.
        state = cv.validate(np.diag(diagonal))
        np.testing.assert_array_equal(state.m, np.diag(diagonal))
        assert cv.decide_separability(state).decision is cv.Decision.SEPARABLE

    @pytest.mark.parametrize("scale", [1e50, 1e100, 1e150])
    def test_scaled_physical_states_accepted(self, scale):
        # s M + i Omega = (s - 1) M + (M + i Omega) >= 0, and s M >= I here.
        for seed in range(100):
            state = cv.validate(scale * cv.sample_random_physical(seed).m)
            verdict = cv.decide_separability(state)
            assert verdict.decision is cv.Decision.SEPARABLE
            assert verdict.min_eigenvalue > 0.0  # fails for NaN too

    def test_physical_states_accepted_under_local_squeezes(self):
        rng = np.random.default_rng(8)
        for seed in range(500):
            m = cv.sample_random_physical(seed).m
            cv.validate(_local_congruence(m, rng, 8.0))
        for r in rng.uniform(0.0, 6.0, size=200):
            # Pure: det M = 1 and det M + 1 = n^2 + m^2 + 2cc', both on the edge.
            cv.validate(_local_congruence(tmsv_layout(r), rng, 8.0))

    @pytest.mark.parametrize("nu", [0.5, 0.9, 0.99])
    def test_sub_vacuum_family_rejected_under_local_squeezes(self, nu):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = _degenerate(rng.uniform(1.0, 5.0), nu)
            with pytest.raises(cv.NotPhysical, match=r"^det M = "):
                cv.validate(_local_congruence(m, rng, 6.0))


class TestLlubo:
    def test_identity(self):
        op = cv.Llubo.identity()
        np.testing.assert_array_equal(op.block_diagonal(), np.eye(4))

    def test_non_unit_determinant_rejected(self):
        with pytest.raises(cv.InvalidLlubo, match=r"det\(h1\) = 2\.0 differs from 1"):
            cv.Llubo(np.diag([2.0, 1.0]), np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(cv.InvalidLlubo, match="h1 has non-finite entries"):
            cv.Llubo(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.eye(2))

    def test_wrong_shape_rejected(self):
        with pytest.raises(cv.InvalidLlubo, match=r"h2 must be 2x2, got \(3,\)"):
            cv.Llubo(np.eye(2), np.ones(3))
        with pytest.raises(cv.InvalidLlubo, match=r"h1 must be 2x2, got \(3, 3\)"):
            cv.Llubo(np.eye(3), np.eye(2))

    def test_blocks_are_read_only_copies(self):
        h1 = np.eye(2)
        op = cv.Llubo(h1, np.eye(2))
        h1[0, 0] = 5.0
        assert op.h1[0, 0] == 1.0
        assert h1.flags.writeable and not op.h1.flags.writeable

    def test_blocks_built_once_on_read(self):
        op = cv.to_standard_form_I(cv.sample_random_physical(0)).transform
        first = op.h1
        assert op.h1 is first and not first.flags.writeable
        with pytest.raises(AttributeError):
            op.h1 = np.eye(2)

    def test_inverse_keeps_signed_zeros(self):
        inv = cv.Llubo(np.eye(2), np.array([[1.0, -0.0], [0.0, 1.0]])).inverse()
        # The adjugate negates the off-diagonal entries, zeros' signs included.
        assert np.signbit(inv.h1).tolist() == [[False, True], [True, False]]
        assert np.signbit(inv.h2).tolist() == [[False, False], [True, False]]

    def test_inverse_blocks(self):
        rng = np.random.default_rng(3)
        h1, h2 = random_llubo_blocks(rng)
        op = cv.Llubo(h1, h2)
        inv = op.inverse()
        np.testing.assert_allclose(inv.h1 @ h1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.h2 @ h2, np.eye(2), atol=1e-12)


class TestApplyLlubo:
    def test_vacuum_rotation_invariant(self):
        vac = cv.validate(np.eye(4))
        op = cv.Llubo(rot2(0.7), rot2(-1.3))
        out = cv.apply_llubo(vac, op)
        np.testing.assert_allclose(out.m, np.eye(4), atol=1e-15)

    def test_identity_is_noop(self):
        state = cv.validate(tmsv_layout(0.5))
        out = cv.apply_llubo(state, cv.Llubo.identity())
        np.testing.assert_array_equal(out.m, state.m)

    def test_local_squeeze_scales_g1(self):
        state = cv.validate(tmsv_layout(0.5))
        op = cv.Llubo(np.diag([2.0, 0.5]), np.eye(2))
        out = cv.apply_llubo(state, op)
        n = COSH1
        np.testing.assert_allclose(
            out.g1, np.diag([4.0 * n, n / 4.0]), rtol=1e-14
        )
        # Oracle: the same congruence computed by hand.
        b = blockdiag(np.diag([2.0, 0.5]), np.eye(2))
        np.testing.assert_allclose(out.m, b @ state.m @ b.T, atol=1e-14)
        before = cv.llubo_invariants(state).as_tuple()
        after = cv.llubo_invariants(out).as_tuple()
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("diagonal", [(1e308, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.7e308)])
    def test_finite_huge_diagonal_kept(self, diagonal):
        # Averaging the diagonal with itself would overflow (a RuntimeWarning,
        # an error under this suite, then NotFinite).
        state = cv.validate(np.diag(diagonal))
        out = cv.apply_llubo(state, cv.Llubo.identity())
        np.testing.assert_array_equal(out.m, state.m)

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            state = cv.sample_random_physical(seed)
            h1, h2 = random_llubo_blocks(rng)
            op = cv.Llubo(h1, h2)
            back = cv.apply_llubo(cv.apply_llubo(state, op), op.inverse())
            np.testing.assert_allclose(back.m, state.m, rtol=1e-9, atol=1e-9)

    def test_strong_squeezes_on_thermal_squeezed_states(self):
        # Congruence roundoff grows with the entries; it must not read as an
        # asymmetric input.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r, nu = rng.uniform(0.0, 3.0), rng.uniform(1.0, 3.0)
            state = cv.validate(nu * tmsv_layout(r))
            h1, h2 = random_llubo_blocks(rng, 6.0)
            out = cv.apply_llubo(state, cv.Llubo(h1, h2))  # must not raise
            np.testing.assert_array_equal(out.m, out.m.T)

    def test_preserves_physicality(self):
        rng = np.random.default_rng(12)
        for seed in range(50):
            state = cv.sample_random_physical(seed)
            h1, h2 = random_llubo_blocks(rng)
            out = cv.apply_llubo(state, cv.Llubo(h1, h2))  # must not raise
            assert complex_min_eig(out.m) >= -1e-9 * np.max(np.diag(out.m))


class TestLluboInvariants:
    def test_vacuum(self):
        inv = cv.llubo_invariants(cv.validate(np.eye(4)))
        assert inv.as_tuple() == (1.0, 1.0, 0.0, 1.0)

    def test_tmsv(self):
        inv = cv.llubo_invariants(cv.validate(tmsv_layout(0.5)))
        assert inv.det_g1 == pytest.approx(COSH1**2, rel=1e-14)
        assert inv.det_g2 == pytest.approx(COSH1**2, rel=1e-14)
        assert inv.det_c == pytest.approx(-(SINH1**2), rel=1e-14)
        # (nm - c^2)(nm - c'^2) = (cosh^2 - sinh^2)^2 = 1 by the identity.
        assert inv.det_m == pytest.approx(1.0, abs=1e-12)

    def test_block_determinants_match_numpy_scalars(self):
        # Bit for bit, so `cvsep check --json` prints the same invariants.
        for seed in range(50):
            m = cv.sample_random_physical(seed).m
            inv = cv.llubo_invariants(cv.validate(m))
            blocks = (m[:2, :2], m[2:, 2:], m[:2, 2:])
            for det, blk in zip((inv.det_g1, inv.det_g2, inv.det_c), blocks):
                assert det == blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
            assert inv.det_m == float(np.linalg.det(m))

    def test_unchanged_by_random_llubo(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            state = cv.sample_random_physical(seed)
            h1, h2 = random_llubo_blocks(rng)
            out = cv.apply_llubo(state, cv.Llubo(h1, h2))
            before = np.array(cv.llubo_invariants(state).as_tuple())
            after = np.array(cv.llubo_invariants(out).as_tuple())
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)


class TestVariancePair:
    def test_vacuum_unit_pair(self):
        vac = cv.validate(np.eye(4))
        pair = cv.EprPair(1.0, sign_u=1, sign_v=-1)  # u = x1+x2, v = p1-p2
        assert cv.variance_pair(vac, pair) == pytest.approx(2.0, abs=1e-15)

    def test_tmsv_correlated_pair(self):
        state = cv.validate(tmsv_layout(0.5))
        pair = cv.EprPair(1.0, sign_u=-1, sign_v=1)  # u = x1-x2, v = p1+p2
        expected = 2.0 * math.exp(-1.0)  # closed form 2 e^{-2r}
        assert cv.variance_pair(state, pair) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7357588823428847, abs=1e-12)

    def test_vacuum_a_two(self):
        vac = cv.validate(np.eye(4))
        pair = cv.EprPair(2.0, sign_u=1, sign_v=-1)
        assert cv.variance_pair(vac, pair) == pytest.approx(4.25, abs=1e-15)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(cv.ZeroCoefficient):
            cv.EprPair(0.0)

    def test_coefficient_range(self):
        # Outside ~[7.46e-155, 1.34e154], a^2 or 1/a^2 is 0 or inf.
        for a in (1e-300, 1e-160, 7.4e-155, 1.35e154, 1e160, -1e160):
            with pytest.raises(cv.ZeroCoefficient):
                cv.EprPair(a)
        vac = cv.validate(np.eye(4))
        for a in (7.5e-155, -7.5e-155, 1.34e154):
            assert math.isfinite(cv.total_variance_check(vac, cv.EprPair(a)).bound)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            cv.EprPair(1.0, sign_u=2, sign_v=-1)

    @given(
        a=st.floats(min_value=0.05, max_value=20.0),
        r=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_invariant_under_sign_flip_of_a(self, a, r):
        state = cv.validate(tmsv_layout(r))
        plus = cv.variance_pair(state, cv.EprPair(a, -1, 1))
        minus = cv.variance_pair(state, cv.EprPair(-a, -1, 1))
        assert plus == minus

    def test_uncertainty_floor(self):
        # total variance >= |a^2 - 1/a^2| for every physical state and pair
        rng = np.random.default_rng(5)
        for seed in range(40):
            state = cv.sample_random_physical(seed)
            a = math.exp(rng.uniform(-2.0, 2.0))
            for su in (-1, 1):
                for sv in (-1, 1):
                    total = cv.variance_pair(state, cv.EprPair(a, su, sv))
                    floor = abs(a * a - 1.0 / (a * a))
                    assert total >= floor - 1e-9 * max(1.0, floor)
