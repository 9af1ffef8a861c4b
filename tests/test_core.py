"""Core type and operation tests: validation, local operations, variances."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cvsep as cv
from cvsep import cli
from _util import (
    COSH1,
    HALF_CORRELATED,
    NEAR_VACUUM,
    OMEGA4,
    SINH1,
    accepted_edge_states,
    blockdiag,
    complex_min_eig,
    exact_det,
    float_edge_matrices,
    layout,
    near_vacuum_forms,
    non_number_identities,
    random_llubo_blocks,
    rot2,
    strong_local_squeezes,
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

    def test_complex_input_rejected(self):
        # A cast to float would drop the imaginary part.
        for m in (np.eye(4) + 1j * np.eye(4), np.eye(4).astype(complex)):
            with pytest.raises(ValueError, match="correlation matrix must be real"):
                cv.validate(m)

    @pytest.mark.parametrize("m", non_number_identities(4))
    def test_non_number_dtype_rejected(self, m):
        # A cast to float would read True, "1.0" and Fraction(1) as 1.0.
        with pytest.raises(ValueError, match="correlation matrix must be real, got dtype"):
            cv.validate(m)

    def test_integer_input_accepted(self):
        for dtype in (np.int64, np.uint8):
            state = cv.validate(np.diag([2, 2, 3, 3]).astype(dtype))
            assert state.m.dtype == np.float64
            np.testing.assert_array_equal(state.m, np.diag([2.0, 2.0, 3.0, 3.0]))

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
        assert np.abs(m - m.T).max() > 1e3 * cv.core.EPS_SYM
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
        # G1, G2 and C are read-only slices of m.
        m = tmsv_layout(0.3)
        state = cv.validate(m)
        for block in (np.s_[:2, :2], np.s_[2:, 2:], np.s_[:2, 2:]):
            np.testing.assert_array_equal(state.m[block], m[block])
            assert not state.m[block].flags.writeable


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

    def test_complex_block_rejected(self):
        with pytest.raises(cv.InvalidLlubo, match="h2 must be real"):
            cv.Llubo(np.eye(2), np.eye(2) + 1j * np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("h", non_number_identities(2))
    def test_non_number_block_rejected(self, h):
        with pytest.raises(cv.InvalidLlubo, match="h1 must be real, got dtype"):
            cv.Llubo(h, np.eye(2))

    def test_integer_blocks_accepted(self):
        op = cv.Llubo(np.eye(2, dtype=int), np.array([[1, 1], [0, 1]]))
        assert op.h2.tolist() == [[1.0, 1.0], [0.0, 1.0]] and op.h2.dtype == np.float64

    def test_nan_determinant_of_finite_entries_rejected(self):
        # a*d - b*c is inf - inf = NaN, which no |det - 1| test may pass.
        with pytest.raises(cv.InvalidLlubo, match=r"^det\(h1\) = nan differs from 1"):
            cv.Llubo(np.full((2, 2), 1e200), np.eye(2))
        with pytest.raises(cv.InvalidLlubo, match=r"^det\(h2\) = nan differs from 1"):
            cv.Llubo._fresh((1.0, 0.0, 0.0, 1.0), (1e200, 1e200, 1e200, 1e200))

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

    @pytest.mark.parametrize("kind", ["gaussian", "unit-det", "squeezed-e12"])
    def test_inverse_keeps_determinants_bit_for_bit(self, kind):
        # inverse() skips the determinant check: the adjugate's d*a - (-b)*(-c)
        # is a*d - b*c bit for bit, so it passes exactly where the block's did.
        rng = np.random.default_rng(17)
        for _ in range(500):
            if kind == "gaussian":  # any determinant
                h1, h2 = rng.normal(size=(2, 2, 2))
            else:
                h1, h2 = random_llubo_blocks(rng, 12.0 if kind == "squeezed-e12" else 1.0)
            e1, e2 = (tuple(h.ravel().tolist()) for h in (h1, h2))
            # Unchecked, so that blocks rejected by Llubo(h1, h2) are covered.
            op = cv.core._frozen(cv.Llubo, {"_e1": e1, "_e2": e2})
            inv = op.inverse()
            for (a, b, c, d), (ai, bi, ci, di) in ((e1, inv._e1), (e2, inv._e2)):
                assert (ai * di - bi * ci).hex() == (a * d - b * c).hex()
            back = inv.inverse()
            assert [x.hex() for x in back._e1 + back._e2] == [x.hex() for x in e1 + e2]
            assert _accepted(h1, h2) == _accepted(inv.h1, inv.h2)

    def test_inverse_blocks(self):
        rng = np.random.default_rng(3)
        h1, h2 = random_llubo_blocks(rng)
        op = cv.Llubo(h1, h2)
        inv = op.inverse()
        np.testing.assert_allclose(inv.h1 @ h1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.h2 @ h2, np.eye(2), atol=1e-12)


def _accepted(h1, h2):
    try:
        cv.Llubo(h1, h2)
    except cv.InvalidLlubo:
        return False
    return True


class TestReadOnlyArrays:
    """Arrays cvsep owns are read-only float64 copies of what they were built
    from."""

    @staticmethod
    def _assert_owned(arr, source=None):
        assert arr.dtype == np.float64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0
        if source is not None:
            assert not np.shares_memory(arr, source)
            np.testing.assert_array_equal(arr, source)

    def test_omega(self):
        self._assert_owned(cv.core.OMEGA)
        assert cv.core.OMEGA.tobytes() == OMEGA4.tobytes()

    def test_state_and_blocks(self):
        m = np.array(cv.sample_random_physical(4).m)
        self._assert_owned(cv.validate(m).m, m)
        h1, h2 = random_llubo_blocks(np.random.default_rng(2))
        op = cv.Llubo(h1, h2)
        self._assert_owned(op.h1, h1)
        self._assert_owned(op.h2, h2)
        inv = op.inverse()
        self._assert_owned(inv.h1)
        self._assert_owned(inv.h2)

    def test_certificate_covariance(self):
        verdict = cv.decide_separability(cv.sample_random_physical(0))
        cert = verdict.certificate
        assert cert is not None
        self._assert_owned(cert.covariance)
        assert not np.shares_memory(cert.covariance, verdict.form.matrix())
        assert cv.p_representation(verdict.form).covariance.tobytes() == (
            cert.covariance.tobytes()
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_mode_covariance(self, dtype):
        cov = np.array([[2, 1], [1, 3]], dtype=dtype)
        spec = cv.ModeSpec(0.0, 0.0, cov)
        self._assert_owned(spec.cov, cov)
        cov[0, 0] = 5
        assert spec.cov[0, 0] == 2.0

    def test_mode_covariance_from_lists(self):
        nested = [[1.5, -0.0], [0.0, 1.5]]
        spec = cv.ModeSpec(0.0, 0.0, nested)
        self._assert_owned(spec.cov)
        assert spec.cov.tobytes() == np.array(nested).tobytes()  # -0.0 kept


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
            out.m[:2, :2], np.diag([4.0 * n, n / 4.0]), rtol=1e-14
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


def _validated(matrices):
    """The states ``validate`` builds from ``matrices``, skipping rejected ones."""
    for m in matrices:
        try:
            yield cv.validate(m)
        except cv.NotPhysical:
            continue


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

    def test_each_invariant_is_the_nearest_float_of_its_exact_value(self):
        # The exact invariants of the state's own floats, as Fractions: the
        # three block determinants from 2x2 products, det M by cofactor
        # expansion.  float() of a Fraction is correctly rounded, and the
        # hex strings tell a +0.0 from a -0.0.
        def minor(rows, i, j):
            (a, b), (c, d) = (map(Fraction, rows[r][j : j + 2]) for r in (i, i + 1))
            return a * d - b * c

        def nearest(x):
            try:
                return float(x)
            except OverflowError:
                return math.inf if x > 0 else -math.inf

        def check(states):
            count = 0
            for state in states:
                rows = state._rows
                exact = (minor(rows, 0, 0), minor(rows, 2, 2), minor(rows, 0, 2))
                exact += (exact_det(rows),)
                got = cv.llubo_invariants(state).as_tuple()
                assert [x.hex() for x in got] == [nearest(x).hex() for x in exact], rows
                count += 1
            return count

        assert check(cv.sample_random_physical(seed) for seed in range(400)) == 400
        mixtures = (
            cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 5))
            for seed in range(400)
        )
        assert check(mixtures) == 400
        assert check(state for _, state in accepted_edge_states(cv, range(100))) == 600
        squeezed = strong_local_squeezes(
            [cv.sample_random_physical(seed).m for seed in range(100)]
        )
        assert check(_validated(squeezed)) > 0
        # The extremes of the shift to integers: -0.0, a subnormal (2^-1074,
        # the largest shift) next to 1e150-scaled entries, and det M beyond
        # the float range.
        edges = {name: cv.validate(m) for name, m in float_edge_matrices().items()}
        assert math.copysign(1.0, edges["signed-zero-subnormal"]._rows[1][3]) == -1.0
        assert edges["subnormal-1e150"]._rows[0][1] == 5e-324
        assert check(edges.values()) == 4

    def test_every_state_has_exactly_symmetric_rows(self, tmp_path, monkeypatch):
        # llubo_invariants reads only the entries on and above the diagonal,
        # so each state the library builds must mirror them bit for bit
        # (float.hex, so a -0.0 cannot hide).
        def symmetric(state):
            hexes = [[x.hex() for x in row] for row in state._rows]
            return hexes == [list(col) for col in zip(*hexes)]

        states = [cv.sample_random_physical(seed) for seed in range(100)]
        states += [
            cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 5))
            for seed in range(100)
        ]
        states += [state for _, state in accepted_edge_states(cv, range(50))]
        states += _validated(
            strong_local_squeezes([cv.sample_random_physical(seed).m for seed in range(50)])
        )
        for family in NEAR_VACUUM:
            states += _validated(layout(*f) for f in near_vacuum_forms(family, 100))
        rng = np.random.default_rng(7)
        states += [
            cv.apply_llubo(cv.sample_random_physical(seed), cv.Llubo(*random_llubo_blocks(rng)))
            for seed in range(50)
        ]
        # Each scan point's state, as scan_boundary builds it.
        thermal_state = cv.scenarios._thermal_state
        scanned = []
        monkeypatch.setattr(
            cv.scenarios, "_thermal_state",
            lambda *args: scanned.append(thermal_state(*args)) or scanned[-1],
        )
        cv.scan_boundary(1.0, 1.0, 1.0, 2.0, 40)
        cv.scan_boundary(0.3, 0.5, 0.0, 3.0, 40)
        assert len(scanned) == 80
        states += scanned
        # State files asymmetric within EPS_SYM, one in a signed zero.
        near = cv.sample_random_physical(3).m.tolist()
        near[0][2] += 4e-11
        near[3][1] -= 3e-11
        zeros = np.diag([1.3, 1.3, 2.4, 2.4]).tolist()
        zeros[1][3], zeros[3][1] = -0.0, 0.0
        for name, matrix in (("near", near), ("zeros", zeros)):
            path = tmp_path / f"{name}.json"
            doc = {"matrix": matrix, "ordering": cli.ORDERING_TAG, "scaling": cli.SCALING_TAG}
            path.write_text(json.dumps(doc))
            states.append(cli.load_state_file(str(path)))
        assert near[0][2] != near[2][0] and near[3][1] != near[1][3]
        assert len(states) > 700
        assert all(map(symmetric, states))

    def test_det_m_of_strong_squeezes_is_not_zero(self):
        # Under strong local squeezes det M cancels from much larger terms:
        # an LU without row swaps gives det M = 0.0 on 11 of these states
        # (numpy 2.4's np.linalg.det: 6), where a Schur complement's
        # diagonal entry rounds to exactly 0.
        matrices = strong_local_squeezes(
            [cv.sample_random_physical(seed).m for seed in range(100)]
        )
        for m in matrices:
            try:
                state = cv.validate(m)
            except cv.NotPhysical:
                continue
            assert cv.llubo_invariants(state).det_m != 0.0

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowed_det_m_is_inf_without_warning(self, scale):
        # An accepted state whose det M overflows; the suite turns a
        # RuntimeWarning into an error.
        m = scale * HALF_CORRELATED
        inv = cv.llubo_invariants(cv.validate(m))
        assert inv.det_m == math.inf
        assert inv.det_g1 == m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def test_finite_det_m_past_an_overflowing_partial_product(self):
        # A thermal mode times a squeezed one: the diagonal's running product
        # 1e150 * 1e150 * 1e10 passes the float range before 1.1e-10 brings
        # det M back in.
        state = cv.validate(np.diag([1e150, 1e150, 1e10, 1.1e-10]))
        exact = exact_det(state._rows)
        det_m = cv.llubo_invariants(state).det_m
        assert math.isfinite(det_m)
        assert abs(Fraction(det_m) - exact) / exact < Fraction(1e-15)

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

    def test_finite_at_coefficient_range_edges(self):
        # a^2 tr G1 or tr G2 / a^2 is ~2e308 here, beyond float range: only
        # its half is finite.
        vac = cv.validate(np.eye(4))
        for a, expected in ((7.5e-155, 1.7777777777777781e308), (1e154, 1e308)):
            res = cv.total_variance_check(vac, cv.EprPair(a))
            assert res.total_variance == res.bound == expected
            assert not res.violated

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


def test_exports():
    # The package exports the names of the README's table and their types;
    # tolerances and solver steps stay in their submodules.
    assert len(cv.__all__) == len(set(cv.__all__)) == 44
    assert all(hasattr(cv, name) for name in cv.__all__)
    submodule_names = {
        cv.core: ("EPS_DET", "EPS_SYM", "OMEGA"),
        cv.standard_form: ("EPS_FORM", "solve_form_II_root", "solve_r2_given_r1"),
        cv.separability: ("construct_epr_pair", "reconstruct_analytic"),
    }
    for module, names in submodule_names.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(cv, name)
    assert not hasattr(cv, "DegenerateMode") and not hasattr(cv.core, "EPS_PSD")
