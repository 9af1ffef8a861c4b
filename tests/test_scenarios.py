"""Thermal-decoherence scenario tests: closed forms and the scanned boundary."""

import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import cvsep as cv
from _util import COSH1, SINH1, tmsv_layout

T_STAR_111 = 0.17965206772540485  # ln(1 + (1 - e^-2)/2) / 2
NAN, INF = math.nan, math.inf


def decimal_threshold(r, eta, nbar):
    """``ln(1 + (1 - e^{-2r}) / (2 nbar)) / (2 eta)`` to 60 digits beyond the
    cancellation of ``1 - e^{-2r}``, rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 60 - Decimal(r).adjusted()
        gap = 1 - (-2 * Decimal(r)).exp()
        return float((1 + gap / (2 * Decimal(nbar))).ln() / (2 * Decimal(eta)))


class TestTmsvMatrix:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_array_equal(cv.tmsv_matrix(0.0).m, np.eye(4))

    def test_half_squeezing_values(self):
        m = cv.tmsv_matrix(0.5).m
        np.testing.assert_allclose(m, tmsv_layout(0.5), atol=0)
        assert m[0, 0] == pytest.approx(COSH1, abs=1e-15)
        assert m[0, 2] == pytest.approx(SINH1, abs=1e-15)
        assert m[1, 3] == pytest.approx(-SINH1, abs=1e-15)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_purity_determinant_identity(self, r):
        assert np.linalg.det(cv.tmsv_matrix(r).m) == pytest.approx(1.0, abs=1e-10)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            cv.tmsv_matrix(-0.1)

    @pytest.mark.parametrize("r", [178.0, 400.0, INF, NAN, 9e307, 1e308])
    def test_squeezing_beyond_float_range_rejected(self, r):
        # cosh(2r)**2 overflows from r = 177.79...; cosh itself from ~355, and
        # 2r is inf from ~8.99e307, where cosh(inf) raises no OverflowError.
        with pytest.raises(ValueError):
            cv.tmsv_matrix(r)

    def test_largest_squeezing_accepted(self):
        assert math.isfinite(cv.tmsv_matrix(177.7).m[0, 0] ** 2)


class TestEvolveThermal:
    def test_time_zero_is_exactly_tmsv(self):
        sc = cv.ThermalScenario(r=0.8, eta=0.7, nbar=1.5, t=0.0)
        np.testing.assert_array_equal(cv.evolve_thermal(sc).m, cv.tmsv_matrix(0.8).m)

    def test_vacuum_bath_long_time_approaches_identity(self):
        sc = cv.ThermalScenario(r=1.0, eta=1.0, nbar=0.0, t=30.0)
        np.testing.assert_allclose(cv.evolve_thermal(sc).m, np.eye(4), atol=1e-12)

    def test_threshold_vicinity_values(self):
        sc = cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=0.1796526)
        m = cv.evolve_thermal(sc).m
        n, c = m[0, 0], m[0, 2]
        assert n == pytest.approx(3.532126, abs=1e-5)
        assert c == pytest.approx(2.532136, abs=1e-5)
        # Symmetric-family separability boundary: n - c = 1 at the threshold.
        assert n - c - 1.0 == pytest.approx(0.0, abs=1e-5)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            cv.ThermalScenario(r=-1.0, eta=1.0, nbar=0.0, t=0.0)
        with pytest.raises(ValueError):
            cv.ThermalScenario(r=1.0, eta=0.0, nbar=0.0, t=0.0)
        with pytest.raises(ValueError):
            cv.ThermalScenario(r=1.0, eta=1.0, nbar=-0.5, t=0.0)
        with pytest.raises(ValueError):
            cv.ThermalScenario(r=1.0, eta=1.0, nbar=0.0, t=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("r", NAN), ("r", INF), ("eta", NAN), ("eta", INF),
         ("nbar", NAN), ("nbar", INF), ("t", NAN)],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        params = {"r": 1.0, "eta": 1.0, "nbar": 1.0, "t": 0.5, field: value}
        with pytest.raises(ValueError):
            cv.ThermalScenario(**params)

    @pytest.mark.parametrize("r", [178.0, 400.0, 9e307, 1e308])
    def test_squeezing_beyond_float_range_rejected(self, r):
        with pytest.raises(ValueError):
            cv.ThermalScenario(r=r, eta=1.0, nbar=1.0, t=0.0)

    @pytest.mark.parametrize("nbar", [6.71e153, 1e160, 1e308])
    def test_occupation_beyond_float_range_rejected(self, nbar):
        # (2 nbar + 1)**2, det G1 at long times, overflows from nbar = 6.7e153:
        # a scenario error, not an unphysical matrix.
        message = r"^\(2 nbar \+ 1\)\*\*2 overflows"
        with pytest.raises(ValueError, match=message):
            cv.ThermalScenario(r=1.0, eta=1.0, nbar=nbar, t=0.0)
        with pytest.raises(ValueError, match=message):
            cv.scan_boundary(1.0, 1.0, nbar, 1.0, 2)
        assert cv.threshold_time(1.0, 1.0, nbar) < 1e-150  # a closed form, unchanged

    def test_largest_occupation_scans(self):
        points = cv.scan_boundary(1.0, 1.0, 6.7e153, 1.0, 3)
        assert [p.decision for p in points] == [cv.Decision.ENTANGLED] + [
            cv.Decision.SEPARABLE
        ] * 2
        assert all(math.isfinite(p.margin) for p in points)

    def test_infinite_time_is_thermal_product_state(self):
        sc = cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=INF)
        np.testing.assert_array_equal(cv.evolve_thermal(sc).m, 3.0 * np.eye(4))


class TestThresholdTime:
    def test_reference_point(self):
        t = cv.threshold_time(1.0, 1.0, 1.0)
        assert t == pytest.approx(T_STAR_111, rel=1e-14)
        # Oracle: n(t*) - c(t*) = 1 exactly on the symmetric family.
        decay = math.exp(-2.0 * t)
        n = math.cosh(2.0) * decay + 3.0 * (1.0 - decay)
        c = math.sinh(2.0) * decay
        assert n - c == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_bath_is_infinite(self):
        assert cv.threshold_time(0.7, 2.0, 0.0) is cv.INFINITE

    def test_large_occupation_asymptote(self):
        t = cv.threshold_time(1.0, 1.0, 100.0)
        asym = (1.0 - math.exp(-2.0)) / (4.0 * 100.0)
        assert abs(t - asym) / asym < 0.03

    def test_eta_scales_inverse_time(self):
        assert cv.threshold_time(1.0, 2.0, 1.0) == pytest.approx(
            0.5 * cv.threshold_time(1.0, 1.0, 1.0), rel=1e-14
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cv.threshold_time(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cv.threshold_time(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            cv.threshold_time(1.0, 1.0, -1.0)

    def test_infinite_repr(self):
        # INFINITE is math.inf, so it compares above every finite lifetime.
        assert cv.INFINITE == math.inf
        assert repr(cv.INFINITE) == "inf"
        vacuum = cv.threshold_time(0.7, 2.0, 0.0)
        for nbar in (1e-300, 1e-3, 1.0, 1e300):
            assert vacuum > cv.threshold_time(0.7, 2.0, nbar)

    def test_subnormal_occupation_stays_finite(self):
        # (1 - e^-2) / (2 nbar) overflows; ln(1 + x) ~ ln x does not.
        t = cv.threshold_time(1.0, 1.0, 1e-320)
        expected = (math.log(1.0 - math.exp(-2.0)) - math.log(2e-320)) / 2.0
        assert t == pytest.approx(expected, rel=1e-15)
        assert t == pytest.approx(367.994, abs=1e-3)
        assert cv.threshold_time(1.0, 1.0, 1e-300) < t < cv.INFINITE

    def test_huge_occupation_stays_positive(self):
        # 2 nbar overflows from ~9e307; the lifetime ~ gap / (4 eta nbar) does not.
        t = cv.threshold_time(1.0, 1.0, 1e308)
        assert t > 0.0
        gap = 1.0 - math.exp(-2.0)
        assert t == pytest.approx(float(Fraction(gap) / (4 * Fraction(1e308))), rel=1e-12)

    @pytest.mark.parametrize("args", [(NAN, 1.0, 1.0), (1.0, NAN, 1.0), (1.0, 1.0, NAN)])
    def test_nan_arguments_rejected(self, args):
        with pytest.raises(ValueError):
            cv.threshold_time(*args)

    @pytest.mark.parametrize(
        "r, eta, nbar",
        [(1e-9, 1.0, 1.0), (1e-12, 1.0, 1.0), (1e-15, 1.0, 1.0), (1e-320, 0.5, 1e-320)],
    )
    def test_small_squeezing_matches_decimal_reference(self, r, eta, nbar):
        # 1 - e^{-2r} cancels for small r.  At r = nbar = 1e-320 the
        # lifetime is ln 2.
        ref = decimal_threshold(r, eta, nbar)
        t = cv.threshold_time(r, eta, nbar)
        assert abs(t - ref) <= 2 * sys.float_info.epsilon * ref

    @pytest.mark.parametrize(
        "r, eta, nbar",
        [(1.0, 1e308, 1.0), (1.0, 1.7e308, 20.0), (1e-9, 1e308, 1.0),
         (1.0, 1e308, 1e-300), (3.0, 9e307, 1e-5), (1.0, 1e308, 1e-320),
         (0.5, 1.7976931348623157e308, 1e308)],
    )
    def test_huge_damping_matches_decimal_reference(self, r, eta, nbar):
        # 2 eta overflows from eta ~ 8.99e307, yet the lifetime is finite:
        # subnormal in most cases, normal for a small nbar, and 0 only where
        # it underflows itself (the last case).
        ref = decimal_threshold(r, eta, nbar)
        t = cv.threshold_time(r, eta, nbar)
        assert abs(t - ref) <= 2 * math.ulp(ref)
        assert (t > 0.0) == (ref > 0.0)


class TestScanBoundary:
    @pytest.mark.parametrize(
        "r, eta, nbar, t_max, t_min",
        [
            (1.0, 1.0, 1.0, INF, 0.0),
            (1.0, 1.0, 1.0, INF, INF),
            (1.0, 1.0, 1.0, NAN, 0.0),
            (1.0, 1.0, 1.0, 1.0, NAN),
            (NAN, 1.0, 1.0, 1.0, 0.0),
            (INF, 1.0, 1.0, 1.0, 0.0),
            (1.0, NAN, 1.0, 1.0, 0.0),
            (1.0, INF, 1.0, 1.0, 0.0),
            (1.0, 1.0, NAN, 1.0, 0.0),
            (1.0, 1.0, INF, 1.0, 0.0),
        ],
    )
    def test_non_finite_parameters_rejected(self, r, eta, nbar, t_max, t_min):
        with pytest.raises(ValueError):
            cv.scan_boundary(r, eta, nbar, t_max, 5, t_min=t_min)

    def test_grid_straddles_threshold(self):
        points = cv.scan_boundary(1.0, 1.0, 1.0, 0.4, 41)
        assert len(points) == 41
        flips = [
            (a.t, b.t)
            for a, b in zip(points, points[1:])
            if a.decision is cv.Decision.ENTANGLED
            and b.decision is not cv.Decision.ENTANGLED
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo < T_STAR_111 < hi
        assert hi - lo == pytest.approx(0.01, rel=1e-9)

    def test_margin_sign_tracks_decision(self):
        points = cv.scan_boundary(1.0, 1.0, 1.0, 0.4, 41)
        for p in points:
            if p.decision is cv.Decision.ENTANGLED:
                assert p.margin > 0.0
            elif p.decision is cv.Decision.SEPARABLE:
                assert p.margin < 0.0

    def test_vacuum_bath_grid_all_entangled(self):
        points = cv.scan_boundary(1.0, 1.0, 0.0, 5.0, 11)
        assert all(p.decision is cv.Decision.ENTANGLED for p in points)

    def test_grid_beyond_threshold_all_separable(self):
        points = cv.scan_boundary(1.0, 1.0, 1.0, 0.5, 7, t_min=0.2)
        assert all(p.decision is cv.Decision.SEPARABLE for p in points)

    def test_margin_strictly_decreasing(self):
        for r in (0.5, 1.0):
            for nbar in (0.5, 2.0):
                points = cv.scan_boundary(r, 1.0, nbar, 0.6, 25)
                margins = [p.margin for p in points]
                assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_symmetric_family_stays_balanced(self):
        # Every evolved state reduces with r1 = r2 = 1 and a0 = 1.
        for t in np.linspace(0.0, 0.5, 6):
            state = cv.evolve_thermal(
                cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=float(t))
            )
            form = cv.to_standard_form_II(state)
            assert form.r1 == pytest.approx(1.0, abs=1e-8)
            assert form.r2 == pytest.approx(1.0, abs=1e-8)
            if not form.degenerate:
                pair = cv.separability.construct_epr_pair(form)
                assert pair.a == pytest.approx(1.0, abs=1e-8)

    def test_equals_per_point_loop(self):
        # Reference: the scan as a loop of the public scalar calls.
        rng = np.random.default_rng(7)
        triples = [(10.0, 1.0, 1.0)] + [
            (rng.uniform(0.1, 10.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0))
            for _ in range(23)
        ] + [(2.0, 1.0, 0.0)]  # vacuum bath
        for k, (r, eta, nbar) in enumerate(triples):
            t_max = float(rng.uniform(0.05, 1.5))
            t_min = t_max * float(rng.uniform(0.1, 0.9)) if k % 2 else 0.0
            resolution = 2 + k % 13
            expected = []
            for i in range(resolution):
                t = t_min + (t_max - t_min) * i / (resolution - 1)
                verdict = cv.decide_separability(
                    cv.evolve_thermal(cv.ThermalScenario(r=r, eta=eta, nbar=nbar, t=t))
                )
                expected.append((t.hex(), verdict.margin.hex(), verdict.decision))
            points = cv.scan_boundary(r, eta, nbar, t_max, resolution, t_min=t_min)
            # float.hex, not ==, so that -0.0 and 0.0 differ.
            assert [(p.t.hex(), p.margin.hex(), p.decision) for p in points] == expected

    @pytest.mark.parametrize(
        "r, eta, nbar", [(1.0, 1.0, 1.0), (0.5, 1.0, 0.0)], ids=["thermal", "vacuum-bath"]
    )
    def test_degenerate_points_equal_per_point_loop(self, r, eta, nbar):
        # Up to t = 40 the grid reaches forms flagged degenerate, decided by
        # the stopgap rule with the fallback a = 1 pair: in a thermal bath
        # c = sinh(2r) e^-80 is below EPS_FORM, in a vacuum bath n - 1 rounds
        # to 0.
        t_max, resolution = 40.0, 41
        expected, degenerate = [], []
        for i in range(resolution):
            t = t_max * i / (resolution - 1)
            state = cv.evolve_thermal(cv.ThermalScenario(r=r, eta=eta, nbar=nbar, t=t))
            verdict = cv.decide_separability(state)
            expected.append((t.hex(), verdict.margin.hex(), verdict.decision))
            degenerate.append(cv.to_standard_form_II(state).degenerate)
        assert any(degenerate)
        points = cv.scan_boundary(r, eta, nbar, t_max, resolution)
        assert [(p.t.hex(), p.margin.hex(), p.decision) for p in points] == expected

    @pytest.mark.parametrize(
        "r, eta, nbar, t_max, estimated",
        [
            (1.0, 1.0, 0.5, 2.0, True),
            (10.0, 1.0, 3.0, 1.0, True),
            (0.5, 1.0, 0.0, 40.0, False),
        ],
        ids=["tmsv-at-t0", "r10", "vacuum-bath"],
    )
    def test_points_build_form_I_bit_for_bit(
        self, monkeypatch, r, eta, nbar, t_max, estimated
    ):
        # A point's rows come from cosh 2r, sinh 2r and 2 nbar + 1 taken once
        # per scan: its checked rows and form I must be evolve_thermal's state
        # bit for bit (float.hex, so a -0.0 cannot hide).  At t = 0 the
        # squeezed vacuum has det M = 1, which some r meet only within the
        # rounding estimates of _check_physical.
        def hexes(rows, form_I):
            n, m, c, cp, h1, h2 = form_I
            return [[x.hex() for x in row] for row in [*rows, (n, m, c, cp), h1, h2]]

        checked_rows = cv.scenarios._checked_rows
        scanned = []
        monkeypatch.setattr(
            cv.scenarios, "_checked_rows",
            lambda rows: scanned.append(checked_rows(rows)) or scanned[-1],
        )
        points = cv.scan_boundary(r, eta, nbar, t_max, 41)
        monkeypatch.undo()
        assert len(scanned) == len(points) == 41
        rounding = []
        require = cv.core._require
        monkeypatch.setattr(
            cv.core, "_require", lambda *args: rounding.append(args) or require(*args)
        )
        for point, (rows, form_I) in zip(points, scanned):
            state = cv.evolve_thermal(cv.ThermalScenario(r=r, eta=eta, nbar=nbar, t=point.t))
            assert hexes(rows, form_I) == hexes(state._rows, state._form_I)
            if point.t == 0.0:
                assert bool(rounding) == estimated

    def test_points_build_no_per_point_values(self, monkeypatch):
        # A point is decided from form II's floats by the decision core: no
        # state, transform, form I, form II, witness pair or verdict.
        built = Counter()
        for module in (cv.core, cv.standard_form, cv.separability):
            frozen = module._frozen

            def counted(cls, fields, frozen=frozen):
                built[cls.__name__] += 1
                return frozen(cls, fields)

            monkeypatch.setattr(module, "_frozen", counted)
        pair_init = cv.EprPair.__init__

        def counted_pair(self, *args, **kwargs):
            built["EprPair"] += 1
            pair_init(self, *args, **kwargs)

        monkeypatch.setattr(cv.EprPair, "__init__", counted_pair)
        points = cv.scan_boundary(1.0, 1.0, 0.5, 2.0, 20)
        assert len(points) == 20
        assert built["SeparabilityVerdict"] == built["EprPair"] == 0
        assert built["StandardFormI"] == built["StandardFormII"] == 0
        assert built["CorrelationMatrix"] == built["Llubo"] == 0

    @pytest.mark.parametrize(
        "r, eta, nbar",
        [(-0.1, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0), (178.0, 1.0, 1.0), (400.0, 1.0, 1.0)],
    )
    def test_bad_scenario_rejected(self, r, eta, nbar):
        with pytest.raises(ValueError):
            cv.scan_boundary(r, eta, nbar, 0.4, 5)

    @pytest.mark.parametrize(
        "t_max, resolution", [(1e308, 3), (1.0, 10**400)], ids=["t_max", "resolution"]
    )
    def test_grid_beyond_float_range_rejected(self, t_max, resolution):
        # A grid point would be inf, or the resolution has no float value.
        with pytest.raises(ValueError, match=r"\(resolution - 1\) overflows"):
            cv.scan_boundary(1.0, 1.0, 1.0, t_max, resolution)

    def test_huge_damping_scans(self):
        # -2 eta is -inf from eta = 8.99e307, but eta * t at t = 0 is 0.
        points = cv.scan_boundary(1.0, 1e308, 1.0, 1.0, 3)
        assert [p.decision for p in points] == [cv.Decision.ENTANGLED] + [
            cv.Decision.SEPARABLE
        ] * 2

    def test_largest_squeezing_scans(self):
        points = cv.scan_boundary(177.7, 1.0, 1.0, 1.0, 3)
        assert len(points) == 3
        assert all(math.isfinite(p.margin) for p in points)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            cv.scan_boundary(1.0, 1.0, 1.0, 0.4, 1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            cv.scan_boundary(1.0, 1.0, 1.0, 0.1, 5, t_min=0.2)
