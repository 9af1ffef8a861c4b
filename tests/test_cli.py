"""Command-line interface tests: exit codes, reports, file formats."""

import json

import numpy as np
import pytest

import cvsep as cv
from cvsep import cli
from _util import tmsv_layout


def write_state(path, matrix, ordering="x1p1x2p2", scaling="vacuum-identity"):
    doc = {"matrix": np.asarray(matrix).tolist(), "ordering": ordering, "scaling": scaling}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def vacuum_file(tmp_path):
    return write_state(tmp_path / "vacuum.json", np.eye(4))


@pytest.fixture
def tmsv_file(tmp_path):
    return write_state(tmp_path / "tmsv.json", tmsv_layout(0.5))


class TestCheck:
    def test_vacuum_exits_separable(self, vacuum_file, capsys):
        code = cli.main(["check", vacuum_file])
        out = capsys.readouterr().out
        assert code == cli.EXIT_SEPARABLE
        assert "decision: Separable" in out
        assert "margin: 0" in out
        assert "boundary-adjacent" in out

    def test_tmsv_exits_entangled(self, tmsv_file, capsys):
        code = cli.main(["check", tmsv_file])
        out = capsys.readouterr().out
        assert code == cli.EXIT_ENTANGLED
        assert "decision: Entangled" in out
        assert "0.735758882" in out
        assert "bound (a^2 + 1/a^2): 2" in out

    def test_boundary_exit_code(self, tmp_path, capsys):
        t_star = cv.threshold_time(1.0, 1.0, 1.0)
        state = cv.evolve_thermal(cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=t_star))
        path = write_state(tmp_path / "edge.json", state.m)
        assert cli.main(["check", path]) == cli.EXIT_BOUNDARY

    def test_anisotropic_block_certified(self, tmp_path, capsys):
        # A product state whose mode-1 block has entries 1e-155 and 1e155.
        m = np.diag([1e-155, 1e155, 2.0, 2.0])
        code = cli.main(["check", write_state(tmp_path / "aniso.json", m)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_SEPARABLE
        assert "decision: Separable" in captured.out
        assert captured.err == ""

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        m = np.eye(4)
        m[0, 1] = 0.5
        path = write_state(tmp_path / "bad.json", m)
        code = cli.main(["check", path])
        assert code == cli.EXIT_UNPHYSICAL
        assert "error:" in capsys.readouterr().err

    def test_unphysical_matrix_rejected(self, tmp_path, capsys):
        path = write_state(tmp_path / "sub.json", np.diag([0.5, 0.5, 1.0, 1.0]))
        assert cli.main(["check", path]) == cli.EXIT_UNPHYSICAL

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == cli.EXIT_NOFILE

    def test_garbage_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE

    def test_wrong_ordering_tag(self, tmp_path, capsys):
        path = write_state(tmp_path / "tag.json", np.eye(4), ordering="p1x1p2x2")
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
            "ordering": "x1p1x2p2",
            "scaling": "vacuum-identity",
        }))
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE

    def test_json_report_round_trips(self, tmsv_file, tmp_path, capsys):
        code = cli.main(["check", tmsv_file, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_ENTANGLED
        assert doc["decision"] == "entangled"
        assert doc["margin"] == pytest.approx(1.2642411176571153, abs=1e-9)
        assert doc["witness"] == {"a": 1.0, "sign_u": -1, "sign_v": 1}
        # The embedded state document reloads through the same schema.
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(doc["state"]))
        assert cli.main(["check", str(path)]) == cli.EXIT_ENTANGLED

    def test_json_separable_carries_certificate(self, vacuum_file, capsys):
        cli.main(["check", vacuum_file, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "separable"
        assert doc["certificate"]["covariance"] == [[0.0] * 4] * 4

    def test_tolerance_flag(self, tmp_path, capsys):
        path = write_state(tmp_path / "weak.json", tmsv_layout(0.1))
        assert cli.main(["check", path]) == cli.EXIT_ENTANGLED
        assert cli.main(["check", path, "--tol-decide", "10"]) == cli.EXIT_BOUNDARY
        assert cli.main(["check", path]) == cli.EXIT_ENTANGLED

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_tolerance_is_usage_error(self, tmsv_file, tmp_path, capsys, value):
        assert cli.main(["check", tmsv_file, "--tol-decide", value]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        # Rejected before the state file is read.
        missing = str(tmp_path / "nope.json")
        assert cli.main(["check", missing, "--tol-decide", value]) == cli.EXIT_USAGE

    def test_json_key_order(self, tmp_path, capsys):
        state = cv.evolve_thermal(cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=0.5))
        path = write_state(tmp_path / "thermal.json", state.m)
        assert cli.main(["check", path, "--json"]) == cli.EXIT_SEPARABLE
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "decision", "total_variance", "bound", "margin", "min_eigenvalue",
            "witness", "invariants", "standard_form_ii", "certificate",
            "tol_decide", "state",
        ]
        assert list(doc["witness"]) == ["a", "sign_u", "sign_v"]
        assert list(doc["invariants"]) == ["det_g1", "det_g2", "det_c", "det_m"]
        assert list(doc["standard_form_ii"]) == [
            "n1", "n2", "m1", "m2", "c1", "c2", "r1", "r2", "degenerate",
        ]
        assert list(doc["certificate"]) == ["covariance", "transform_back"]
        assert list(doc["certificate"]["transform_back"]) == ["h1", "h2"]

    def test_json_boundary_state(self, tmp_path, capsys):
        t_star = cv.threshold_time(1.0, 1.0, 1.0)
        state = cv.evolve_thermal(
            cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=t_star)
        )
        path = write_state(tmp_path / "edge.json", state.m)
        assert cli.main(["check", path, "--json"]) == cli.EXIT_BOUNDARY
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "boundary"
        assert doc["certificate"] is None


class TestReduce:
    def test_form_i_values(self, tmsv_file, capsys):
        assert cli.main(["reduce", tmsv_file, "--form", "I"]) == 0
        out = capsys.readouterr().out
        assert "n = 1.54308063" in out
        assert "c = 1.17520119" in out
        assert "c' = -1.17520119" in out

    def test_form_ii_vacuum_trivial(self, vacuum_file, capsys):
        assert cli.main(["reduce", vacuum_file, "--form", "II"]) == 0
        out = capsys.readouterr().out
        assert "r1 = 1, r2 = 1" in out
        assert "degenerate: True" in out

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["reduce", str(tmp_path / "nope.json")]) == cli.EXIT_NOFILE

    def test_form_ii_residuals_reported(self, tmp_path, capsys):
        state = cv.sample_random_physical(17)
        path = write_state(tmp_path / "rand.json", state.m)
        assert cli.main(["reduce", path]) == 0
        out = capsys.readouterr().out
        assert "balance residuals" in out
        ratio = float(out.split("ratio = ")[1].split(",")[0])
        gap = float(out.split("gap = ")[1].splitlines()[0])
        assert abs(ratio) < 1e-8
        assert abs(gap) < 1e-8


class TestThreshold:
    def test_finite_threshold(self, capsys):
        assert cli.main(["threshold", "1", "1", "1"]) == 0
        assert "0.179652068" in capsys.readouterr().out

    def test_infinite_threshold(self, capsys):
        assert cli.main(["threshold", "1", "1", "0"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_asymptote_printed_for_large_nbar(self, capsys):
        assert cli.main(["threshold", "1", "1", "100"]) == 0
        out = capsys.readouterr().out
        assert "large-nbar asymptote" in out
        assert "0.00216166179" in out

    def test_invalid_values(self, capsys):
        assert cli.main(["threshold", "0", "1", "1"]) == cli.EXIT_USAGE
        assert cli.main(["threshold", "1", "-1", "1"]) == cli.EXIT_USAGE

    def test_subnormal_occupation_prints_finite_time(self, capsys):
        assert cli.main(["threshold", "1", "1", "1e-320"]) == 0
        assert capsys.readouterr().out == "threshold time: 367.99434\n"

    def test_huge_occupation_prints_positive_time(self, capsys):
        # 2 nbar and 4 eta nbar overflow; both printed values stay ~gap/(4 nbar).
        assert cli.main(["threshold", "1", "1", "1e308"]) == 0
        assert capsys.readouterr().out == (
            "threshold time: 2.16166179e-309\nlarge-nbar asymptote: 2.16166179e-309\n"
        )

    @pytest.mark.parametrize("args", [["nan", "1", "1"], ["1", "nan", "1"], ["1", "1", "nan"]])
    def test_nan_is_usage_error(self, args, capsys):
        assert cli.main(["threshold", *args]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestScan:
    def test_csv_written_with_bracket(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code = cli.main(["scan", "1", "1", "1", "0.4", "41", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,margin,decision"
        assert len(lines) == 42
        assert all("," in line and "\t" not in line for line in lines)
        decisions = {line.split(",")[2] for line in lines[1:]}
        assert decisions <= {"entangled", "separable", "boundary"}
        printed = capsys.readouterr().out
        assert "sign change bracket: [0.17, 0.18]" in printed
        # Bracket contains the closed-form threshold.
        assert 0.17 < 0.1796526 < 0.18

    def test_vacuum_bath_all_entangled(self, capsys):
        assert cli.main(["scan", "1", "1", "0", "5", "11"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.count(",") == 2 and l[0].isdigit()]
        assert len(rows) == 11
        assert all(row.endswith("entangled") for row in rows)
        assert "vacuum bath" in out

    def test_steps_floor_is_usage_error(self, capsys):
        assert cli.main(["scan", "1", "1", "1", "0.4", "1"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "args",
        [
            ["nan", "1", "1", "1", "5"],
            ["inf", "1", "1", "1", "5"],
            ["1", "nan", "1", "1", "5"],
            ["1", "inf", "1", "1", "5"],
            ["1", "1", "nan", "1", "5"],
            ["1", "1", "inf", "1", "5"],
            ["1", "1", "1", "nan", "5"],
            ["1", "1", "1", "inf", "5"],
            ["1", "1", "1", "inf", "5", "--t-min", "inf"],
            ["1", "1", "1", "1", "5", "--t-min", "nan"],
        ],
    )
    def test_non_finite_parameters_are_usage_errors(self, args, capsys):
        assert cli.main(["scan", *args]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("r", ["178", "400"])
    def test_squeezing_beyond_float_range_is_usage_error(self, r, capsys):
        assert cli.main(["scan", r, "1", "1", "1", "3"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("nbar", ["1e160", "1e308"])
    def test_occupation_beyond_float_range_is_usage_error(self, nbar, capsys):
        assert cli.main(["scan", "1", "1", nbar, "1", "2"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: (2 nbar + 1)**2 overflows")
        assert cli.main(["threshold", "1", "1", nbar]) == 0  # a closed form

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "scan.csv"
        code = cli.main(["scan", "1", "1", "1", "0.4", "5", "--out", str(target)])
        assert code == cli.EXIT_CANTWRITE


class TestSample:
    def test_random_state_file_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        assert cli.main(["sample", "--seed", "3", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["ordering"] == "x1p1x2p2"
        np.testing.assert_array_equal(
            np.array(doc["matrix"]), cv.sample_random_physical(3).m
        )
        assert cli.main(["check", str(out_path)]) in (0, 1, 2)

    def test_separable_kind_checks_separable(self, tmp_path, capsys):
        out_path = tmp_path / "sep.json"
        code = cli.main([
            "sample", "--seed", "11", "--kind", "separable",
            "--max-components", "4", "--out", str(out_path),
        ])
        assert code == 0
        assert cli.main(["check", str(out_path)]) == cli.EXIT_SEPARABLE


class TestInternalError:
    def test_unexpected_exception_exits_70(self, tmsv_file, capsys, monkeypatch):
        def broken(args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "cmd_check", broken)
        assert cli.main(["check", tmsv_file]) == cli.EXIT_INTERNAL == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: ZeroDivisionError: float division by zero\n"
        )

    def test_overflowing_state_never_exits_entangled(self, tmp_path, capsys):
        # Separable (n - |c| >= 1 with c' = -c), but its balance function
        # overflows: that failure must not surface as exit 1, the code of an
        # entangled verdict.
        big = [
            [1e160, 0.0, 9e159, 0.0],
            [0.0, 1e160, 0.0, -9e159],
            [9e159, 0.0, 1e160, 0.0],
            [0.0, -9e159, 0.0, 1e160],
        ]
        path = write_state(tmp_path / "big.json", big)
        code = cli.main(["check", path])
        assert code in (cli.EXIT_SEPARABLE, cli.EXIT_UNPHYSICAL, cli.EXIT_INTERNAL)
        if code != cli.EXIT_SEPARABLE:
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_arguments(self, capsys):
        assert cli.main(["check"]) == cli.EXIT_USAGE

    def test_repeated_calls_in_one_process(self, tmsv_file, capsys, monkeypatch):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
        assert cli.main(["check", "--no-such-flag", tmsv_file]) == cli.EXIT_USAGE
        assert cli.main(["check", tmsv_file]) == cli.EXIT_ENTANGLED
        capsys.readouterr()
        assert cli.main(["check", tmsv_file, "--json"]) == cli.EXIT_ENTANGLED
        assert json.loads(capsys.readouterr().out)["decision"] == "entangled"
        assert cli.main(["check", tmsv_file]) == cli.EXIT_ENTANGLED
        out = capsys.readouterr().out
        assert out.startswith("decision: Entangled")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        monkeypatch.setattr(cli, "cmd_check", lambda args: 42)
        assert cli.main(["check", tmsv_file]) == 42
