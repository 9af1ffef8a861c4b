"""Command-line interface tests: exit codes, reports, file formats."""

import copy
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvsep as cv
from cvsep import cli
from _util import (
    HALF_CORRELATED,
    NEAR_VACUUM,
    USAGE_ARGVS,
    accepted_edge_states,
    edge_family_matrices,
    layout,
    near_vacuum_forms,
    rot2,
    strong_local_squeezes,
    tmsv_layout,
)


def write_state(path, matrix, ordering="x1p1x2p2", scaling="vacuum-identity"):
    doc = {"matrix": np.asarray(matrix).tolist(), "ordering": ordering, "scaling": scaling}
    path.write_text(json.dumps(doc))
    return str(path)


def library_usage_message(argv):
    """The ValueError message the library raises for the floats of a
    ``threshold`` or ``scan`` argv, in the order the CLI calls it."""
    r, eta, nbar = (float(x) for x in argv[1:4])
    with pytest.raises(ValueError) as info:
        cv.threshold_time(r, eta, nbar)
        if argv[0] == "scan":
            t_min = float(argv[7]) if argv[6:7] == ["--t-min"] else 0.0
            cv.scan_boundary(r, eta, nbar, float(argv[4]), int(argv[5]), t_min=t_min)
    return str(info.value)


@pytest.fixture
def vacuum_file(tmp_path):
    return write_state(tmp_path / "vacuum.json", np.eye(4))


@pytest.fixture
def tmsv_file(tmp_path):
    return write_state(tmp_path / "tmsv.json", tmsv_layout(0.5))


@pytest.fixture
def squeezed_file(tmp_path):
    # Local squeezes of e^6 round form I's transform off det 1 beyond EPS_DET.
    op = cv.Llubo(
        rot2(0.3) @ np.diag([math.exp(6.0), math.exp(-6.0)]) @ rot2(1.1),
        rot2(0.7) @ np.diag([math.exp(-6.0), math.exp(6.0)]) @ rot2(0.2),
    )
    state = cv.apply_llubo(cv.sample_random_physical(0), op)
    return write_state(tmp_path / "squeezed.json", state.m)


@pytest.fixture
def unbracketed_file(tmp_path):
    # Accepted by validate, but form I has f(n) > 0 on the bracket [1, n].
    m = edge_family_matrices(760)["large_squeeze"]
    return write_state(tmp_path / "unbracketed.json", 0.5 * (m + m.T))


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

    @pytest.mark.parametrize(
        "matrix",
        [
            [[i == j for j in range(4)] for i in range(4)],
            [[str(int(i == j)) for j in range(4)] for i in range(4)],
            [[None, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[10**400, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ],
        ids=["booleans", "strings", "null", "int-beyond-float"],
    )
    def test_non_number_entries_rejected(self, tmp_path, capsys, matrix):
        # numpy reads true as 1, "1" as 1 and null as NaN; a JSON integer
        # beyond float range does not convert.
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(
            {"matrix": matrix, "ordering": "x1p1x2p2", "scaling": "vacuum-identity"}
        ))
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "matrix is not numeric" in captured.err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_tolerance_message(self, tmsv_file, capsys, value):
        cli.main(["check", tmsv_file, "--tol-decide", value])
        message = f"--tol-decide must be finite and >= 0, got {float(value)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_directory_path_unreadable(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path)]) == cli.EXIT_NOFILE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {tmp_path}: ")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (np.eye(4).tolist(), "missing 'matrix' key"),
            (
                {"matrix": np.eye(4).tolist(), "ordering": "x1p1x2p2", "scaling": "shot-noise"},
                "scaling tag must be 'vacuum-identity', got 'shot-noise'",
            ),
        ],
        ids=["top-level-list", "shot-noise-scaling"],
    )
    def test_malformed_document_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[[float(i == j)] for j in range(4)] for i in range(4)],
            1.0,
            {"rows": np.eye(4).tolist()},
        ],
        ids=["2x2", "ragged", "4x4x1", "scalar", "object"],
    )
    def test_malformed_matrix_rejected(self, tmp_path, capsys, matrix):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(
            {"matrix": matrix, "ordering": "x1p1x2p2", "scaling": "vacuum-identity"}
        ))
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        pattern = rf"error: {re.escape(str(path))}: matrix [^\n]*\n"
        assert re.fullmatch(pattern, captured.err)

    @pytest.mark.parametrize("command", ["check", "reduce"])
    @pytest.mark.parametrize(
        "data",
        [
            json.dumps({"matrix": np.eye(4).tolist(), "ordering": "x1p1x2p2",
                        "scaling": "vacuum-identity"}).encode("utf-16"),
            '{"matrix": [], "note": "\u00e9"}'.encode("latin-1"),
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["utf-16", "latin-1", "nested-100000"],
    )
    def test_undecodable_or_overdeep_file_is_parse_error(
        self, tmp_path, capsys, data, command
    ):
        # Bytes that are not UTF-8 (a UTF-16 file starts with ff fe), and
        # nesting beyond the JSON decoder's recursion limit.
        path = tmp_path / "raw.json"
        path.write_bytes(data)
        assert cli.main([command, str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not valid JSON (")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_json_error_position_after_line_breaks(self, tmp_path, capsys, newline):
        # The reader translates newlines as text mode does, so the error's
        # line and (char N) are the ones a text-mode read reports.
        path = tmp_path / "broken.json"
        path.write_bytes(newline.join(["{", '  "matrix": [1,', "  oops", "}"]).encode())
        with pytest.raises(json.JSONDecodeError) as text_mode:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(json.JSONDecodeError) as raw:
            json.loads(path.read_bytes().decode("utf-8"))
        assert str(text_mode.value) != str(raw.value)
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON ({text_mode.value})\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_line_breaks_decide_like_lf(self, tmp_path, capsys, newline, flags):
        state = cv.evolve_thermal(cv.ThermalScenario(r=1.0, eta=1.0, nbar=1.0, t=0.5))
        doc = {"matrix": state.m.tolist(), "ordering": "x1p1x2p2",
               "scaling": "vacuum-identity"}
        text = json.dumps(doc, indent=2)
        lf, other = tmp_path / "lf.json", tmp_path / "other.json"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        runs = [(cli.main(["check", str(p), *flags]), capsys.readouterr()) for p in (lf, other)]
        assert runs[0] == runs[1]

    def test_invalid_utf8_reports_its_byte_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{\r\n  "matrix": "\xe9t\xe9"\r\n}')
        with pytest.raises(UnicodeDecodeError) as text_mode:
            path.read_text(encoding="utf-8")
        assert text_mode.value.start == 16
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON ({text_mode.value})\n"

    def test_utf8_bom_is_parse_error(self, tmp_path, capsys):
        path = Path(write_state(tmp_path / "bom.json", np.eye(4)))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not valid JSON (Unexpected UTF-8 BOM (decode using "
            "utf-8-sig): line 1 column 1 (char 0))\n"
        )

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

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowed_invariant_prints_strict_json(self, scale, tmp_path, capsys):
        # Accepted and separable, but det M overflows to inf: the report
        # writes it as null, and no numpy warning reaches stderr.
        path = write_state(tmp_path / "large.json", scale * HALF_CORRELATED)
        assert cli.main(["check", path, "--json"]) == cli.EXIT_SEPARABLE
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out, parse_constant=_reject_constant)
        assert doc["decision"] == "separable"
        assert doc["invariants"]["det_m"] is None
        assert cli.main(["check", path]) == cli.EXIT_SEPARABLE
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[5].endswith(", det M = inf")

    def test_ill_conditioned_det_m_is_the_nearest_float(self, tmp_path, capsys):
        # A strongly squeezed state whose det M cancels from products of ~5e28
        # down to ~526: the report prints the float nearest the exact value.
        m = edge_family_matrices(27)["large_squeeze"]
        path = write_state(tmp_path / "squeezed.json", 0.5 * (m + m.T))
        assert cli.main(["check", path, "--json"]) == cli.EXIT_BOUNDARY
        doc = json.loads(capsys.readouterr().out)
        assert doc["invariants"]["det_m"] == 526.0178555222932


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _finite_or_none(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


def _float_rows(size):
    row = st.lists(_floats, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


def _float_fields(*keys):
    return {key: _floats for key in keys}


def _dicts(fields):
    """Dicts of ``fields``' values, keyed in ``fields``' order."""
    return st.fixed_dictionaries(fields).map(lambda d: {key: d[key] for key in fields})


#: Documents shaped like ``cli._verdict_document``'s, with any float, finite
#: or not, in every float slot.
_report_docs = _dicts({
    "decision": st.sampled_from([d.value for d in cv.Decision]),
    **_float_fields("total_variance", "bound", "margin", "min_eigenvalue"),
    "witness": st.none() | _dicts({
        "a": _floats, "sign_u": st.sampled_from([1, -1]), "sign_v": st.sampled_from([1, -1]),
    }),
    "invariants": _dicts(_float_fields("det_g1", "det_g2", "det_c", "det_m")),
    "standard_form_ii": _dicts({
        **_float_fields("n1", "n2", "m1", "m2", "c1", "c2", "r1", "r2"),
        "degenerate": st.booleans(),
    }),
    "certificate": st.none() | _dicts({
        "covariance": _float_rows(4),
        "transform_back": _dicts({"h1": _float_rows(2), "h2": _float_rows(2)}),
    }),
    "tol_decide": _floats,
    "state": _dicts({
        "matrix": _float_rows(4),
        "ordering": st.just(cli.ORDERING_TAG),
        "scaling": st.just(cli.SCALING_TAG),
    }),
})


def _separable_report():
    """A separable mixture's report: witness and certificate, every float finite."""
    state = cv.ensemble_covariance(cv.sample_separable_ensemble(4, 5))
    return cli._verdict_document(state, cv.decide_separability(state), cv.EPS_DECIDE)


def _with_one_non_finite_each(doc):
    """A copy of report ``doc`` with exactly one non-finite float in each
    float block (in a different row of each) and in the ``det_m`` slot."""
    doc = copy.deepcopy(doc)
    doc["invariants"]["det_m"] = math.inf
    doc["state"]["matrix"][0][1] = math.nan
    doc["certificate"]["covariance"][3][2] = -math.inf
    doc["certificate"]["transform_back"]["h1"][1][0] = math.inf
    doc["certificate"]["transform_back"]["h2"][0][0] = math.nan
    return doc


#: Both branches of each of the writers' finiteness tests, whatever the draws.
_FINITE_REPORT = _separable_report()
_NON_FINITE_REPORT = _with_one_non_finite_each(_FINITE_REPORT)


class TestJsonText:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_report_docs)
    @example(_FINITE_REPORT)
    @example(_NON_FINITE_REPORT)
    def test_report_matches_json_dumps_indent_2(self, doc):
        assert cli._report_text(doc) == json.dumps(_finite_or_none(doc), indent=2)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_float_rows(4))
    @example(_FINITE_REPORT["state"]["matrix"])
    @example(_NON_FINITE_REPORT["state"]["matrix"])
    def test_state_block_matches_json_dumps_indent_2(self, rows):
        doc = {"matrix": rows, "ordering": cli.ORDERING_TAG, "scaling": cli.SCALING_TAG}
        assert cli._state_text(rows) == json.dumps(_finite_or_none(doc), indent=2)

    @pytest.mark.parametrize(
        "name, decision",
        [("mixture", "separable"), ("random", "entangled"), ("threshold", "boundary"),
         ("vacuum", "separable"), ("large", "separable")],
    )
    def test_reports_match_json_dumps(self, name, decision, tmp_path, capsys, monkeypatch):
        # The threshold state's certificate and the vacuum's witness are None;
        # the large state's det M overflows to inf.
        state = {
            "mixture": lambda: cv.ensemble_covariance(cv.sample_separable_ensemble(11, 4)),
            "random": lambda: cv.sample_random_physical(10),
            "threshold": lambda: cv.evolve_thermal(cv.ThermalScenario(
                r=1.0, eta=1.0, nbar=1.0, t=cv.threshold_time(1.0, 1.0, 1.0)
            )),
            "vacuum": lambda: cv.validate(np.eye(4)),
            "large": lambda: cv.validate(1e100 * HALF_CORRELATED),
        }[name]()
        path = write_state(tmp_path / "state.json", state.m)
        verdict = cv.decide_separability(state)
        assert verdict.decision.value == decision
        doc = cli._verdict_document(state, verdict, cv.EPS_DECIDE)
        # Both reports are gathered once: one llubo_invariants call per check.
        calls = []
        monkeypatch.setattr(
            cli, "llubo_invariants", lambda s: calls.append(s) or cv.llubo_invariants(s)
        )
        cli.main(["check", path, "--json"])
        assert capsys.readouterr().out == json.dumps(_finite_or_none(doc), indent=2) + "\n"
        assert len(calls) == 1
        # The text report renders that document's fields.
        cli.main(["check", path])
        assert len(calls) == 2
        lines = capsys.readouterr().out.splitlines()
        if doc["certificate"] is not None:
            assert lines[-5] == "P-certificate covariance (label coordinates):"
            assert [line.split() for line in lines[-4:]] == [
                [cli._fmt(x) for x in row] for row in doc["certificate"]["covariance"]
            ]
            lines = lines[:-5]
        fields = dict(
            part.rpartition(" = ")[::2] if " = " in part else part.split(": ")
            for line in lines
            for part in line.split(", ")
        )
        fields.pop("note", None)
        inv, w = doc["invariants"], doc["witness"]
        expected = {
            "decision": decision.capitalize(),
            "total variance": cli._fmt(doc["total_variance"]),
            "bound (a^2 + 1/a^2)": cli._fmt(doc["bound"]),
            "margin": cli._fmt(doc["margin"]),
            "invariants: det G1": cli._fmt(inv["det_g1"]),
            "det G2": cli._fmt(inv["det_g2"]),
            "det C": cli._fmt(inv["det_c"]),
            "det M": cli._fmt(inv["det_m"]),
        }
        if w is None:
            expected["witness"] = "none (degenerate standard form; spectral decision only)"
        else:
            expected["witness: a"] = cli._fmt(w["a"])
            expected["sign_u"] = f"{w['sign_u']:+d}"
            expected["sign_v"] = f"{w['sign_v']:+d}"
        assert fields == expected

    def test_report_builds_no_array(self):
        # The report reads the floats the state, the certificate and its
        # transform hold: it builds none of their arrays, and its rows equal
        # those arrays bit for bit (float.hex, so a -0.0 cannot hide).
        def hexes(rows):
            return [[float.hex(x) for x in row] for row in rows]

        for seed in range(30):
            state = cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 5))
            verdict = cv.decide_separability(state)
            cert = verdict.certificate
            doc = cli._verdict_document(state, verdict, cv.EPS_DECIDE)
            back = cert.transform_back
            assert "m" not in vars(state)
            assert "covariance" not in vars(cert)
            assert "h1" not in vars(back) and "h2" not in vars(back)
            got = doc["certificate"]
            assert hexes(got["covariance"]) == hexes(cert.covariance.tolist())
            assert hexes(got["transform_back"]["h1"]) == hexes(back.h1.tolist())
            assert hexes(got["transform_back"]["h2"]) == hexes(back.h2.tolist())

    def test_check_makes_no_array_or_lapack_call(self, tmp_path, capsys, monkeypatch):
        # Both reports of a separable state, and both of its reductions,
        # with every array builder cvsep owns and np.linalg.det made to fail.
        state = cv.ensemble_covariance(cv.sample_separable_ensemble(4, 5))
        path = write_state(tmp_path / "mixture.json", state.m)
        runs = (
            (["check", path, "--json"], cli.EXIT_SEPARABLE),
            (["check", path], cli.EXIT_SEPARABLE),
            (["reduce", path, "--form", "I"], 0),
            (["reduce", path], 0),
        )
        expected = []
        for argv, code in runs:
            assert cli.main(argv) == code
            expected.append(capsys.readouterr().out)

        def fail(*args, **kwargs):
            raise AssertionError("array built on the check or reduce path")

        monkeypatch.setattr(cv.core, "_rows_array", fail)
        monkeypatch.setattr(cv.separability, "_rows_array", fail)
        monkeypatch.setattr(np.linalg, "det", fail)
        for (argv, code), out in zip(runs, expected):
            assert cli.main(argv) == code
            assert capsys.readouterr() == (out, "")

    def test_sample_matches_json_dumps(self, capsys):
        assert cli.main(["sample", "--seed", "3"]) == 0
        doc = {
            "matrix": cv.sample_random_physical(3).m.tolist(),
            "ordering": "x1p1x2p2",
            "scaling": "vacuum-identity",
        }
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def _round_trips(out):
    """Whether ``out`` is its own JSON re-encoded with a 2-space indent: a
    null reads back as None and a float's repr as that float."""
    doc = json.loads(out, parse_constant=_reject_constant)
    return json.dumps(doc, indent=2) + "\n" == out


def _accepted(matrices):
    for m in matrices:
        try:
            yield cv.validate(m)
        except cv.CvsepError:
            continue


class TestReportRoundTrip:
    def test_check_reports_round_trip(self, tmp_path, capsys):
        states = [state for _, state in accepted_edge_states(cv, range(50))]
        states += _accepted(
            strong_local_squeezes([cv.sample_random_physical(s).m for s in range(50)])
        )
        for family in NEAR_VACUUM:
            states += _accepted(layout(*f) for f in near_vacuum_forms(family, 200))
        states += [cv.ensemble_covariance(cv.sample_separable_ensemble(s, 5)) for s in range(50)]
        states += [cv.sample_random_physical(s) for s in range(50)]
        states.append(cv.evolve_thermal(cv.ThermalScenario(
            r=1.0, eta=1.0, nbar=1.0, t=cv.threshold_time(1.0, 1.0, 1.0)
        )))
        states.append(cv.validate(1e100 * HALF_CORRELATED))
        path = tmp_path / "state.json"
        docs = []
        for state in states:
            write_state(path, state.m)
            try:
                code = cli._DECISION_EXIT[cv.decide_separability(state).decision]
            except cv.CvsepError:
                code = cli.EXIT_UNPHYSICAL
            assert cli.main(["check", "--json", str(path)]) == code
            out = capsys.readouterr().out
            if code == cli.EXIT_UNPHYSICAL:
                assert out == ""
                continue
            assert _round_trips(out), out
            docs.append(json.loads(out))
        threshold, large = docs[-2:]
        assert threshold["decision"] == "boundary" and threshold["certificate"] is None
        assert large["invariants"]["det_m"] is None
        # Every decision, and a degenerate form, which has no witness.
        assert {doc["decision"] for doc in docs} == {d.value for d in cv.Decision}
        assert any(doc["witness"] is None for doc in docs)

    @pytest.mark.parametrize("kind", ["random", "separable"])
    def test_sample_round_trips(self, kind, capsys):
        for seed in range(20):
            assert cli.main(["sample", "--seed", str(seed), "--kind", kind]) == 0
            assert _round_trips(capsys.readouterr().out)


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

    def test_overflowed_lifetime_prints_inf(self, capsys):
        # The lifetime ~1.8e319 overflows; the bath is not vacuum.
        assert cli.main(["threshold", "1", "1e-320", "1"]) == 0
        assert capsys.readouterr().out == "threshold time: inf\n"

    def test_asymptote_printed_for_large_nbar(self, capsys):
        assert cli.main(["threshold", "1", "1", "100"]) == 0
        out = capsys.readouterr().out
        assert "large-nbar asymptote" in out
        assert "0.00216166179" in out

    def test_invalid_values(self, capsys):
        assert cli.main(["threshold", "0", "1", "1"]) == cli.EXIT_USAGE
        assert cli.main(["threshold", "1", "-1", "1"]) == cli.EXIT_USAGE

    def test_small_squeezing_does_not_cancel(self, capsys):
        # 1 - e^{-2r} is -expm1(-2r): 2r, not 0, at a subnormal r.
        assert cli.main(["threshold", "1e-320", "0.5", "1e-320"]) == 0
        assert capsys.readouterr().out == "threshold time: 0.693147181\n"
        assert cli.main(["threshold", "1e-15", "1", "100"]) == 0
        assert capsys.readouterr().out == (
            "threshold time: 5e-18\nlarge-nbar asymptote: 5e-18\n"
        )

    def test_subnormal_occupation_prints_finite_time(self, capsys):
        assert cli.main(["threshold", "1", "1", "1e-320"]) == 0
        assert capsys.readouterr().out == "threshold time: 367.99434\n"

    def test_huge_occupation_prints_positive_time(self, capsys):
        # 2 nbar and 4 eta nbar overflow; both printed values stay ~gap/(4 nbar).
        assert cli.main(["threshold", "1", "1", "1e308"]) == 0
        assert capsys.readouterr().out == (
            "threshold time: 2.16166179e-309\nlarge-nbar asymptote: 2.16166179e-309\n"
        )

    @pytest.mark.parametrize(
        "args, out",
        [
            # 2 eta and eta * nbar overflow; the lifetime ~1.07e-310 does not.
            (["1", "1e308", "20"],
             "threshold time: 1.06931461e-310\nlarge-nbar asymptote: 1.0808309e-310\n"),
            # Only eta * nbar overflows; both values are ~gap / (4 eta nbar).
            (["1", "1e300", "1e10"],
             "threshold time: 2.16166179e-311\nlarge-nbar asymptote: 2.16166179e-311\n"),
        ],
        ids=["eta-1e308-nbar-20", "eta-1e300-nbar-1e10"],
    )
    def test_huge_damping_prints_positive_time(self, args, out, capsys):
        assert cli.main(["threshold", *args]) == 0
        assert capsys.readouterr().out == out

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

    def test_no_sign_change_on_grid(self, capsys):
        assert cli.main(["scan", "1", "1", "1", "0.05", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "no sign change on this grid"

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
            # (t_max - t_min) * (steps - 1) overflows, or steps is beyond floats.
            ["1", "1", "1", "1e308", "3"],
            ["1", "1", "1", "1", "1" + "0" * 400],
        ],
    )
    def test_non_finite_parameters_are_usage_errors(self, args, capsys):
        assert cli.main(["scan", *args]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("r", ["178", "400", "9e307", "1e308"])
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


class TestLibraryMessages:
    # The CLI checks no scenario argument itself: a usage error prints the
    # message the library raises for the same floats.

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "0", "1", "1"],
            ["threshold", "1", "nan", "1"],
            ["scan", "1", "1", "1", "0.4", "1"],
            ["scan", "0", "1", "1", "0.4", "5"],
            ["scan", "inf", "1", "1", "1", "5"],
            ["scan", "1", "1", "1", "0.4", "5", "--t-min", "1"],
        ],
        ids=" ".join,
    )
    def test_usage_error_prints_library_message(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {library_usage_message(argv)}\n"

    def test_infinite_squeezing_message_says_finite(self, capsys):
        assert cli.main(["scan", "inf", "1", "1", "1", "5"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: squeezing parameter r must be finite and >= 0, got inf\n"
        )


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "separable", "--max-components", "0"], "max_components must be >= 1"),
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--seed", "-1", "--kind", "separable"], "--seed must be >= 0, got -1"),
        ],
        ids=["max-components-0", "negative-seed", "negative-seed-separable"],
    )
    def test_bad_arguments_are_usage_errors(self, argv, message, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        assert cli.main(["sample", *argv, "--out", str(out_path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_path.exists()


class _FailingStdout:
    """A stdout with no file descriptor whose ``write`` or ``flush`` raises."""

    def __init__(self, exc, on):
        self.exc, self.on = exc, on

    def write(self, text):
        if self.on == "write":
            raise self.exc
        return len(text)

    def flush(self):
        if self.on == "flush":
            raise self.exc


class TestStdoutFailure:
    @pytest.mark.parametrize("on", ["write", "flush"])
    @pytest.mark.parametrize(
        "exc",
        [BrokenPipeError(errno.EPIPE, "Broken pipe"),
         OSError(errno.ENOSPC, "No space left on device")],
        ids=["EPIPE", "ENOSPC"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["check", "--json"], ["check"], ["sample"], ["--help"], ["check", "--help"],
         ["scan", "-h"]],
        ids=["json", "text", "sample", "help", "check-help", "scan-h"],
    )
    def test_failed_write_exits_73(self, argv, exc, on, vacuum_file, capsys, monkeypatch):
        if argv[0] == "check" and argv[-1] != "--help":
            argv = [*argv, vacuum_file]
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc, on))
        assert cli.main(argv) == cli.EXIT_CANTWRITE == 73
        assert capsys.readouterr().err == f"error: cannot write output: {exc}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv, unbuffered",
        # Block-buffered stdout, where the flush fails, then unbuffered, where
        # the write itself does.
        [pytest.param(argv, unbuffered, id=name + suffix)
         for unbuffered, suffix in ((None, ""), ("1", "-unbuffered"))
         for name, argv in (
             ("json", ["check", "--json"]), ("text", ["check"]), ("reduce", ["reduce"]),
             ("sample", ["sample"]), ("help", ["--help"]), ("check-help", ["check", "--help"]),
         )],
    )
    def test_full_device_exits_73_with_one_line(self, argv, unbuffered, vacuum_file):
        if argv[0] in ("check", "reduce") and argv[-1] != "--help":
            argv = [*argv, vacuum_file]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "cvsep.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        assert done.returncode == cli.EXIT_CANTWRITE
        # No second report at interpreter exit ("Exception ignored ...").
        assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


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


class TestDecisionErrors:
    # A CvsepError raised after the file is accepted exits 67, as a rejected
    # matrix does, with the library's message.

    @pytest.mark.parametrize(
        "argv", [["check"], ["check", "--json"], ["reduce"], ["reduce", "--form", "I"]]
    )
    def test_transform_off_unit_determinant(self, squeezed_file, capsys, argv):
        assert cli.main([argv[0], squeezed_file, *argv[1:]]) == cli.EXIT_UNPHYSICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        # The determinant comes from a numpy matmul, so only its shape is fixed.
        pattern = r"error: det\(h[12]\) = \S+ differs from 1 beyond 1e-10\n"
        assert re.fullmatch(pattern, captured.err)

    @pytest.mark.parametrize("argv", [["check"], ["reduce"]])
    def test_unbracketed_root(self, unbracketed_file, capsys, argv):
        assert cli.main([argv[0], unbracketed_file]) == cli.EXIT_UNPHYSICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        pattern = r"error: no sign change of f on \[1, n\]: f\(n\) = \S+\n"
        assert re.fullmatch(pattern, captured.err)

    def test_unbracketed_root_still_reduces_to_form_I(self, unbracketed_file, capsys):
        assert cli.main(["reduce", unbracketed_file, "--form", "I"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("form I: ")
        assert captured.err == ""


class TestUsage:
    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_dispatch_matches_the_full_parser(self, argv, capsys):
        # main parses a command's arguments with that command's parser; the
        # reference is the top-level parser's own route.
        def outcome(parse):
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = ("exit", exc.code)
            except cli.CliError as exc:
                result = ("error", exc.code, str(exc))
            return result, capsys.readouterr()

        assert outcome(cli._parse_args) == outcome(cli.build_parser().parse_args)

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
