"""Digest of cvsep's outputs on seeded inputs, for comparing two source trees.

    python3 tools/same_outputs.py SRC_DIR

Imports cvsep from ``SRC_DIR`` (the ``src`` directory of a checkout) and
prints one sha256 per section of outputs, then one over all of them:

* ``scans``: ``scan_boundary`` points for seeded ``(r, eta, nbar)`` triples;
* ``verdicts``: the fields of ``decide_separability`` (decision, margin, min
  eigenvalue, variances, witness, standard form II with its transform,
  certificate bytes) for ``sample_random_physical(0..2999)``, with the
  state's array ``m`` (bytes and writeable flag) and its standard form I
  (``n, m, c, c'`` and the transform) read after the decision;
* ``state-file CLI``: stdout, stderr and exit code of ``cvsep.cli.main`` for
  ``check``, ``check --json``, ``reduce --form I`` and ``reduce --form II``
  on state files written to a temporary directory, including rejected ones
  (malformed matrices, files that are not UTF-8 or nest too deeply) and
  ones whose decision raises, then on the reader's edge cases (CRLF and CR
  line breaks in valid and broken JSON, a UTF-8 BOM, invalid UTF-8 after
  the first byte, a directory) and on the report writer's edge cases (a
  ``det_m`` beyond the float range, which ``--json`` prints as ``null``;
  -0.0 and subnormal entries, also next to 1e150 ones);
* ``scenario CLI``: stdout, stderr and exit code of ``cvsep threshold`` and
  ``cvsep scan`` over a grid of arguments, including rejected ones and
  arguments at the float range's edges;
* ``usage CLI``: stdout, stderr and exit code of ``cvsep.cli.main`` for
  help (``-h`` of the top parser and of each command) and for the argument
  lists of ``tests/_util.USAGE_ARGVS``, accepted and rejected;
* ``sample CLI``: stdout, stderr, exit code and the ``--out`` file's bytes
  of ``cvsep sample`` for both kinds over seeds and component counts,
  written to stdout and to a file, including rejected arguments and an
  unwritable output path;
* ``solver``: ``solve_form_II_root`` results, or the exception type and
  message, on a grid of mode and coefficient values (vacuum modes, ``n < 1``,
  NaN, infinite and overflowing entries) and on seeded draws with
  ``|c| > |c'|``, ``|c| = |c'|`` and ``|c| < |c'|``;
* ``oracle``: ``ppt_decision`` on the ``verdicts`` states and on the
  symmetrized ``edge_family_matrices`` (from ``tests/_util.py``) of seeds
  0..99, or the exception type and message where ``validate`` rejects one;
* ``local ops``: ``OMEGA``; ``Llubo(h1, h2)`` on seeded blocks squeezed up
  to e^8 per mode and on malformed ones (the blocks and their
  ``inverse()``, or the exception type and message), with ``apply_llubo``
  of each accepted one to a random state and ``llubo_invariants`` before
  and after; and ``ModeSpec`` covariances, accepted (bytes and writeable
  flag) or rejected;
* ``near vacuum``: the decision, or the exception type and message, for the
  layouts of the first 2000 draws of ROADMAP item 14's probe
  (``near_vacuum_forms("probe", ...)`` of ``tests/_util.py``);
* ``decisions``: only the decision of each ``verdicts`` state and scan
  point, and the exit code of each ``state-file CLI`` call, so a change that
  moves outputs by rounding can show that no verdict moved.

Floats enter the digests bit for bit (``float.hex``, ``ndarray.tobytes``), so
two trees print the same digest only if every output is identical; the
section digests show which outputs differ. argparse's usage and help text
are wrapped at 80 columns whatever the terminal's width.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

RANDOM_STATES = 3000
SCAN_TRIPLES = 64
CLI_RANDOM_FILES = 40
SOLVER_DRAWS = 3000
EDGE_SEEDS = 100
LOCAL_OP_DRAWS = 300
NEAR_VACUUM_DRAWS = 2000


def _hex(x) -> str:
    return float(x).hex()


def _scans(cv):
    """The label (empty for the last two) and the points of each seeded scan."""
    rng = np.random.default_rng(0)
    for k in range(SCAN_TRIPLES):
        r = float(rng.uniform(0.1, 10.0))
        eta = float(rng.uniform(0.5, 2.0))
        nbar = float(rng.uniform(0.05, 3.0))
        t_max = 2.0 * cv.threshold_time(r, eta, nbar)
        # Every fourth scan starts inside the window rather than at t = 0.
        t_min = 0.25 * t_max if k % 4 == 3 else 0.0
        resolution = 12 + k % 5
        label = f"scan {_hex(r)} {_hex(eta)} {_hex(nbar)} {_hex(t_min)}"
        yield label, cv.scan_boundary(r, eta, nbar, t_max, resolution, t_min=t_min)
    for nbar in (0.0, 1.0):
        yield "", cv.scan_boundary(10.0, 1.0, nbar, 3.0, 7)


def _scan_lines(cv):
    for label, points in _scans(cv):
        if label:
            yield label
        for p in points:
            yield f"{_hex(p.t)} {_hex(p.margin)} {p.decision.value}"


def _array(a) -> str:
    return np.ascontiguousarray(a, dtype=float).tobytes().hex()


def _verdict_lines(cv):
    for seed in range(RANDOM_STATES):
        state = cv.sample_random_physical(seed)
        v = cv.decide_separability(state)
        f = v.form
        w = v.witness
        yield " ".join(
            [
                v.decision.value,
                _hex(v.margin),
                _hex(v.min_eigenvalue),
                _hex(v.total_variance),
                _hex(v.bound),
                "-" if w is None else f"{_hex(w.a)} {w.sign_u} {w.sign_v}",
                *(_hex(x) for x in (f.n1, f.n2, f.m1, f.m2, f.c1, f.c2, f.r1, f.r2)),
                str(f.degenerate),
                _array(f.transform.h1),
                _array(f.transform.h2),
                # Read after the decision, as a caller would.
                state.m.tobytes().hex(),
                str(state.m.flags.writeable),
            ]
        )
        f1 = cv.to_standard_form_I(state)
        yield " ".join(
            [
                *(_hex(x) for x in (f1.n, f1.m, f1.c, f1.c_prime)),
                _array(f1.transform.h1),
                _array(f1.transform.h2),
            ]
        )
        cert = v.certificate
        if cert is not None:
            yield " ".join(
                _array(a)
                for a in (cert.covariance, cert.transform_back.h1, cert.transform_back.h2)
            )


def util():
    """This checkout's ``tests/_util.py``."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import _util

    return _util


def _state_files(cv, folder: Path):
    """Write the state files the CLI is run on; return their (name, path) pairs."""
    rot = util().rot2
    docs = []
    for seed in range(CLI_RANDOM_FILES):
        docs.append((f"random{seed}", cv.sample_random_physical(seed).m.tolist()))
    for seed in range(5):
        state = cv.ensemble_covariance(cv.sample_separable_ensemble(seed, 4))
        docs.append((f"mixture{seed}", state.m.tolist()))
    for r, nbar, t in ((1.0, 1.0, 0.1), (1.0, 1.0, 0.5), (10.0, 1.0, 0.3), (0.5, 0.0, 2.0)):
        state = cv.evolve_thermal(cv.ThermalScenario(r=r, eta=1.0, nbar=nbar, t=t))
        docs.append((f"thermal{r}-{nbar}-{t}", state.m.tolist()))
    docs.append(("vacuum", np.eye(4).tolist()))
    # Near-vacuum squeezed pair (n - 1 ~ 5e-7) under local rotations and squeezes.
    op = cv.Llubo(
        rot(0.3) @ np.diag([math.exp(-0.6), math.exp(0.6)]),
        rot(0.2) @ np.diag([math.exp(-0.4), math.exp(0.4)]),
    )
    docs.append(("near-vacuum", cv.apply_llubo(cv.tmsv_matrix(5e-4), op).m.tolist()))
    # Anticorrelated mean scatter, d = 0.3: c' = 0, balance root exactly at r1 = n.
    plus = (0.5, cv.ModeSpec(0.3, 0.0, np.eye(2)), cv.ModeSpec(-0.3, 0.0, np.eye(2)))
    minus = (0.5, cv.ModeSpec(-0.3, 0.0, np.eye(2)), cv.ModeSpec(0.3, 0.0, np.eye(2)))
    scatter = cv.ensemble_covariance(cv.SeparableEnsemble((plus, minus)))
    docs.append(("anticorrelated-scatter", scatter.m.tolist()))
    # The same scatter along generic directions: a rank-1 intermode block, so
    # c' = 0 up to rounding.
    x1, p1 = 0.8 * math.cos(0.7), 0.8 * math.sin(0.7)
    x2, p2 = math.cos(2.1), math.sin(2.1)
    plus = (0.5, cv.ModeSpec(x1, p1, np.eye(2)), cv.ModeSpec(-x2, -p2, np.eye(2)))
    minus = (0.5, cv.ModeSpec(-x1, -p1, np.eye(2)), cv.ModeSpec(x2, p2, np.eye(2)))
    scatter = cv.ensemble_covariance(cv.SeparableEnsemble((plus, minus)))
    docs.append(("rank-one-scatter", scatter.m.tolist()))
    # A product state with det G1 = 1 from entries 1e-155 and 1e155.
    docs.append(("anisotropic", np.diag([1e-155, 1e155, 2.0, 2.0]).tolist()))
    # nu*I squeezed by diag(e^k, e^-k) on both modes: det G = nu^2 < 1.
    for nu, k in ((0.9, 5.0), (0.99, 5.0), (0.5, 8.0)):
        squeeze = np.diag([math.exp(k), math.exp(-k)] * 2)
        sub_vacuum = squeeze @ (nu * np.eye(4)) @ squeeze
        docs.append((f"sub-vacuum{nu}-{k}", sub_vacuum.tolist()))
    # n = m = 2, c' = -c with n^2 - c^2 = 0.81 (det M = 0.6561 < 1, although
    # Simon's inequality holds), rotated and squeezed by e^6 on both modes.
    c = math.sqrt(4.0 - 0.81)
    b = np.kron(np.eye(2), rot(0.4) @ np.diag([math.exp(6.0), math.exp(-6.0)]))
    degenerate = np.array(
        [[2.0, 0.0, c, 0.0], [0.0, 2.0, 0.0, -c], [c, 0.0, 2.0, 0.0], [0.0, -c, 0.0, 2.0]]
    )
    docs.append(("degenerate-sub-vacuum", (b @ degenerate @ b.T).tolist()))
    # 1e200 [[I, 2I], [2I, I]]: M >= 0 fails (eigenvalue -1e200) while every
    # local invariant looks physical, at a scale where det G1 overflows.
    indefinite = 1e200 * np.kron([[1.0, 2.0], [2.0, 1.0]], np.eye(2))
    docs.append(("indefinite-1e200", indefinite.tolist()))
    # A -0.0 intermode entry, with mode 1 the larger and the smaller mode.
    for g1, g2 in ((1.3, 2.4), (2.4, 1.3)):
        signed_zero = np.diag([g1, g1, g2, g2])
        signed_zero[1, 3] = signed_zero[3, 1] = -0.06
        docs.append((f"signed-zero{g1}", signed_zero.tolist()))
    # Errors raised while deciding: local squeezes of e^6 round form I's
    # transform off det 1, and an accepted large_squeeze item has no bracket.
    op = cv.Llubo(
        rot(0.3) @ np.diag([math.exp(6.0), math.exp(-6.0)]) @ rot(1.1),
        rot(0.7) @ np.diag([math.exp(-6.0), math.exp(6.0)]) @ rot(0.2),
    )
    docs.append(("squeezed-e6", cv.apply_llubo(cv.sample_random_physical(0), op).m.tolist()))
    large = util().edge_family_matrices(760)["large_squeeze"]
    docs.append(("unbracketed-large-squeeze", (0.5 * (large + large.T)).tolist()))
    asym = np.eye(4)
    asym[0, 1] = 0.5
    docs.append(("asymmetric", asym.tolist()))
    docs.append(("unphysical", np.diag([0.5, 0.5, 1.0, 1.0]).tolist()))
    nonfinite = np.eye(4).tolist()
    nonfinite[2][3] = math.nan
    docs.append(("nonfinite", nonfinite))
    # Matrices that are not 4x4 arrays of JSON numbers.
    eye = np.eye(4).tolist()
    docs.append(("shape-2x2", [[1.0, 0.0], [0.0, 1.0]]))
    docs.append(("ragged", [eye[0], eye[1][:3], eye[2], eye[3]]))
    for name, entry in (("boolean", True), ("numeric-string", "1"), ("null", None),
                        ("int-beyond-float", 10**400), ("dict-entry", {"x": 1.0})):
        bad = np.eye(4).tolist()
        bad[0][0] = entry
        docs.append((name, bad))
    # Files given as bytes: a UTF-16 state file, a Latin-1 one, and nesting
    # beyond the JSON decoder's recursion limit.
    text = json.dumps(
        {"matrix": eye, "ordering": "x1p1x2p2", "scaling": "vacuum-identity"}
    )
    docs.append(("utf-16", b"\xff\xfe" + text.encode("utf-16-le")))
    docs.append(("latin-1", (text[:-1] + ', "note": "\u00e9"}').encode("latin-1")))
    docs.append(("nested-100000", b"[" * 100000 + b"]" * 100000))
    paths = []
    for name, matrix in docs:
        path = folder / f"{name}.json"
        paths.append((name, str(path)))
        if isinstance(matrix, bytes):
            path.write_bytes(matrix)
            continue
        doc = {"matrix": matrix, "ordering": "x1p1x2p2", "scaling": "vacuum-identity"}
        path.write_text(json.dumps(doc), encoding="utf-8")
    return paths


# The vacuum's state file, as ``json.dumps(doc, indent=2)`` writes it.
VACUUM_TEXT = json.dumps(
    {"matrix": np.eye(4).tolist(), "ordering": "x1p1x2p2", "scaling": "vacuum-identity"},
    indent=2,
)


def _reader_files(folder: Path):
    """Write state files at the edges of the reader's decoding; return their
    (name, path) pairs."""
    text = VACUUM_TEXT
    broken = "{\n  \"matrix\": [1,\n  oops\n}"
    files = [
        ("crlf", text.replace("\n", "\r\n").encode()),
        ("cr", text.replace("\n", "\r").encode()),
        ("crlf-broken", broken.replace("\n", "\r\n").encode()),
        ("cr-broken", broken.replace("\n", "\r").encode()),
        ("bom", b"\xef\xbb\xbf" + text.encode()),
        ("bad-utf-8", b'{\r\n  "matrix": "\xe9t\xe9"\r\n}'),
    ]
    paths = []
    for name, data in files:
        path = folder / f"{name}.json"
        path.write_bytes(data)
        paths.append((name, str(path)))
    directory = folder / "directory.json"
    directory.mkdir()
    return paths + [("directory", str(directory))]


def _writer_files(folder: Path):
    """Write state files at the edges of the report writer's float formatting
    (``tests/_util.float_edge_matrices``); return their (name, path) pairs."""
    paths = []
    for name, matrix in util().float_edge_matrices().items():
        path = folder / f"{name}.json"
        doc = {"matrix": matrix.tolist(), "ordering": "x1p1x2p2", "scaling": "vacuum-identity"}
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append((name, str(path)))
    return paths


def _run(argv):
    """``(exit code, stdout, stderr)`` of ``cvsep.cli.main(argv)``."""
    from cvsep import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _state_file_runs(files):
    """``(argv label, exit code, stdout and stderr)`` of each state-file call
    on the ``(name, path)`` pairs ``files``."""
    for name, path in files:
        for extra in (["check"], ["check", "--json"], ["reduce", "--form", "I"],
                      ["reduce", "--form", "II"]):
            code, out, err = _run([extra[0], path, *extra[1:]])
            # The temporary directory differs between runs.
            text = (out + "\0" + err).replace(path, name)
            yield f"{' '.join(extra)} {name}", code, text


def _cli_runs(cv):
    with tempfile.TemporaryDirectory() as tmp:
        yield from _state_file_runs(_state_files(cv, Path(tmp)))


def _cli_lines(cv):
    # The reader's and the writer's edge cases stay out of ``decisions``,
    # which digests only the ``_cli_runs`` exit codes.
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        files = _state_files(cv, folder) + _reader_files(folder) + _writer_files(folder)
        for label, code, text in _state_file_runs(files):
            yield f"{label} {code}\n{text}"


def _usage_cli_lines(cv):
    # USAGE_ARGVS holds the top parser's -h and check's.
    helps = [[command, "-h"] for command in ("reduce", "threshold", "scan", "sample")]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "f.json")
        Path(path).write_text(VACUUM_TEXT)
        for argv in helps + util().USAGE_ARGVS:
            argv = [path if arg == "f" else arg for arg in argv]
            code, out, err = _run(argv)
            # The temporary directory differs between runs.
            yield f"{' '.join(argv)} {code}\n{out}\0{err}".replace(tmp, "TMP")


def _scenario_argvs():
    # nbar = 0 takes the INFINITE path; nbar = 50 prints the asymptote.
    thresholds = (("0.3", "1", "4"), ("0.5", "2"), ("0", "0.2", "1", "50"))
    for r, eta, nbar in itertools.product(*thresholds):
        yield ["threshold", r, eta, nbar]
    scans = (("0.5", "3"), ("0", "0.5", "2"), ("0.3", "2"), ("2", "9"))
    for r, nbar, t_max, steps in itertools.product(*scans):
        yield ["scan", r, "1", nbar, t_max, steps]
        yield ["scan", r, "1", nbar, t_max, steps, "--t-min", "0.1"]
    # Rejected usages.
    for args in (("0", "1", "1"), ("-1", "1", "1"), ("1", "0", "1"), ("1", "1", "-0.5")):
        yield ["threshold", *args]
    for args in (("1", "1", "1", "0.4", "1"), ("0", "1", "1", "0.4", "5"),
                 ("1", "0", "1", "0.4", "5"), ("1", "1", "-1", "0.4", "5"),
                 ("1", "1", "1", "0.4", "5", "--t-min", "1"),
                 ("1", "1", "1", "0.4", "5", "--t-min", "-0.1")):
        yield ["scan", *args]
    # Float edges: r beyond the float range, eta * t at t = 0 with eta = 1e308,
    # 1 - e^{-2r} at a subnormal r, and NaN.
    for args in (("inf", "1", "1", "1", "5"), ("1e308", "1", "1", "1", "3"),
                 ("1", "1e308", "1", "1", "3")):
        yield ["scan", *args]
    yield ["threshold", "1e-320", "0.5", "1e-320"]
    yield ["threshold", "nan", "1", "1"]
    # 2 eta and eta * nbar overflow, or only eta * nbar.
    yield ["threshold", "1", "1e308", "20"]
    yield ["threshold", "1", "1e300", "1e10"]


def _scenario_cli_lines(cv):
    for argv in _scenario_argvs():
        code, out, err = _run(argv)
        yield f"{' '.join(argv)} {code}\n{out}\0{err}"


def _sample_argvs(missing_dir: str):
    for seed in ("0", "1", "7", "2626"):
        yield ["sample", "--seed", seed]
        for components in ("1", "2", "5"):
            yield ["sample", "--seed", seed, "--kind", "separable",
                   "--max-components", components]
    yield ["sample"]
    yield ["sample", "--kind", "separable"]
    # Rejected usages.
    yield ["sample", "--seed", "-1"]
    yield ["sample", "--seed", "-1", "--kind", "separable"]
    yield ["sample", "--kind", "separable", "--max-components", "0"]
    yield ["sample", "--seed", "x"]
    yield ["sample", "--out", f"{missing_dir}/state.json"]


def _sample_cli_lines(cv):
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "state.json"
        for argv in _sample_argvs(str(Path(tmp) / "missing")):
            for extra in ([], ["--out", str(out_path)]):
                code, out, err = _run(argv + extra)
                written = out_path.read_bytes().hex() if out_path.exists() else "-"
                out_path.unlink(missing_ok=True)
                line = f"{' '.join(argv + extra)} {code}\n{out}\0{err}"
                # The temporary directory differs between runs.
                yield f"{line}\0{written}".replace(tmp, "TMP")


def _solver_inputs():
    modes = (0.5, 1.0, 1.0 + 2e-8, 2.0, 3.0, 1e160, 1e200, 1e300, math.nan, math.inf)
    coefficients = (0.0, -0.0, 0.1, 0.5, 1.0, -1.2, 1.5, -1.5, math.nan, math.inf)
    yield from itertools.product(modes, modes, coefficients, coefficients)
    rng = np.random.default_rng(0)
    for k in range(SOLVER_DRAWS):
        n, m = (float(x) for x in 1.0 + rng.exponential(2.0, 2))
        c = float(rng.uniform(-1.0, 1.0)) * math.sqrt(n * m)
        if k % 3 == 0:
            cp = float(rng.uniform(-1.0, 1.0)) * abs(c)
        elif k % 3 == 1:
            cp = math.copysign(c, float(rng.uniform(-1.0, 1.0)))
        else:
            cp = c * float(rng.uniform(1.0, 1.5))
        yield n, m, c, cp


def _solver_lines(cv):
    from cvsep.standard_form import solve_form_II_root

    for args in _solver_inputs():
        head = " ".join(_hex(x) for x in args)
        try:
            r1, r2 = solve_form_II_root(*args)
        except (cv.CvsepError, ValueError) as exc:
            yield f"{head} {type(exc).__name__}: {exc}"
        else:
            yield f"{head} {_hex(r1)} {_hex(r2)}"


def _oracle_lines(cv):
    for seed in range(RANDOM_STATES):
        yield cv.ppt_decision(cv.sample_random_physical(seed)).value
    for seed in range(EDGE_SEEDS):
        for name, m in util().edge_family_matrices(seed).items():
            try:
                yield f"{name} {cv.ppt_decision(cv.validate(0.5 * (m + m.T))).value}"
            except cv.CvsepError as exc:
                yield f"{name} {type(exc).__name__}: {exc}"


def _rejected_or(cv, build, show):
    """``show(build())``, or the exception type and message."""
    try:
        value = build()
    except (cv.CvsepError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return show(value)


def _read_only(a) -> str:
    return f"{_array(a)} {a.dtype} {a.flags.writeable}"


def _local_op_lines(cv):
    yield _read_only(cv.core.OMEGA)
    rot = util().rot2

    def show_op(op):
        inv = op.inverse()
        return " ".join(_read_only(a) for a in (op.h1, op.h2, inv.h1, inv.h2))

    def show_state(state):
        invariants = " ".join(_hex(x) for x in cv.llubo_invariants(state).as_tuple())
        return f"{_read_only(state.m)} {invariants}"

    # Squeezes beyond about e^6.7 round the determinant off 1 and are rejected.
    rng = np.random.default_rng(0)
    for seed in range(LOCAL_OP_DRAWS):
        state = cv.sample_random_physical(seed)
        yield show_state(state)
        h1, h2 = (
            rot(a) @ np.diag([math.exp(k), math.exp(-k)]) @ rot(b)
            for k, a, b in rng.uniform([-8.0, 0.0, 0.0], [8.0, 6.3, 6.3], (2, 3))
        )
        try:
            op = cv.Llubo(h1, h2)
        except cv.CvsepError as exc:
            yield f"{type(exc).__name__}: {exc}"
            continue
        yield show_op(op)
        yield _rejected_or(cv, lambda: cv.apply_llubo(state, op), show_state)
    eye = np.eye(2)
    for h in (np.array([[1.0, -0.0], [0.0, 1.0]]), np.array([[2, 1], [1, 1]]),
              np.full((2, 2), 1e200), np.array([[math.inf, 0.0], [0.0, 1.0]]),
              2.0 * eye, np.eye(3), eye + 0j, eye.astype(bool)):
        yield _rejected_or(cv, lambda: cv.Llubo(eye, h), show_op)
    covs = [np.eye(2), np.array([[2, 1], [1, 3]]), np.eye(2, dtype=np.float32),
            np.array([[1.5, -0.0], [0.0, 1.5]]), np.array([[2.0, 1e-11], [0.0, 1.0]]),
            0.5 * np.eye(2), np.array([[2.0, 0.5], [0.0, 2.0]]), np.eye(3),
            np.array([[math.nan, 0.0], [0.0, 1.0]]), np.eye(2) + 0j]
    for seed in range(20):
        g = rng.normal(size=(2, 2))
        covs.append(g @ g.T + np.eye(2))
    for cov in covs:
        yield _rejected_or(cv, lambda: cv.ModeSpec(0.1, -0.2, cov), lambda s: _read_only(s.cov))


def _near_vacuum_lines(cv):
    helpers = util()
    for args in helpers.near_vacuum_forms("probe", NEAR_VACUUM_DRAWS):
        shown = _rejected_or(
            cv,
            lambda: cv.decide_separability(cv.validate(helpers.layout(*args))),
            lambda verdict: verdict.decision.value,
        )
        yield f"{' '.join(_hex(x) for x in args)} {shown}"


def _decision_lines(cv):
    for seed in range(RANDOM_STATES):
        yield cv.decide_separability(cv.sample_random_physical(seed)).decision.value
    for _, points in _scans(cv):
        for p in points:
            yield p.decision.value
    for label, code, _ in _cli_runs(cv):
        yield f"{label} {code}"


SECTIONS = (
    ("scans", _scan_lines),
    ("verdicts", _verdict_lines),
    ("state-file CLI", _cli_lines),
    ("scenario CLI", _scenario_cli_lines),
    ("usage CLI", _usage_cli_lines),
    ("sample CLI", _sample_cli_lines),
    ("solver", _solver_lines),
    ("oracle", _oracle_lines),
    ("local ops", _local_op_lines),
    ("near vacuum", _near_vacuum_lines),
    ("decisions", _decision_lines),
)


def digests(cv) -> list[tuple[str, str]]:
    """``(section, sha256)`` for each section, then ``("total", sha256)``."""
    total = hashlib.sha256()
    out = []
    # argparse wraps usage and help at $COLUMNS, or else at the terminal's
    # width, so fix it for the digests to repeat.
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name, lines in SECTIONS:
            h = hashlib.sha256()
            for line in lines(cv):
                data = line.encode("utf-8") + b"\n"
                h.update(data)
                total.update(data)
            out.append((name, h.hexdigest()))
    out.append(("total", total.hexdigest()))
    return out


def load_cvsep(argv: list[str], tool: str):
    """cvsep imported from the one ``SRC_DIR`` in ``argv``.

    Exits 64 with ``tool``'s usage line for any other ``argv``, and 1 where
    ``import cvsep`` finds it outside ``SRC_DIR``.
    """
    if len(argv) != 1:
        print(f"usage: python3 tools/{tool} SRC_DIR", file=sys.stderr)
        sys.exit(64)
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import cvsep

    if not Path(cvsep.__file__).resolve().is_relative_to(src):
        print(f"cvsep was imported from {cvsep.__file__}, not {src}", file=sys.stderr)
        sys.exit(1)
    return cvsep


def main(argv: list[str]) -> int:
    for name, value in digests(load_cvsep(argv, "same_outputs.py")):
        print(f"{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
