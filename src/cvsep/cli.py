"""Command-line front end.

State files are JSON documents with explicit convention tags so a mismatch
fails loudly instead of silently flipping verdicts:

    {"matrix": [[...4x4 row-major...]],
     "ordering": "x1p1x2p2",
     "scaling": "vacuum-identity"}

Exit codes: 0 separable, 1 entangled, 2 boundary; 64 usage, 65 unparseable input,
66 missing file, 67 unphysical/invalid matrix, 70 internal error, 73 unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Optional, Sequence

from .core import CorrelationMatrix, _validate_rows, llubo_invariants
from .exceptions import CvsepError
from .oracle import ensemble_covariance, sample_random_physical, sample_separable_ensemble
from .scenarios import INFINITE, scan_boundary, threshold_time
from .separability import EPS_DECIDE, Decision, _check_tol, decide_separability
from .standard_form import balance_residuals, to_standard_form_I, to_standard_form_II

ORDERING_TAG = "x1p1x2p2"
SCALING_TAG = "vacuum-identity"

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_BOUNDARY = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_NOFILE = 66
EXIT_UNPHYSICAL = 67
EXIT_INTERNAL = 70
EXIT_CANTWRITE = 73

_DECISION_EXIT = {
    Decision.SEPARABLE: EXIT_SEPARABLE,
    Decision.ENTANGLED: EXIT_ENTANGLED,
    Decision.BOUNDARY: EXIT_BOUNDARY,
}


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the boundary
    # verdict; route usage problems to a dedicated code instead.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, message)

    # argparse's own ignores a failed write; this one fails as every
    # report does, so main exits 73.
    def print_help(self, file=None) -> None:
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


_quote = json.encoder.encode_basestring_ascii


def _num(x: float) -> str:
    """A float as ``json.dumps`` writes it, but ``null`` where it is not finite."""
    return float.__repr__(x) if math.isfinite(x) else "null"


def _rows_text(rows, level: int) -> str:
    """Float rows as ``json.dumps(rows, indent=2)`` nests them ``level`` deep,
    with ``null`` for a non-finite float.  A row of finite floats, the usual
    case, is written by ``float.__repr__`` mapped and joined in C; only a row
    holding a non-finite float goes through ``_num``."""
    pad = "\n" + "  " * level
    row_pad, num_pad = pad + "  ", pad + "    "
    items = []
    for r in rows:
        num = float.__repr__ if all(map(math.isfinite, r)) else _num
        items.append(f"[{num_pad}{(',' + num_pad).join(map(num, r))}{row_pad}]")
    return f"[{row_pad}{(',' + row_pad).join(items)}{pad}]"


def _state_text(rows, level: int = 0) -> str:
    """The state file ``{"matrix": rows}`` with its two tags, as ``json.dumps``
    with ``indent=2`` nests it ``level`` deep, with ``null`` for a
    non-finite float."""
    pad = "\n" + "  " * level
    return (
        f'{{{pad}  "matrix": {_rows_text(rows, level + 1)},'
        f'{pad}  "ordering": {_quote(ORDERING_TAG)},'
        f'{pad}  "scaling": {_quote(SCALING_TAG)}{pad}}}'
    )


def load_state_file(path: str) -> CorrelationMatrix:
    """Read and validate a state file, mapping failures to exit codes."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode("utf-8")
        # Text mode's newline translation, so a JSON error gives the
        # position a text-mode read would.
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except FileNotFoundError:
        raise CliError(EXIT_NOFILE, f"state file not found: {path}")
    except OSError as exc:
        raise CliError(EXIT_NOFILE, f"cannot read {path}: {exc}")
    # Not UTF-8, not JSON, or nested beyond the decoder's recursion limit.
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise CliError(EXIT_PARSE, f"{path}: missing 'matrix' key")
    for key, tag in (("ordering", ORDERING_TAG), ("scaling", SCALING_TAG)):
        if doc.get(key) != tag:
            raise CliError(
                EXIT_PARSE, f"{path}: {key} tag must be '{tag}', got {doc.get(key)!r}"
            )
    matrix = doc["matrix"]
    if not (
        type(matrix) is list
        and len(matrix) == 4
        and all(type(row) is list and len(row) == 4 for row in matrix)
    ):
        raise CliError(EXIT_PARSE, f"{path}: matrix must be 4x4 (4 rows of 4 entries)")
    # JSON true/false, strings and null are not numbers.
    if not set(map(type, matrix[0] + matrix[1] + matrix[2] + matrix[3])) <= {int, float}:
        raise CliError(
            EXIT_PARSE, f"{path}: matrix is not numeric (entries must be JSON numbers)"
        )
    try:
        rows = [list(map(float, row)) for row in matrix]
    except OverflowError as exc:  # an integer beyond the float range
        raise CliError(EXIT_PARSE, f"{path}: matrix is not numeric ({exc})")
    try:
        return _validate_rows(rows)
    except CvsepError as exc:
        raise CliError(EXIT_UNPHYSICAL, f"{path}: {exc}")


def _block_rows(entries: tuple) -> list:
    """A 2x2 block's row-major float entries as ``[[a, b], [c, d]]``."""
    a, b, c, d = entries
    return [[a, b], [c, d]]


def _verdict_document(state: CorrelationMatrix, verdict, tol: float) -> dict:
    form = dict(vars(verdict.form))
    del form["transform"]
    return {
        "decision": verdict.decision.value,
        "total_variance": verdict.total_variance,
        "bound": verdict.bound,
        "margin": verdict.margin,
        "min_eigenvalue": verdict.min_eigenvalue,
        "witness": None if verdict.witness is None else dict(vars(verdict.witness)),
        "invariants": dict(vars(llubo_invariants(state))),
        "standard_form_ii": form,
        "certificate": None if (cert := verdict.certificate) is None else {
            "covariance": [list(row) for row in cert._rows],
            "transform_back": {
                "h1": _block_rows(cert.transform_back._e1),
                "h2": _block_rows(cert.transform_back._e2),
            },
        },
        "tol_decide": tol,
        "state": {"matrix": state._rows, "ordering": ORDERING_TAG, "scaling": SCALING_TAG},
    }


def _report_text(doc: dict) -> str:
    """A ``_verdict_document`` as ``json.dumps(doc, indent=2)`` writes it,
    with ``null`` for a non-finite float, by the document's fixed layout.
    One finiteness test over the scalar slots (18 with a witness) picks
    their writer: ``float.__repr__`` where all are finite, else ``_num``."""
    witness, inv, form, cert = (
        doc["witness"], doc["invariants"], doc["standard_form_ii"], doc["certificate"]
    )
    scalars = [
        doc["total_variance"], doc["bound"], doc["margin"], doc["min_eigenvalue"],
        inv["det_g1"], inv["det_g2"], inv["det_c"], inv["det_m"],
        form["n1"], form["n2"], form["m1"], form["m2"],
        form["c1"], form["c2"], form["r1"], form["r2"], doc["tol_decide"],
    ]
    if witness is not None:
        scalars.append(witness["a"])
    num = float.__repr__ if all(map(math.isfinite, scalars)) else _num
    if witness is not None:
        witness = (
            f'{{\n    "a": {num(witness["a"])},\n    "sign_u": {witness["sign_u"]},'
            f'\n    "sign_v": {witness["sign_v"]}\n  }}'
        )
    if cert is not None:
        back = cert["transform_back"]
        cert = (
            f'{{\n    "covariance": {_rows_text(cert["covariance"], 2)},'
            f'\n    "transform_back": {{\n      "h1": {_rows_text(back["h1"], 3)},'
            f'\n      "h2": {_rows_text(back["h2"], 3)}\n    }}\n  }}'
        )
    return f"""{{
  "decision": {_quote(doc["decision"])},
  "total_variance": {num(doc["total_variance"])},
  "bound": {num(doc["bound"])},
  "margin": {num(doc["margin"])},
  "min_eigenvalue": {num(doc["min_eigenvalue"])},
  "witness": {"null" if witness is None else witness},
  "invariants": {{
    "det_g1": {num(inv["det_g1"])},
    "det_g2": {num(inv["det_g2"])},
    "det_c": {num(inv["det_c"])},
    "det_m": {num(inv["det_m"])}
  }},
  "standard_form_ii": {{
    "n1": {num(form["n1"])},
    "n2": {num(form["n2"])},
    "m1": {num(form["m1"])},
    "m2": {num(form["m2"])},
    "c1": {num(form["c1"])},
    "c2": {num(form["c2"])},
    "r1": {num(form["r1"])},
    "r2": {num(form["r2"])},
    "degenerate": {"true" if form["degenerate"] else "false"}
  }},
  "certificate": {"null" if cert is None else cert},
  "tol_decide": {num(doc["tol_decide"])},
  "state": {_state_text(doc["state"]["matrix"], 1)}
}}"""


def _print_matrix(rows: Iterable[Iterable[float]]) -> None:
    for row in rows:
        print("  " + "  ".join(f"{_fmt(v):>15s}" for v in row))


def _write_out(path: Optional[str], text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_CANTWRITE, f"cannot write {path}: {exc}")


def cmd_check(args: argparse.Namespace) -> int:
    tol = args.tol_decide
    try:
        _check_tol("--tol-decide", tol)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    state = load_state_file(args.path)
    verdict = decide_separability(state, tol_decide=tol)
    doc = _verdict_document(state, verdict, tol)
    if args.json:
        print(_report_text(doc))
        return _DECISION_EXIT[verdict.decision]
    print(f"decision: {doc['decision'].capitalize()}")
    print(f"total variance: {_fmt(doc['total_variance'])}")
    print(f"bound (a^2 + 1/a^2): {_fmt(doc['bound'])}")
    print(f"margin: {_fmt(doc['margin'])}")
    boundary = doc["decision"] == Decision.BOUNDARY.value
    if abs(doc["margin"]) <= doc["tol_decide"] and not boundary:
        print("note: margin is boundary-adjacent at the decision tolerance")
    w = doc["witness"]
    if w is None:
        print("witness: none (degenerate standard form; spectral decision only)")
    else:
        a, sign_u, sign_v = _fmt(w["a"]), w["sign_u"], w["sign_v"]
        print(f"witness: a = {a}, sign_u = {sign_u:+d}, sign_v = {sign_v:+d}")
    inv = doc["invariants"]
    dets = (_fmt(inv[key]) for key in ("det_g1", "det_g2", "det_c", "det_m"))
    print("invariants: det G1 = {}, det G2 = {}, det C = {}, det M = {}".format(*dets))
    if doc["certificate"] is not None:
        print("P-certificate covariance (label coordinates):")
        _print_matrix(doc["certificate"]["covariance"])
    return _DECISION_EXIT[verdict.decision]


def cmd_reduce(args: argparse.Namespace) -> int:
    state = load_state_file(args.path)
    if args.form == "I":
        form = to_standard_form_I(state)
        print(
            "form I: n = {}, m = {}, c = {}, c' = {}".format(
                _fmt(form.n), _fmt(form.m), _fmt(form.c), _fmt(form.c_prime)
            )
        )
    else:
        form = to_standard_form_II(state)
        print(
            "form II: n1 = {}, n2 = {}, m1 = {}, m2 = {}, c1 = {}, c2 = {}".format(
                _fmt(form.n1), _fmt(form.n2), _fmt(form.m1),
                _fmt(form.m2), _fmt(form.c1), _fmt(form.c2),
            )
        )
        print(f"squeezes: r1 = {_fmt(form.r1)}, r2 = {_fmt(form.r2)}")
        print(f"degenerate: {form.degenerate}")
        ratio_res, gap_res = balance_residuals(form)
        print(
            "balance residuals: ratio = {}, gap = {}".format(
                _fmt(ratio_res), _fmt(gap_res)
            )
        )
    print("transform h1:")
    _print_matrix(_block_rows(form.transform._e1))
    print("transform h2:")
    _print_matrix(_block_rows(form.transform._e2))
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    try:
        t_star = threshold_time(args.r, args.eta, args.nbar)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    if args.nbar == 0.0:
        print("threshold time: infinite (vacuum bath never disentangles the state)")
    else:
        print(f"threshold time: {_fmt(t_star)}")
        if args.nbar > 10.0:
            asym = 0.25 * -math.expm1(-2.0 * args.r)
            rate = args.eta * args.nbar  # where it overflows, divide in turn
            asym = asym / rate if rate < math.inf else asym / args.eta / args.nbar
            print(f"large-nbar asymptote: {_fmt(asym)}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:  # the closed form the bracket is compared with; it rejects r = 0
        t_star = threshold_time(args.r, args.eta, args.nbar)
        points = scan_boundary(
            args.r, args.eta, args.nbar, args.t_max, args.steps, t_min=args.t_min
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    lines = ["t,margin,decision"]
    lines += [f"{_fmt(p.t)},{_fmt(p.margin)},{p.decision.value}" for p in points]
    _write_out(args.out, "\n".join(lines) + "\n")
    if args.out:
        print(f"wrote {len(points)} rows to {args.out}")
    bracket = None
    for prev, cur in zip(points, points[1:]):
        if (prev.decision is Decision.ENTANGLED) and (
            cur.decision is not Decision.ENTANGLED
        ):
            bracket = (prev.t, cur.t)
            break
    if bracket is not None:
        print(f"sign change bracket: [{_fmt(bracket[0])}, {_fmt(bracket[1])}]")
        if t_star != INFINITE:
            mid = 0.5 * (bracket[0] + bracket[1])
            print(f"closed-form threshold: {_fmt(t_star)}")
            print(f"bracket-midpoint deviation: {_fmt(abs(mid - t_star))}")
    elif args.nbar == 0.0:
        print("no sign change: vacuum bath, state entangled on the whole grid")
    else:
        print("no sign change on this grid")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(EXIT_USAGE, f"--seed must be >= 0, got {args.seed}")
    try:
        if args.kind == "random":
            state = sample_random_physical(args.seed)
        else:
            state = ensemble_covariance(
                sample_separable_ensemble(args.seed, args.max_components)
            )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    _write_out(args.out, _state_text(state._rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvsep",
        description=(
            "Classify a two-mode Gaussian state (4x4 correlation matrix, "
            "ordering x1 p1 x2 p2, vacuum = identity) as entangled or "
            "separable."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's own parser by name, for main's direct dispatch.
    parser.commands = sub.choices

    p_check = sub.add_parser("check", help="decide separability of a state file")
    p_check.add_argument("path", help="state file (JSON)")
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    p_check.add_argument(
        "--tol-decide",
        type=float,
        default=EPS_DECIDE,
        help="override the boundary-band tolerance",
    )

    p_reduce = sub.add_parser("reduce", help="print a standard-form reduction")
    p_reduce.add_argument("path", help="state file (JSON)")
    p_reduce.add_argument(
        "--form", choices=["I", "II"], default="II", help="which standard form"
    )

    p_thr = sub.add_parser(
        "threshold", help="closed-form entanglement lifetime of the thermal scenario"
    )
    p_thr.add_argument("r", type=float, help="squeezing parameter (> 0)")
    p_thr.add_argument("eta", type=float, help="damping coefficient (inverse time)")
    p_thr.add_argument("nbar", type=float, help="mean thermal occupation (>= 0)")

    p_scan = sub.add_parser(
        "scan", help="scan the decision pipeline over a time grid (CSV)"
    )
    p_scan.add_argument("r", type=float)
    p_scan.add_argument("eta", type=float)
    p_scan.add_argument("nbar", type=float)
    p_scan.add_argument("t_max", type=float)
    p_scan.add_argument("steps", type=int)
    p_scan.add_argument(
        "--t-min", type=float, default=0.0, help="grid start (default 0)"
    )
    p_scan.add_argument("--out", default=None, help="CSV output path")

    p_sample = sub.add_parser("sample", help="write a seeded random state file")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--kind", choices=["random", "separable"], default="random"
    )
    p_sample.add_argument(
        "--max-components",
        type=int,
        default=5,
        help="components for --kind separable",
    )
    p_sample.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the interpreter's
    flush at exit does not fail again on the output it still holds."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no real descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args only reads the parser and returns a fresh Namespace, so one
    # parser serves every main() call in the process.
    return build_parser()


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsing a command's arguments with that
    command's own parser: the top parser hands it every argument after the
    command name unchanged, so only what is left over needs the top parser."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # -h, no or an unknown command, a leading "--"
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(argv)
        # Resolved per call rather than stored in the cached parser, so a
        # replaced cmd_* function (a test double, a tracer) still takes effect.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CvsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except OSError as exc:
        # Every file a command opens maps its own OSError to a CliError, so
        # this one came from stdout: a closed pipe, a full disk.
        _drop_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTWRITE
    except Exception as exc:  # a bug: report it, never exit with a verdict code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
