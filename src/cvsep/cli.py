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
import sys
from typing import Optional, Sequence

import numpy as np

from .core import CorrelationMatrix, llubo_invariants, validate
from .exceptions import CvsepError
from .oracle import ensemble_covariance, sample_random_physical, sample_separable_ensemble
from .scenarios import INFINITE, scan_boundary, threshold_time
from .separability import EPS_DECIDE, Decision, decide_separability
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


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _state_document(state: CorrelationMatrix) -> dict:
    return {
        "matrix": state._rows,
        "ordering": ORDERING_TAG,
        "scaling": SCALING_TAG,
    }


def load_state_file(path: str) -> CorrelationMatrix:
    """Read and validate a state file, mapping failures to exit codes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise CliError(EXIT_NOFILE, f"state file not found: {path}")
    except OSError as exc:
        raise CliError(EXIT_NOFILE, f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise CliError(EXIT_PARSE, f"{path}: missing 'matrix' key")
    if doc.get("ordering") != ORDERING_TAG:
        raise CliError(
            EXIT_PARSE,
            f"{path}: ordering tag must be '{ORDERING_TAG}', "
            f"got {doc.get('ordering')!r}",
        )
    if doc.get("scaling") != SCALING_TAG:
        raise CliError(
            EXIT_PARSE,
            f"{path}: scaling tag must be '{SCALING_TAG}', "
            f"got {doc.get('scaling')!r}",
        )
    try:
        matrix = np.array(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: matrix is not numeric ({exc})")
    if matrix.shape != (4, 4):
        raise CliError(
            EXIT_PARSE, f"{path}: matrix must be 4x4, got shape {matrix.shape}"
        )
    try:
        return validate(matrix)
    except CvsepError as exc:
        raise CliError(EXIT_UNPHYSICAL, f"{path}: {exc}")


def _verdict_document(state: CorrelationMatrix, verdict, tol: float) -> dict:
    form = dict(vars(verdict.form))
    del form["transform"]
    doc = {
        "decision": verdict.decision.value,
        "total_variance": verdict.total_variance,
        "bound": verdict.bound,
        "margin": verdict.margin,
        "min_eigenvalue": verdict.min_eigenvalue,
        "witness": None if verdict.witness is None else dict(vars(verdict.witness)),
        "invariants": dict(vars(llubo_invariants(state))),
        "standard_form_ii": form,
        "certificate": None,
        "tol_decide": tol,
        "state": _state_document(state),
    }
    if verdict.certificate is not None:
        cert = verdict.certificate
        doc["certificate"] = {
            "covariance": cert.covariance.tolist(),
            "transform_back": {
                "h1": cert.transform_back.h1.tolist(),
                "h2": cert.transform_back.h2.tolist(),
            },
        }
    return doc


def _print_matrix(m: np.ndarray, indent: str = "  ") -> None:
    for row in m:
        print(indent + "  ".join(f"{_fmt(v):>15s}" for v in row))


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
    tol = args.tol_decide if args.tol_decide is not None else EPS_DECIDE
    if not (math.isfinite(tol) and tol >= 0.0):
        raise CliError(
            EXIT_USAGE, f"--tol-decide must be finite and >= 0, got {tol!r}"
        )
    state = load_state_file(args.path)
    verdict = decide_separability(state, tol_decide=tol)
    if args.json:
        print(json.dumps(_verdict_document(state, verdict, tol), indent=2))
        return _DECISION_EXIT[verdict.decision]
    print(f"decision: {verdict.decision.value.capitalize()}")
    print(f"total variance: {_fmt(verdict.total_variance)}")
    print(f"bound (a^2 + 1/a^2): {_fmt(verdict.bound)}")
    print(f"margin: {_fmt(verdict.margin)}")
    if abs(verdict.margin) <= tol and verdict.decision is not Decision.BOUNDARY:
        print("note: margin is boundary-adjacent at the decision tolerance")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"witness: a = {_fmt(w.a)}, sign_u = {w.sign_u:+d}, sign_v = {w.sign_v:+d}")
    else:
        print("witness: none (degenerate standard form; spectral decision only)")
    inv = llubo_invariants(state)
    print(
        "invariants: det G1 = {}, det G2 = {}, det C = {}, det M = {}".format(
            _fmt(inv.det_g1), _fmt(inv.det_g2), _fmt(inv.det_c), _fmt(inv.det_m)
        )
    )
    if verdict.certificate is not None:
        print("P-certificate covariance (label coordinates):")
        _print_matrix(verdict.certificate.covariance)
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
    _print_matrix(form.transform.h1)
    print("transform h2:")
    _print_matrix(form.transform.h2)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    if not args.r > 0.0:
        raise CliError(EXIT_USAGE, "r must be > 0")
    if not args.eta > 0.0:
        raise CliError(EXIT_USAGE, "eta must be > 0")
    if not args.nbar >= 0.0:
        raise CliError(EXIT_USAGE, "nbar must be >= 0")
    t_star = threshold_time(args.r, args.eta, args.nbar)
    if t_star == INFINITE:
        print("threshold time: infinite (vacuum bath never disentangles the state)")
    else:
        print(f"threshold time: {_fmt(t_star)}")
        if args.nbar > 10.0:
            asym = 0.25 * (1.0 - math.exp(-2.0 * args.r)) / (args.eta * args.nbar)
            print(f"large-nbar asymptote: {_fmt(asym)}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise CliError(EXIT_USAGE, "steps must be >= 2")
    if not (
        0.0 < args.r < math.inf
        and 0.0 < args.eta < math.inf
        and 0.0 <= args.nbar < math.inf
    ):
        raise CliError(EXIT_USAGE, "invalid scan parameters")
    if not (0.0 <= args.t_min <= args.t_max < math.inf):
        raise CliError(EXIT_USAGE, "need 0 <= t-min <= t-max")
    try:
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
        t_star = threshold_time(args.r, args.eta, args.nbar)
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
    if args.kind == "random":
        state = sample_random_physical(args.seed)
    else:
        state = ensemble_covariance(
            sample_separable_ensemble(args.seed, args.max_components)
        )
    _write_out(args.out, json.dumps(_state_document(state), indent=2) + "\n")
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

    p_check = sub.add_parser("check", help="decide separability of a state file")
    p_check.add_argument("path", help="state file (JSON)")
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    p_check.add_argument(
        "--tol-decide",
        type=float,
        default=None,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args only reads the parser and returns a fresh Namespace, so one
    # parser serves every main() call in the process.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Resolved per call rather than stored in the cached parser, so a
        # replaced cmd_* function (a test double, a tracer) still takes effect.
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CvsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except Exception as exc:  # a bug: report it, never exit with a verdict code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
