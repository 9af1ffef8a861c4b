"""In-memory spans around cvsep's public functions, for the traced run.

``Tracer.install`` replaces each traced function, wherever a cvsep module
holds a reference to it, by a wrapper that records one span per call:
``(name, start_ns, end_ns, parent, op, evals, note)``, with the process's
CPU clock.  ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the operation the span
belongs to, ``evals`` the calls to ``solve_r2_given_r1`` made inside the span
(the root solve's residual evaluations) and ``note`` a per-layer count read
from the result.  ``uninstall`` puts the original functions back, so the
untraced run executes the library unmodified.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import process_time_ns

#: Traced public functions, as "module.function" under the cvsep package.
TRACED = (
    "core.validate",
    "core.llubo_invariants",
    "standard_form.to_standard_form_I",
    "standard_form.solve_form_II_root",
    "standard_form.to_standard_form_II",
    "separability.decide_separability",
    "separability.p_representation",
    "scenarios.evolve_thermal",
    "scenarios.scan_boundary",
    "cli.build_parser",
    "cli.load_state_file",
    "cli.cmd_check",
    "cli.main",
    "oracle.ppt_decision",
)

#: Counted, not spanned: one call is one residual evaluation of the root solve.
COUNTED = "standard_form.solve_r2_given_r1"

#: Span name of one whole timed operation (the root of its spans).
OP = "op"

_NOTES = {
    "standard_form.to_standard_form_II": lambda form: int(form.degenerate),
    "separability.decide_separability": lambda v: int(v.certificate is not None),
    "scenarios.scan_boundary": len,
}


def _resolve(qualname: str):
    module, _, name = qualname.partition(".")
    return getattr(importlib.import_module(f"cvsep.{module}"), name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.evals = 0
        self._current = -1
        self._saved: list = []

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        note = _NOTES.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self._current
            idx = len(spans)
            spans.append(None)
            self._current = idx
            evals = self.evals
            result = None
            start = process_time_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = process_time_ns()
                self._current = parent
                spans[idx] = (
                    name,
                    start,
                    end,
                    parent,
                    self.op,
                    self.evals - evals,
                    note(result) if note is not None and result is not None else 0,
                )

        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.evals += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "cvsep" or n.startswith("cvsep.")
        ]
        originals = {q: _resolve(q) for q in (*TRACED, COUNTED)}
        replacements = [(originals[q], self.wrap(q, originals[q])) for q in TRACED]
        replacements.append((originals[COUNTED], self._counted(originals[COUNTED])))
        for orig, repl in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, repl)
                        self._saved.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def write(self, path: Path, header: dict) -> None:
        """Write the header, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "evals", "notes")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.evals = self.notes = 0


def layer_metrics(spans: list, untraced_ns: int, traced_ns: int, scale: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``untraced_ns`` and ``traced_ns`` are the timed totals of the same
    operations run without and with the spans; times are multiplied by
    ``scale``.  A layer that the workload never calls reports 0.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers: defaultdict = defaultdict(_Layer)
    for (name, start, end, _, _, evals, note), children in zip(spans, child_ns):
        layer = layers[name]
        layer.calls += 1
        layer.total_ns += end - start
        layer.self_ns += end - start - children
        layer.evals += evals
        layer.notes += note

    def get(qualname: str) -> _Layer:
        return layers.get(qualname, _Layer())

    def per_call(ns: int, calls: int) -> float:
        return ns * scale / calls / 1e3 if calls else 0.0

    out = {}
    for qualname in (
        "core.validate",
        "core.llubo_invariants",
        "standard_form.to_standard_form_I",
        "standard_form.solve_form_II_root",
        "standard_form.to_standard_form_II",
        "separability.p_representation",
        "scenarios.evolve_thermal",
        "cli.build_parser",
        "cli.load_state_file",
        "oracle.ppt_decision",
    ):
        layer = get(qualname)
        out[f"{qualname}.us_per_call"] = per_call(layer.total_ns, layer.calls)
    for qualname in ("separability.decide_separability", "cli.cmd_check", "cli.main"):
        layer = get(qualname)
        out[f"{qualname}.self_us"] = per_call(layer.self_ns, layer.calls)
    solve = get("standard_form.solve_form_II_root")
    out["standard_form.solve_form_II_root.residual_evals_per_call"] = (
        solve.evals / solve.calls if solve.calls else 0.0
    )
    form2 = get("standard_form.to_standard_form_II")
    out["standard_form.degenerate_frac"] = form2.notes / form2.calls if form2.calls else 0.0
    decide = get("separability.decide_separability")
    out["separability.certificate_frac"] = decide.notes / decide.calls if decide.calls else 0.0
    scan = get("scenarios.scan_boundary")
    out["scenarios.scan_boundary.self_us_per_point"] = per_call(scan.self_ns, scan.notes)
    out["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    return out
