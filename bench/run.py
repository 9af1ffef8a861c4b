"""cvsep benchmark: a single-process, closed-loop, single-caller load loop.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cvsep is imported from its ``src``
directory and nowhere else.  The workload's items are generated from
``--seed`` before timing, then the loop calls cvsep on one item at a time,
each call starting when the previous one returned, over whole passes of the
item pool for about ``--seconds`` seconds.  Every result is checked against
the workload's reference after its timed window.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
block of items twice, once plain and once with spans around cvsep's public
functions, and reports the per-layer metrics; the spans are written to
``.bench_out/trace-<workload>.jsonl``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path
from time import perf_counter_ns, process_time_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set to 1 before numpy is first imported, so that on a small machine the
# numbers measure cvsep rather than BLAS threads competing for cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_REPS = 9  # fresh interpreters per run; setup_s is their median
WARMUP_S = 0.3
# Blocks per pass.  states_per_s is the median of the blocks' rates, which
# resists the bursts of a shared machine's speed; the traced run runs each
# block plain and traced.
BLOCKS = 16
# latency_us_p99 is the median of the p99s of windows of whole passes with at
# least this many operations, so that each p99 has >= 10 samples beyond it.
P99_WINDOW_OPS = 1000

# Times are the process's CPU time, scaled to a reference speed of the
# machine.  CPU time leaves out the moments another tenant of a shared
# machine holds the core (on a 2-core Xeon, ~4% of 2.5 ms calls lost over
# 20% that way, enough to move a p99).  The scaling follows the machine's
# speed, which swings by up to 2x for seconds to minutes at a time: next to
# each block of operations and each set-up interpreter, the run times a
# fixed reference kernel of small numpy and Python work, like cvsep's own
# mix, and multiplies the block's times by REFERENCE_NS / (the median of the
# latest KERNEL_MEDIAN_OF kernel times).
# There, the raw time of a block of survey states varied by ~20% between
# 15-second windows while its ratio to the kernel varied by ~2%.  The raw
# CPU figures and the wall-clock rate are printed as well.
REFERENCE_NS = 3_000_000  # the kernel's typical time there (Python 3.11, numpy 2.4)
KERNEL_MEDIAN_OF = 8

END_TO_END_UNITS = {
    "states_per_s": "states/s",
    "latency_us_p50": "us",
    "latency_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
    "decided_frac": "share",
}

PER_LAYER_UNITS = {
    "core.validate.us_per_call": "us",
    "core.llubo_invariants.us_per_call": "us",
    "standard_form.to_standard_form_I.us_per_call": "us",
    "standard_form.solve_form_II_root.us_per_call": "us",
    "standard_form.solve_form_II_root.residual_evals_per_call": "count",
    "standard_form.to_standard_form_II.us_per_call": "us",
    "standard_form.degenerate_frac": "share",
    "separability.decide_separability.self_us": "us",
    "separability.p_representation.us_per_call": "us",
    "separability.certificate_frac": "share",
    "scenarios.evolve_thermal.us_per_call": "us",
    "scenarios.scan_boundary.self_us_per_point": "us",
    "cli.build_parser.us_per_call": "us",
    "cli.load_state_file.us_per_call": "us",
    "cli.cmd_check.self_us": "us",
    "cli.main.self_us": "us",
    "oracle.ppt_decision.us_per_call": "us",
    "trace.overhead_frac": "share",
}

_SETUP_CHILD = """\
import time
t0 = time.process_time()
import sys
sys.path.insert(0, sys.argv[1])
import numpy, cvsep
cvsep.decide_separability(cvsep.validate(numpy.eye(4)))
print(time.process_time() - t0, cvsep.__file__)
"""


def load_cvsep():
    """Import cvsep from the checkout's ``src``; ImportError if it is not there."""
    package = SRC / "cvsep"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no cvsep sources at {package}")
    sys.path.insert(0, str(SRC))
    import cvsep

    if Path(cvsep.__file__).resolve().parent != package.resolve():
        raise ImportError(f"cvsep was imported from {cvsep.__file__}, not {package}")
    return cvsep


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class ReferenceKernel:
    """Fixed work, independent of cvsep, whose time tracks the machine's speed."""

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.inputs = [rng.standard_normal((4, 4)) for _ in range(64)]
        self.eye = numpy.eye(4)
        # One kernel time is noisy (consecutive runs differ by >20% one time
        # in ten), so the scale uses the median of the latest few.
        self.recent: deque = deque(maxlen=KERNEL_MEDIAN_OF)

    def scale(self) -> float:
        """Run the kernel once; REFERENCE_NS over the median of its latest CPU times."""
        np = self.np
        start = process_time_ns()
        for a in self.inputs:
            s = a @ a.T + self.eye
            w = np.linalg.eigvalsh(np.block([[s, -a], [a, s]]))
            float(w[0]) + float(np.max(np.abs(s - s.T)))
        self.recent.append(process_time_ns() - start)
        return REFERENCE_NS / statistics.median(self.recent)


def measure_setup(kernel: ReferenceKernel) -> tuple[float, float]:
    """CPU seconds from a fresh interpreter to the first verdict: (raw, scaled)."""
    scale = kernel.scale()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"set-up child imported cvsep from {path}")
    return float(seconds), float(seconds) * scale


class Record:
    """Latencies and outcomes of the timed operations of one kind."""

    def __init__(self) -> None:
        self.scale = 1.0  # REFERENCE_NS over the kernel time next to the current block
        self.latency_ns: list[int] = []  # raw CPU time
        self.scaled_ns: list[float] = []
        self.busy_ns = 0
        self.scaled_busy_ns = 0.0
        self.wall_busy_ns = 0
        self.states = 0
        self.boundary = 0
        self.failed_ops = 0
        self.wrong_ops = 0
        self.errors: Counter = Counter()
        self.first_error: dict = {}
        self.pass_ends: list[int] = []  # operation count at the end of each pass

    def timed(self, workload, item, op) -> None:
        """Run ``op(item)`` in the timed window, then check its result."""
        wall_start = perf_counter_ns()
        start = process_time_ns()
        try:
            result = op(item)
        except Exception as exc:  # a raising call is a failed operation
            elapsed = process_time_ns() - start
            self.wall_busy_ns += perf_counter_ns() - wall_start
            kind = type(exc).__name__
            self.errors[kind] += 1
            self.first_error.setdefault(kind, str(exc))
            self.failed_ops += 1
        else:
            elapsed = process_time_ns() - start
            self.wall_busy_ns += perf_counter_ns() - wall_start
            tally = workload.check(item, result)
            self.boundary += tally.boundary
            if tally.wrong:
                self.wrong_ops += 1
                self.failed_ops += 1
        self.latency_ns.append(elapsed)
        self.busy_ns += elapsed
        self.scaled_ns.append(elapsed * self.scale)
        self.scaled_busy_ns += elapsed * self.scale
        self.states += workload.STATES

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    def merge(self, other: "Record") -> "Record":
        """Operation counts of both records (for the result line)."""
        out = Record()
        out.latency_ns = self.latency_ns + other.latency_ns
        out.failed_ops = self.failed_ops + other.failed_ops
        out.wrong_ops = self.wrong_ops + other.wrong_ops
        return out


def warm_up(workload, kernel: ReferenceKernel) -> None:
    kernel.scale()
    deadline = time.perf_counter() + WARMUP_S
    for item in workload.items:
        try:
            workload.op(item)
        except Exception:  # counted when the timed loop meets it
            pass
        if time.perf_counter() > deadline:
            break


def _fits_another_pass(start: float, pass_start: float, seconds: float) -> bool:
    now = time.perf_counter()
    return (now - start) + (now - pass_start) <= seconds


def _blocks(items: list) -> list[list]:
    size = max(1, len(items) // BLOCKS)
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_plain(workload, seconds: float, kernel: ReferenceKernel):
    """Whole passes over the pool.

    Returns the record, each block's scaled states/s, and SETUP_REPS
    (raw, scaled) set-up times taken between blocks at even intervals of the
    run, so that they sample the machine over the whole run.
    """
    rec = Record()
    rates: list[float] = []
    setup: list[tuple[float, float]] = []
    blocks = _blocks(workload.items)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for block in blocks:
            due = seconds * len(setup) / SETUP_REPS
            if len(setup) < SETUP_REPS and time.perf_counter() - start >= due:
                setup.append(measure_setup(kernel))
            rec.scale = kernel.scale()
            busy, states = rec.scaled_busy_ns, rec.states
            for item in block:
                rec.timed(workload, item, workload.op)
            rates.append((rec.states - states) / (rec.scaled_busy_ns - busy) * 1e9)
        rec.pass_ends.append(rec.ops)
        if not _fits_another_pass(start, pass_start, seconds):
            break
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(kernel))
    return rec, rates, setup


def run_traced(workload, seconds: float, tracer, kernel: ReferenceKernel):
    """Whole passes; each block of items runs plain and traced, in alternating order.

    Returns both records and the kernel's scale measured before each block.
    """
    from spans import OP

    plain, traced = Record(), Record()
    scales = []
    traced_op = tracer.wrap(OP, workload.op)
    blocks = _blocks(workload.items)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for b, block in enumerate(blocks):
            scales.append(kernel.scale())
            for with_spans in (b % 2 == 1, b % 2 == 0):
                rec, op = (traced, traced_op) if with_spans else (plain, workload.op)
                if with_spans:
                    tracer.install()
                try:
                    for item in block:
                        tracer.op += 1
                        rec.timed(workload, item, op)
                finally:
                    tracer.uninstall()
        if not _fits_another_pass(start, pass_start, seconds):
            return plain, traced, scales


def _p50_us(latency_ns: list) -> float:
    return statistics.median(latency_ns) / 1e3


def _p99_windows_us(latency_ns: list, pass_ends: list[int]) -> list[float]:
    """p99 of each window of consecutive whole passes with >= P99_WINDOW_OPS operations."""
    import numpy

    windows, lo = [], 0
    for end in pass_ends:
        if end - lo >= P99_WINDOW_OPS:
            windows.append((lo, end))
            lo = end
    if lo < pass_ends[-1]:  # a short tail joins the last window
        windows[-1:] = [(windows[-1][0] if windows else 0, pass_ends[-1])]
    lat = numpy.asarray(latency_ns, dtype=float)
    return [float(numpy.percentile(lat[a:b], 99)) / 1e3 for a, b in windows]


def _report_errors(rec: Record) -> None:
    for kind, count in rec.errors.most_common():
        print(f"raised {kind} x{count} (first: {rec.first_error[kind]})")


def end_to_end(workload, args, kernel: ReferenceKernel) -> tuple[dict, Record]:
    rec, rates, setup = run_plain(workload, args.seconds, kernel)
    p99s = _p99_windows_us(rec.scaled_ns, rec.pass_ends)
    raw_p99s = _p99_windows_us(rec.latency_ns, rec.pass_ends)
    ops, states = rec.ops, rec.states
    fail_frac = rec.failed_ops / ops
    boundary_frac = rec.boundary / states
    metrics = {
        "states_per_s": statistics.median(rates),
        "latency_us_p50": _p50_us(rec.scaled_ns),
        "latency_us_p99": statistics.median(p99s),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - fail_frac,
        "decided_frac": 1.0 - boundary_frac,
    }
    notes = {
        "states_per_s": f"median of {len(rates)} blocks, {states} states; "
        f"raw {states / rec.busy_ns * 1e9:.6g} overall, "
        f"wall-clock {states / rec.wall_busy_ns * 1e9:.6g}",
        "latency_us_p50": f"n={ops}; raw {_p50_us(rec.latency_ns):.6g}",
        "latency_us_p99": f"median of {len(p99s)} windows of >= {P99_WINDOW_OPS} ops; "
        f"raw {statistics.median(raw_p99s):.6g}",
        "setup_s": f"median of {len(setup)}; raw "
        + ", ".join(f"{raw:.4f}" for raw, _ in setup),
        "peak_rss_mb": "ru_maxrss",
        "ok_frac": "1 - fail_frac",
        "decided_frac": "1 - boundary_frac",
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    print(f"fail_frac = {fail_frac:.6g} share ({rec.failed_ops} of {ops} ops)")
    print(f"boundary_frac = {boundary_frac:.6g} share ({rec.boundary} of {states} states)")
    _report_errors(rec)
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}, rec


def per_layer(workload, args, info: dict, kernel: ReferenceKernel) -> tuple[dict, Record]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, scales = run_traced(workload, args.seconds, tracer, kernel)
    scale = statistics.median(scales)
    metrics = layer_metrics(tracer.spans, plain.busy_ns, traced.busy_ns, scale)
    print(f"per-call times scaled by {scale:.4g} (median of {len(scales)} kernel runs)")
    path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "machine": info})
    print(f"spans: {len(tracer.spans)} over {traced.ops} traced ops, written to {path}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    _report_errors(traced)
    return {n: {"value": v, "unit": PER_LAYER_UNITS[n]} for n, v in metrics.items()}, plain.merge(traced)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool", type=int, default=None, help="items per pass (default: per workload)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.pool is not None and args.pool < 1):
        parser.error("--seconds must be > 0 and --pool >= 1")
    return args


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    try:
        cv = load_cvsep()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    info = machine()
    print("machine: " + json.dumps(info))
    workload = workloads.make(args.workload, cv, args.seed, args.pool, OUT)
    kernel = ReferenceKernel()
    try:
        warm_up(workload, kernel)
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, rec = per_layer(workload, args, info, kernel)
        else:
            metrics, rec = end_to_end(workload, args, kernel)
    finally:
        workload.close()
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"pool={len(workload.items)} ops={rec.ops} failed={rec.failed_ops} wrong={rec.wrong_ops}"
    )
    result = {
        "correct": rec.wrong_ops == 0,
        "attempted": rec.ops,
        "failed": rec.failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
