"""Self-test of the benchmark at a tiny op count.

    python3 -m pytest bench/test_bench.py -q

Runs every workload briefly in both modes and checks the result line
against BENCHMARK.json.  It is kept out of the library's test suite so that
timing noise can never fail that suite.
"""

from __future__ import annotations

import functools
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@functools.cache
def _result(workload: str, seed: int, trace: int) -> dict:
    """The result line of a one-second run on a pool of 4 items."""
    proc = _bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--pool", "4",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_emitted_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = _result(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert np.isfinite(emitted["value"])
    if workload in {w["name"] for w in SPEC["workloads"]}:
        assert result["failed"] == 0


def test_seed_changes_inputs_not_metric_set(tmp_path):
    cv = run.load_cvsep()

    def inputs(workload) -> bytes:
        # A cli_check item also names its per-run temporary file.
        return pickle.dumps([getattr(i, "matrix", i) for i in workload.items])

    for name in workloads.WORKLOADS:
        a, a_again, b = (workloads.make(name, cv, s, 4, tmp_path) for s in (1, 1, 2))
        try:
            assert inputs(a) == inputs(a_again)
            assert inputs(a) != inputs(b)
        finally:
            for w in (a, a_again, b):
                w.close()
    for trace in (0, 1):
        assert set(_result("survey", 1, trace)["metrics"]) == set(
            _result("survey", 2, trace)["metrics"]
        )


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = _bench("--workload", "survey", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
