"""Smoke test of ``tools/solver_evals.py``, the root solve's evaluation count."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (
    "random", "symmetric", "large_squeeze", "near_edge", "near_vacuum_tmsv", "equal_c", "opposite_c"
)


def test_prints_the_counts_per_source():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solver_evals.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == [*SOURCES, "all"]
    for line in done.stdout.splitlines():
        assert re.fullmatch(
            r"[a-z_]+ +calls +\d+ +(raised +\d+)? +mean +[\d.]+ +p99 +\d+ +max +\d+", line
        ), line
    # Both mode orders of 3000 random states, none degenerate or unbracketed.
    assert rows[0][1:5] == ["calls", "6000", "raised", "0"]
    # Alike modes, where the first point is the root: f(n), that point and at
    # most two more steps.
    assert rows[1][1:5] == ["calls", "600", "raised", "0"]
    assert int(rows[1][-1]) <= 4
