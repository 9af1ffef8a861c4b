"""Smoke tests of ``tools/same_outputs.py``, the outputs-unchanged check, and
of the checkout loader it shares with ``tools/solver_evals.py``."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = (
    "scans", "verdicts", "state-file CLI", "scenario CLI", "usage CLI", "sample CLI", "solver",
    "oracle", "local ops", "near vacuum", "decisions", "total",
)


def test_prints_one_digest_per_section():
    # Every section reads the library as a caller would (verdict fields,
    # transforms, certificates, CLI text), so a refactor that breaks one of
    # those reads fails here.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.partition(": ")[0] for line in lines] == list(SECTIONS)
    for line in lines:
        assert re.fullmatch(r"[a-zA-Z -]+: [0-9a-f]{64}", line), line


@pytest.mark.parametrize("tool", ["same_outputs.py", "solver_evals.py"])
@pytest.mark.parametrize("args", [[], ["src", "src"]], ids=["no-argument", "two-arguments"])
def test_usage_exits_64(tool, args):
    # Both tools read their one SRC_DIR argument through the same loader.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (64, "")
    assert done.stderr == f"usage: python3 tools/{tool} SRC_DIR\n"


def test_tools_run_without_the_test_extra():
    # pytest and hypothesis are the `test` extra; the tools must not need them.
    script = "\n".join([
        "import sys",
        "sys.modules['pytest'] = sys.modules['hypothesis'] = None",
        f"sys.path.insert(0, {str(ROOT / 'tools')!r})",
        "import same_outputs, solver_evals",
        "same_outputs.util()",
        f"sys.exit(solver_evals.main([{str(ROOT / 'src')!r}]))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.splitlines()[-1].split()[0] == "all"
