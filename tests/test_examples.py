"""Smoke tests: every example script must run to completion.

Examples are documentation that executes; these tests keep them from
rotting as the library evolves.  Each runs in a subprocess from the
repository root.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 4  # quickstart + at least three scenarios


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_cleanly(script: Path):
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_quickstart_output_shows_convergence():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "server-A" in result.stdout
    assert "12" in result.stdout  # the converged counter
