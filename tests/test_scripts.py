"""The scripts under scripts/ run to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/sweep_clustering.py", "--alphas", "0,0.5", "--taus", "0.3"],
    ["scripts/run_museum_demo.py"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
