"""Smoke tests for the experiment scripts: each runs to completion and
prints its header, so an API change they depend on fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("pointer_convergence.py", ["--steps", "2"],
     f"{'epsilon':>12}  {'max |est - exact|':>18}  {'ratio to previous':>18}"),
    ("robustness_sweep.py", ["--trials", "2"], "delta,k,worst_deviation,bound"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
