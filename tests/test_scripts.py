"""Smoke tests for the experiment scripts: each runs to completion and
prints its header, so an API change they depend on fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args, header", [
    ("pointer_convergence.py", ["--steps", "2"],
     f"{'epsilon':>12}  {'max |est - exact|':>18}  {'ratio to previous':>18}"),
    ("robustness_sweep.py", ["--trials", "2"], "delta,k,worst_deviation,bound"),
])
def test_script_runs(script, args, header):
    run = run_script(script, args)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_sweep_rejects_negative_trials():
    run = run_script("robustness_sweep.py", ["--trials", "-1"])
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.splitlines() == [
        "robustness_sweep.py: error: trials must be non-negative, got -1"]


BAD_INPUT = [
    ("robustness_sweep.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
    ("robustness_sweep.py", ["--state-seed", "-1"], "--state-seed must be non-negative, got -1"),
    ("pointer_convergence.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
    ("pointer_convergence.py", ["--steps", "-1"], "--steps must be non-negative, got -1"),
    ("pointer_convergence.py", ["--epsilon", "0"], "readout needs epsilon > 0"),
    ("pointer_convergence.py", ["--epsilon", "nan"], "epsilon must be in [0, 0.1], got nan"),
]


@pytest.mark.parametrize("script, args, message", BAD_INPUT,
                         ids=[" ".join([script, *args]) for script, args, _ in BAD_INPUT])
def test_script_rejects_bad_input(script, args, message):
    # one error line and no traceback, before anything is printed
    run = run_script(script, args)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.splitlines() == [f"{script}: error: {message}"]
