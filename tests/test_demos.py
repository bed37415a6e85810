"""Smoke test: the demo scripts run to completion and print something.

Each demo runs as a separate process with ``src`` prepended to
PYTHONPATH, so the package need not be installed.  Each takes about
2 s or less on a 2-core machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_stable_oscillator_regions.py",
    "02_truncation_error_sweep.py",
    "03_conservative_toy.py",
    "04_forest_diagonalization.py",
    "05_oscillator_network.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
