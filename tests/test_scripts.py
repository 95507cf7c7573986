"""Smoke test: every experiment script runs to exit 0 on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_bounds.py", ["--trials", "50"]),
        ("run_stability_contrast.py", ["--iterations", "20"]),
        ("run_mode_geometry.py", ["--alphas", "0.6", "--separations", "8"]),
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    # scripts write under runs/ relative to the working directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
