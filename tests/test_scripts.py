"""Smoke test: every experiment script runs to exit 0 on a small input."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


@pytest.mark.parametrize(
    "mu2, status",
    [
        ({"rev": 0.01, "jsd:0.5": 0.2, "fwd": 0.4}, 0),
        ({"rev": 0.06, "jsd:0.5": 0.2, "fwd": 0.4}, 1),  # ordered, but rev is not below 0.05
        ({"rev": 0.01, "jsd:0.5": 0.4, "fwd": 0.2}, 1),
    ],
    ids=["passes", "rev-above-0.05", "unordered"],
)
def test_mode_geometry_applies_the_full_c07_criterion(monkeypatch, capsys, mu2, status):
    spec = importlib.util.spec_from_file_location(
        "run_mode_geometry", ROOT / "scripts" / "run_mode_geometry.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    doctored = {kind: SimpleNamespace(mode_masses=[1 - mass, mass], terminal_cost=0.5)
                for kind, mass in mu2.items()}
    monkeypatch.setattr(script, "coverage_ordering", lambda teacher: doctored)
    monkeypatch.setattr(sys, "argv", ["run_mode_geometry.py", "--alphas", "0.6",
                                      "--separations", "8"])
    assert script.main() == status
    row = capsys.readouterr().out.splitlines()[1]
    assert row.endswith("yes" if status == 0 else "NO")
