"""Smoke test: every experiment script runs to exit 0 on a small input, and
ends a bad input in one `config error: ...` line and exit 1."""

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
    proc = run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "script, args, problem",
    [
        ("run_bounds.py", ["--trials", "0"], "iterations: "),
        ("run_bounds.py", ["--seed", "-1"], "seed: "),
        ("run_stability_contrast.py", ["--iterations", "0"], "iterations: "),
        ("run_mode_geometry.py", ["--alphas", "1.5", "--separations", "8"],
         "alpha 1.5, separation 8.0: "),
        # usage errors take the same exit, not argparse's 2 (the numeric-abort code)
        ("run_bounds.py", ["--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        ("run_stability_contrast.py", ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ("run_mode_geometry.py", ["--alphas", "x"], "argument --alphas: invalid float value: 'x'"),
    ],
    ids=["no-trials", "negative-seed", "no-iterations", "alpha-above-one",
         "trials-not-int", "unknown-flag", "alphas-not-float"],
)
def test_bad_input_is_config_error(tmp_path, script, args, problem):
    proc = run_script(tmp_path, script, args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"config error: {problem}") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []  # nothing ran


def run_script(cwd, script, args):
    # scripts write under runs/ relative to the working directory; a leaked
    # RuntimeWarning fails the script as it fails an in-process test
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


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
