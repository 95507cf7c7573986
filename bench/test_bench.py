"""Tests of the benchmark itself: smoke runs, gates, self time and trace counts."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from bench import run
from bench.spans import LAYER_UNITS, Tracer
from bench.workloads import (
    LOG2,
    WORKLOADS,
    Outcome,
    Sweep,
    mode_gates,
    sweep_gates,
    train_gates,
)

DECLARED = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))

#: Operation sizes small enough for a test yet large enough to pass the gates.
TINY = {"sweep": 50, "train": 100, "mode-grid": None}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric_with_its_unit(name, capsys):
    argv = ["--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv, size=TINY[name]) == 0
    *report, last = capsys.readouterr().out.strip().split("\n")
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(report)
    for metric, unit in [*expected.items(), ("failed_frac", "operations")]:
        assert any(line.startswith(metric) and unit in line for line in report), metric
    assert "seed=0" in text and "numpy=" in text and "scipy=" in text and "nproc=" in text


GOOD_BOUNDS = {"max_loss": LOG2, "max_inf_norm": 1.2, "max_fwd_inf_norm": 0.9}


@pytest.mark.parametrize("gate, good, bad", [
    (sweep_gates, GOOD_BOUNDS, dict(GOOD_BOUNDS, max_loss=LOG2 + 1e-11)),
    (sweep_gates, GOOD_BOUNDS, dict(GOOD_BOUNDS, max_loss=LOG2 - 1e-8)),
    (sweep_gates, GOOD_BOUNDS, dict(GOOD_BOUNDS, max_inf_norm=0.25 + 2 / math.sqrt(math.e) + 1e-8)),
    (sweep_gates, GOOD_BOUNDS, dict(GOOD_BOUNDS, max_fwd_inf_norm=1.0 + 1e-12)),
    (lambda s: train_gates(s, 0.5), {"final_accuracy": 0.7, "aborted": None},
     {"final_accuracy": 0.69, "aborted": None}),
    (lambda s: train_gates(s, 0.5), {"final_accuracy": 0.7, "aborted": None},
     {"final_accuracy": 1.0, "aborted": {"iteration": 3, "step": 1}}),
    (lambda m: mode_gates(m, (0.6, 8.0)), {"rev": 0.01, "jsd:0.5": 0.2, "fwd": 0.4},
     {"rev": 0.2, "jsd:0.5": 0.2, "fwd": 0.4}),
    (lambda m: mode_gates(m, (0.6, 8.0)), {"rev": 0.01, "jsd:0.5": 0.2, "fwd": 0.4},
     {"rev": 0.05, "jsd:0.5": 0.2, "fwd": 0.4}),
])
def test_gates_reject_doctored_results(gate, good, bad):
    assert gate(good) == []
    assert gate(bad)


class _DoctoredSweep(Sweep):
    """Raises the reported JSD loss above log 2 after each real run."""

    def op(self, i):
        status = super().op(i)
        path = self.out / "bounds_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["max_loss"] = 0.7
        path.write_text(json.dumps(report), encoding="utf-8")
        return status


class _DriftingSweep(Sweep):
    """Reports a different output digest on every operation."""

    def check(self, i, status):
        return Outcome(self.size, f"digest-{i}")


@pytest.mark.parametrize("cls, failed", [(Sweep, 0), (_DoctoredSweep, 3), (_DriftingSweep, 2)])
def test_doctored_results_raise_failed_frac(cls, failed, tmp_path):
    workload = cls(0, 20)
    workload.import_modules()
    workload.build_inputs(tmp_path)
    tally = run.Tally()
    for i in range(3):
        run.execute(workload, i, tally)
    assert (tally.attempted, tally.failed) == (3, failed)
    assert tally.failed_frac == failed / 3


def test_self_time_on_a_hand_built_span_tree():
    t = Tracer()
    root = t.add("a.root", 0.0, 10.0)
    child = t.add("b.child", 1.0, 3.0, parent=root)
    t.add("c.grandchild", 1.5, 2.5, parent=child)
    t.add("b.child", 2.0, 4.0, parent=root)  # overlaps the first child
    t.add("b.child", 9.0, 12.0, parent=root)  # ends after its parent
    # root: children cover [1, 4] and [9, 10]; the grandchild only its parent.
    assert t.self_times() == pytest.approx([6.0, 1.0, 1.0, 2.0, 3.0])


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(20))) is None
    p, value = run.tail(list(range(30)))
    assert p == 66 and sum(v > value for v in range(30)) == 10


def _traced_counts(name: str, size, tmp_path) -> tuple[dict, run.Tally]:
    workload = WORKLOADS[name](1, size)
    workload.import_modules()
    workload.build_inputs(tmp_path)
    tally = run.Tally()
    metrics = run.traced_run(workload, 0.01, tally, run.Setup(workload, tmp_path))["metrics"]
    counts = {k: v for k, v in metrics.items() if LAYER_UNITS.get(k) in ("count", "ratio", "B")}
    return counts, tally


def test_traced_counts_repeat_exactly_and_match_the_train_loop(tmp_path):
    first, tally = _traced_counts("train", 100, tmp_path)
    second, _ = _traced_counts("train", 100, tmp_path)
    assert first == second
    assert tally.failed == 0
    assert first["debate.debates"] == 4 * 100
    assert first["debate.teacher_queries"] == 4 * first["debate.debates"]
    assert first["weighting.token_loss_calls"] == 2 * first["debate.debates"]
    assert first["divergence.grad_calls"] == 2 * first["weighting.token_loss_calls"]
    assert first["debate.reuse_ratio"] == 10 / first["debate.debates"]

    import debatekd.debate
    import debatekd.training

    assert debatekd.training.run_debate is debatekd.debate.run_debate
    assert not hasattr(debatekd.debate.run_debate, "__wrapped__")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
