"""The benchmark's workloads: what one operation runs and the gates it passes.

Each workload imports debatekd only inside ``import_modules`` so that a fresh
interpreter can time exactly the imports and input building that workload
needs (``setup_s``). An operation is the unit that ``failed_frac`` counts:
one ``harness.run`` call for ``sweep`` and ``train``, one grid cell for
``mode-grid``. Gates use the acceptance suite's tolerances, never looser.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

LOG2 = math.log(2.0)
JSD_GRAD_CEILING = 0.25 + 2.0 / math.sqrt(math.e)


@dataclass
class Outcome:
    """What the checks found for one operation."""

    units: int
    digest: str
    failures: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One named workload. Subclasses fill in the class attributes below."""

    name = ""
    unit = ""  # what one work unit is
    size = 0  # work units per operation
    core = ("", "")  # (module, function) whose time units_per_s divides by

    def __init__(self, seed: int, size: int | None = None):
        self.seed = seed
        if size is not None:
            self.size = size

    def import_modules(self) -> None:
        raise NotImplementedError

    def build_inputs(self, out: Path) -> None:
        raise NotImplementedError

    def op(self, i: int):
        """The timed operation; returns whatever ``check`` needs."""
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        """Untimed output checks for operation ``i``."""
        raise NotImplementedError

    def digest_key(self, i: int):
        """Operations with equal keys must produce byte-identical output."""
        return None


class _HarnessWorkload(Workload):
    """A workload whose operation is one ``harness.run`` call."""

    experiment = ""

    def import_modules(self) -> None:
        from debatekd import harness
        from debatekd.divergence import jsd_kind

        self.harness = harness
        self.jsd_kind = jsd_kind

    def build_inputs(self, out: Path) -> None:
        self.out = Path(out)
        self.config = self.harness.RunConfig(
            experiment=self.experiment,
            kind=self.jsd_kind(0.5),
            iterations=self.size,
            seed=self.seed,
            out_dir=str(self.out),
            **self.config_extra(),
        )

    def config_extra(self) -> dict:
        return {}

    def op(self, i: int):
        return self.harness.run(self.config)

    def _status(self, status: int) -> list[str]:
        return [] if status == 0 else [f"harness.run returned exit status {status}"]


class Sweep(_HarnessWorkload):
    """``bounds``: fresh (p, q) pairs at |V| in 2..64, value and gradient each."""

    name = "sweep"
    unit = "pairs"
    size = 2000
    core = ("debatekd.harness", "jsd_bound_probe")
    experiment = "bounds"

    def check(self, i: int, status) -> Outcome:
        failures = self._status(status)
        report = json.loads((self.out / "bounds_report.json").read_text(encoding="utf-8"))
        failures += sweep_gates(report)
        return Outcome(self.size, sha256_file(self.out / "metrics.csv"), failures)


def sweep_gates(report: dict) -> list[str]:
    """Acceptance criteria c01-c03 on a bounds report."""
    failures = []
    max_loss = report["max_loss"]
    if not max_loss <= LOG2 + 1e-12:
        failures.append(f"max JSD loss {max_loss!r} exceeds log 2 + 1e-12")
    if not abs(max_loss - LOG2) <= 1e-9:
        failures.append(f"max JSD loss {max_loss!r} does not reach log 2 within 1e-9")
    if not report["max_inf_norm"] <= JSD_GRAD_CEILING + 1e-9:
        failures.append(f"JSD gradient inf-norm {report['max_inf_norm']!r} exceeds 1/4 + 2/sqrt(e)")
    if not report["max_fwd_inf_norm"] <= 1.0:
        failures.append(f"forward-KL gradient inf-norm {report['max_fwd_inf_norm']!r} exceeds 1")
    return failures


class Train(_HarnessWorkload):
    """``opad`` on the complementary fixture: K=2, R=2, jsd:0.5, max_steps=4."""

    name = "train"
    unit = "iterations"
    size = 200
    core = ("debatekd.training", "train")
    experiment = "opad"

    def config_extra(self) -> dict:
        return {"fixture": "complementary", "num_teachers": 2, "rounds": 2, "max_steps": 4}

    def build_inputs(self, out: Path) -> None:
        from debatekd.fixtures import build_fixture, teacher_standalone_accuracy

        super().build_inputs(out)
        fixture = build_fixture("complementary", revision_rate=self.config.revision_rate)
        self.best_teacher = max(
            teacher_standalone_accuracy(fixture, k) for k in range(len(fixture.teachers))
        )

    def check(self, i: int, status) -> Outcome:
        failures = self._status(status)
        summary = json.loads((self.out / "run.json").read_text(encoding="utf-8"))["summary"]
        failures += train_gates(summary, self.best_teacher)
        return Outcome(self.size, sha256_file(self.out / "metrics.csv"), failures)


def train_gates(summary: dict, best_teacher: float) -> list[str]:
    """No abort, and the student beats its best teacher by 0.2 (criterion c10)."""
    failures = []
    if summary.get("aborted") is not None:
        failures.append(f"training aborted: {summary['aborted']}")
    if not summary["final_accuracy"] >= best_teacher + 0.2:
        failures.append(
            f"final accuracy {summary['final_accuracy']} < best teacher {best_teacher} + 0.2"
        )
    return failures


#: The c07 grid, the same as scripts/run_mode_geometry.py: (alpha, separation).
GRID = tuple((alpha, sep) for alpha in (0.55, 0.6, 0.7) for sep in (6.0, 8.0, 12.0))


class ModeGrid(Workload):
    """``coverage_ordering`` on one cell of the c07 grid per operation.

    The seed is ignored: the gate holds on these fixed cells, and cells drawn
    at random could fail for reasons that are not defects.
    """

    name = "mode-grid"
    unit = "steps"
    size = 600  # descent steps per fit; a cell runs three fits
    core = ("debatekd.modes", "coverage_ordering")

    def import_modules(self) -> None:
        from debatekd import modes

        self.modes = modes

    def build_inputs(self, out: Path) -> None:
        self.teachers = [self.modes.BinnedMixture.two_mode(alpha=a, separation=s) for a, s in GRID]

    def op(self, i: int):
        return self.modes.coverage_ordering(self.teachers[i % len(GRID)], steps=self.size)

    def digest_key(self, i: int):
        return i % len(GRID)

    def check(self, i: int, results) -> Outcome:
        h = hashlib.sha256()
        for label in sorted(results):
            h.update(results[label].cost_series.tobytes())
            h.update(results[label].mode_masses.tobytes())
        units = sum(len(r.cost_series) - 1 for r in results.values())
        mu2 = {label: float(r.mode_masses[1]) for label, r in results.items()}
        return Outcome(units, h.hexdigest(), mode_gates(mu2, GRID[i % len(GRID)]))


def mode_gates(mu2: dict, cell) -> list[str]:
    """Criterion c07 on one cell: rev < jsd < fwd secondary mass, rev < 0.05."""
    rev, jsd, fwd = mu2["rev"], mu2["jsd:0.5"], mu2["fwd"]
    if rev < jsd < fwd and rev < 0.05:
        return []
    return [f"cell {cell}: secondary mass rev {rev!r}, jsd {jsd!r}, fwd {fwd!r} "
            "breaks rev < jsd < fwd with rev < 0.05"]


WORKLOADS = {w.name: w for w in (Sweep, Train, ModeGrid)}
