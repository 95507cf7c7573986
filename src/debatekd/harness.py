"""Reproducible named runs: config, seeding, metric emission, EMA smoothing.

A run is one experiment executed under one RunConfig into one output
directory. Reruns with the same config and seed produce byte-identical
metrics.csv files: all randomness flows through labeled streams derived
from the master seed, and CSV floats use the shortest round-trip
representation. Nothing is ever written outside the output directory.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .debate import MAX_LETTERED_EXPERTS
from .divergence import (
    DivergenceKind,
    jsd_bound_probe,
    jsd_kind,
    parse_kind,
    revkl_unboundedness_probe,
)
from .simplex import _MAX_LOGIT_SPREAD, DEFAULT_FLOOR, RngSeed

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NUMERIC_ABORT = 2


#: Largest `iterations`: training and the bounds sweep preallocate their
#: per-iteration records, so a larger count is refused before the run starts.
_MAX_ITERATIONS = 10**6
#: Largest `iterations * max_steps` of an opad run, whose record is per step:
#: the most that `_MAX_ITERATIONS` admits at the default `max_steps` of 4.
_MAX_TRAIN_STEPS = 4 * _MAX_ITERATIONS
#: Largest `iterations * max_steps * num_teachers` of an opad run, which
#: records every teacher's weight per step: `_MAX_TRAIN_STEPS` at two teachers.
_MAX_TEACHER_STEPS = 2 * _MAX_TRAIN_STEPS


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


#: Value types accepted for each RunConfig field annotation; bools never pass.
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


@dataclass
class RunConfig:
    """Flat configuration for one named run.

    For bounds and gradcheck, `iterations` counts probe trials / oracle
    cases; for opad it counts outer training iterations. `fixture` selects
    the mock scenario of an opad or debate-demo run; its builder receives
    the fields its signature names.
    """

    experiment: str
    kind: DivergenceKind = field(default_factory=lambda: jsd_kind(0.5))
    num_teachers: int = 2
    rounds: int = 2
    revision_rate: float = 0.5
    conf_temperature: float = 1.0
    eps: float = DEFAULT_FLOOR
    eta: float = 0.1
    max_steps: int = 4
    iterations: int = 500
    seed: int = 0
    out_dir: str = "runs/out"
    fixture: str = "complementary"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types = _FIELD_TYPES.get(f.type)
            if types and (isinstance(value, bool) or not isinstance(value, types)):
                raise ConfigError(f"{f.name}: expected {f.type}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if not isinstance(self.kind, DivergenceKind):
            raise ConfigError("kind must be a DivergenceKind")
        for name in ("num_teachers", "rounds", "max_steps", "iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.iterations > _MAX_ITERATIONS:
            raise ConfigError(f"iterations: must be at most {_MAX_ITERATIONS}, got {self.iterations}")
        if not 0 <= self.revision_rate <= 1:
            raise ConfigError(f"revision_rate must lie in [0, 1], got {self.revision_rate}")
        # A 100-point confidence spread is a weight-logit spread of 1/tau; past
        # the softmax ceiling the least confident teacher's weight underflows.
        if not self.conf_temperature >= 1.0 / _MAX_LOGIT_SPREAD:
            raise ConfigError(
                f"conf_temperature: must be at least 1/{_MAX_LOGIT_SPREAD:g} so that every "
                f"teacher weight stays positive, got {self.conf_temperature}"
            )
        if not self.eps >= 0:
            raise ConfigError(f"eps must be non-negative, got {self.eps}")
        if not self.eta >= 0:
            raise ConfigError(f"eta must be non-negative, got {self.eta}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        from .fixtures import FIXTURES

        if self.fixture not in FIXTURES:
            raise ConfigError(f"fixture must be one of {sorted(FIXTURES)}, got {self.fixture!r}")
        if self.experiment not in ("opad", "debate-demo"):
            return
        if self.experiment == "debate-demo" and self.num_teachers > MAX_LETTERED_EXPERTS:
            raise ConfigError(f"num_teachers: debate-demo transcripts letter at most "
                              f"{MAX_LETTERED_EXPERTS} experts, got {self.num_teachers}")
        steps = self.iterations * self.max_steps
        if self.experiment == "opad" and steps > _MAX_TRAIN_STEPS:
            raise ConfigError(f"max_steps: iterations * max_steps must be at most "
                              f"{_MAX_TRAIN_STEPS}, got {self.iterations} * {self.max_steps}")
        if self.experiment == "opad" and steps * self.num_teachers > _MAX_TEACHER_STEPS:
            raise ConfigError(f"num_teachers: iterations * max_steps * num_teachers must be at "
                              f"most {_MAX_TEACHER_STEPS}, got {steps} * {self.num_teachers}")
        world = self.build_fixture().world
        if self.experiment == "opad":
            limit = 1.0 / max(world.n_tools, world.n_args)
            if not self.eps < limit:
                raise ConfigError(f"eps: must lie below 1/|V| = {limit} for the tool and arg "
                                  f"vocabularies of fixture {self.fixture!r}, got {self.eps}")
            try:
                self.train_config()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def build_fixture(self):
        """The run's fixture, built from the fields its builder declares."""
        from .fixtures import FIXTURES, build_fixture

        declared = inspect.signature(FIXTURES[self.fixture]).parameters
        kwargs = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                  if f.name in declared}
        fixture = build_fixture(self.fixture, **kwargs)
        if len(fixture.teachers) != self.num_teachers:
            raise ConfigError(
                f"num_teachers: fixture {self.fixture!r} provides {len(fixture.teachers)} "
                f"teachers, config asks for {self.num_teachers}"
            )
        return fixture

    def train_config(self):
        """The training hyperparameters of an opad run."""
        from .training import TrainConfig

        return TrainConfig(
            kind=self.kind,
            rounds=self.rounds,
            iterations=self.iterations,
            eta=self.eta,
            eps=self.eps,
            tau_conf=self.conf_temperature,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["kind"] = str(self.kind)
        return d

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        raw = dict(raw)
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config is missing the required field 'experiment'")
        if isinstance(raw.get("kind"), str):
            try:
                raw["kind"] = parse_kind(raw["kind"])
            except ValueError as exc:
                raise ConfigError(f"kind: {exc}")
        return RunConfig(**raw)

    @staticmethod
    def from_file(path: str | Path, overrides: dict | None = None) -> "RunConfig":
        """Load a JSON config; a run.json artifact is accepted directly."""
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
        if "config" in raw and isinstance(raw["config"], dict):
            raw = raw["config"]
        if overrides:
            raw.update(overrides)
        return RunConfig.from_dict(raw)


def ema(y, alpha: float = 0.15) -> np.ndarray:
    """Exponential moving average of y: s_0 = y_0 and
    s_t = alpha*y_t + (1-alpha)*s_{t-1} exactly."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("cannot smooth an empty series")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    s = np.empty_like(y)
    s[0] = y[0]
    for t in range(1, y.size):
        s[t] = alpha * y[t] + (1 - alpha) * s[t - 1]
    return s


def _fmt(value) -> str:
    """Shortest round-trip text for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_stats(series: np.ndarray) -> dict:
    return {
        "count": int(series.size),
        "max": float(series.max()),
        "median": float(np.median(series)),
        "mean": float(series.mean()),
        "final": float(series[-1]),
    }


def _run_bounds(config: RunConfig, out: Path) -> dict:
    rng = RngSeed(config.seed).stream("probes")
    vocab_sizes = list(range(2, 65))
    report = jsd_bound_probe(config.iterations, vocab_sizes, rng, beta=config.kind.beta)
    deltas = [0.5, 1e-2, 1e-6, 1e-12, 1e-30, 1e-100]
    rev = revkl_unboundedness_probe(deltas)
    (out / "bounds_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    _write_json(out / "revkl_report.json", {repr(d): rev[d] for d in deltas})
    rows = [("jsd", report.beta, report.n_trials, report.max_loss, report.max_inf_norm)]
    rows += [("rev-witness", d, 1, float("nan"), rev[d]) for d in deltas]
    write_csv(out / "metrics.csv", ["probe", "param", "n", "max_loss", "max_inf_norm"], rows)
    return {
        "max_loss": report.max_loss,
        "max_inf_norm": report.max_inf_norm,
        "rev_inf_norms": {repr(d): rev[d] for d in deltas},
    }


def _run_gradcheck(config: RunConfig, out: Path) -> dict:
    from .divergence import (
        FORWARD_KL,
        REVERSE_KL,
        finite_difference_gradient,
        logit_gradient,
    )
    from .simplex import Distribution, LogitVector

    rng = RngSeed(config.seed).stream("probes")
    rows = []
    worst: dict[str, float] = {}
    for kind in (FORWARD_KL, REVERSE_KL, jsd_kind(config.kind.beta)):
        worst[str(kind)] = 0.0
        for case in range(config.iterations):
            vocab = int(rng.integers(2, 65))
            probs = np.maximum(rng.dirichlet(np.full(vocab, 1.0)), 1e-6)
            p = Distribution(probs / probs.sum())
            z = LogitVector(rng.normal(0.0, 2.0, vocab))
            closed = logit_gradient(kind, p, z).logit_grad
            fd = finite_difference_gradient(kind, p, z, h=1e-6)
            mask = (np.abs(closed) > 1e-6) & np.isfinite(fd)
            if mask.any():
                rel = float(
                    np.max(np.abs(fd[mask] - closed[mask]) / np.abs(closed[mask]))
                )
            else:
                rel = 0.0
            worst[str(kind)] = max(worst[str(kind)], rel)
            rows.append((case, str(kind), vocab, rel))
    write_csv(out / "metrics.csv", ["case", "kind", "vocab", "max_rel_err"], rows)
    _write_json(out / "gradcheck_report.json", {"worst_rel_err": worst})
    return {"worst_rel_err": worst}


def _run_modes(config: RunConfig, out: Path) -> dict:
    from .modes import BinnedMixture, coverage_ordering

    teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
    results = coverage_ordering(teacher)
    rows = []
    report = {}
    for kind_label, res in results.items():
        for step, cost in enumerate(res.cost_series):
            mean, log_width = res.param_trace[step]
            rows.append((kind_label, step, float(cost), float(mean), float(log_width)))
        report[kind_label] = {
            "terminal_cost": res.terminal_cost,
            "mode_masses": res.mode_masses.tolist(),
            "mean": res.student.mean,
            "width": res.student.width,
            "param_trace": res.param_trace.tolist(),
        }
    write_csv(out / "metrics.csv", ["kind", "step", "cost", "mean", "log_width"], rows)
    _write_json(out / "modes_report.json", report)
    return {k: {kk: vv for kk, vv in v.items() if kk != "param_trace"} for k, v in report.items()}


def _run_debate_demo(config: RunConfig, out: Path) -> dict:
    from .debate import run_debate, serialize_transcript, transcript_to_jsonl
    from .fixtures import teacher_standalone_accuracy
    from .weighting import ConfidenceScores, confidence_to_weights

    fixture = config.build_fixture()
    world = fixture.world
    teachers = list(fixture.teachers)
    rows = []
    jsonl_blocks = []
    consensus_hits = 0
    for state in range(world.n_states):
        result = run_debate(teachers, state, config.rounds)
        w = confidence_to_weights(ConfidenceScores(result.confidences, config.conf_temperature))
        mix = np.zeros(world.joint_vocab)
        for wk, dist in zip(w.weights, result.post_dists):
            mix += wk * dist.probs
        decoded = world.unflatten(int(np.argmax(mix)))
        correct = decoded in world.accepted(state)
        consensus_hits += correct
        rows.append((state, *[float(c) for c in result.confidences], correct))
        jsonl_blocks.append(transcript_to_jsonl(result.transcript))
        if state == 0:
            (out / "transcript.txt").write_text(
                serialize_transcript(result.transcript) + "\n", encoding="utf-8"
            )
    (out / "transcripts.jsonl").write_text("\n".join(jsonl_blocks) + "\n", encoding="utf-8")
    k = len(teachers)
    header = ["state", *[f"confidence_{i}" for i in range(k)], "consensus_correct"]
    write_csv(out / "metrics.csv", header, rows)
    standalone = [teacher_standalone_accuracy(fixture, i) for i in range(k)]
    report = {
        "fixture": config.fixture,
        "teacher_standalone_accuracy": standalone,
        "consensus_accuracy": consensus_hits / world.n_states,
    }
    _write_json(out / "debate_report.json", report)
    return report


def _run_opad(config: RunConfig, out: Path) -> dict:
    from .training import train

    fixture = config.build_fixture()
    world = fixture.world
    if config.max_steps != world.max_steps:
        world = dataclasses.replace(world, max_steps=config.max_steps)
    result = train(world, list(fixture.teachers), config.train_config())
    rows = [
        (*i, str(config.kind), loss, result.token_grad_inf[i], result.accuracy_series[i[0]])
        for i, loss in np.ndenumerate(result.token_loss)
    ]
    write_csv(
        out / "metrics.csv", ["iter", "step", "token", "kind", "loss", "grad_inf", "acc"], rows
    )
    per_step = result.token_loss.mean(axis=-1)
    summary = {
        "final_accuracy": result.final_accuracy,
        "loss": _summary_stats(result.loss_series),
        "loss_ema_final": float(ema(result.loss_series, alpha=0.15)[-1]),
        "per_step_loss_max": float(per_step.max()),
        "per_step_loss_median": float(np.median(per_step)),
        "spike_ratio": float(per_step.max() / np.median(per_step)),
        "max_grad_inf_norm": float(result.token_grad_inf.max()),
        "aborted": result.aborted,
    }
    _write_json(out / "train_report.json", summary)
    return summary


def _acquire_lock(lock: Path) -> bool:
    """Create lock holding this process's PID. A lock naming a PID that no
    longer exists is reclaimed; an empty or unreadable lock, or a live or
    unprobeable PID, blocks (a PID <= 0 probes this process group)."""
    try:
        os.kill(max(int(lock.read_text(encoding="ascii")), 0), 0)
    except ProcessLookupError:
        lock.unlink(missing_ok=True)
    except (OSError, ValueError, OverflowError):
        pass
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


_RUNNERS = {
    "bounds": _run_bounds,
    "gradcheck": _run_gradcheck,
    "modes": _run_modes,
    "debate-demo": _run_debate_demo,
    "opad": _run_opad,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config: RunConfig) -> int:
    """Execute one run; returns the process exit status.

    Creates the output directory with run.json (config echo, versions,
    seed, summary), metrics.csv, and experiment-specific reports. A lock
    file holding the run's PID guards against two concurrent runs sharing a
    directory; a lock left by a process that no longer exists is reclaimed.
    """
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: out_dir: cannot create {out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    lock = out / ".lock"
    if not _acquire_lock(lock):
        print(f"config error: output directory {out} is locked by a running experiment",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        summary = _RUNNERS[config.experiment](config, out)
        abort = summary.get("aborted")
        payload = {
            "config": config.to_dict(),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "debatekd": __version__,
            },
            "seed": config.seed,
            "summary": summary,
        }
        if abort is not None:
            payload["abort"] = abort
        _write_json(out / "run.json", payload)
    finally:
        lock.unlink(missing_ok=True)
    return EXIT_OK if abort is None else EXIT_NUMERIC_ABORT
