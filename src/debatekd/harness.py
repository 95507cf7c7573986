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
import math
import os
import sys
import tempfile
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


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


#: Value types accepted for each RunConfig field annotation; bools never pass.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "DivergenceKind": DivergenceKind}

#: The (lowest, highest) value of each numeric field, both inclusive. Every
#: value must also be finite.
_RANGES = {
    # run.json echoes every count, so each takes the seed's bound below
    "num_teachers": (1, 2**64 - 1),
    "rounds": (1, 2**64 - 1),
    "revision_rate": (0, 1),
    # A 100-point confidence spread is a weight-logit spread of 1/tau; past
    # the softmax ceiling the least confident teacher's weight underflows.
    "conf_temperature": (1 / _MAX_LOGIT_SPREAD, math.inf),
    "eps": (0, math.inf),
    "eta": (0, math.inf),
    "max_steps": (1, 2**64 - 1),
    # training and the bounds sweep preallocate their per-iteration records
    "iterations": (1, 10**6),
    # the master seed is one 64-bit unsigned word
    "seed": (0, 2**64 - 1),
}

#: (experiments, fields, largest product, field the message names): in those
#: experiments the product of the fields' values may not exceed the bound.
_PRODUCTS = (
    # opad records every step: what 10^6 iterations admit at max_steps 4
    (("opad",), ("iterations", "max_steps"), 4 * 10**6, "max_steps"),
    # opad records every teacher's weight per step: the bound above at K = 2
    (("opad",), ("iterations", "max_steps", "num_teachers"), 8 * 10**6, "num_teachers"),
    # run_debate keeps every round's responses and debate-demo writes each cell
    # to its transcripts; at the bound a default debate-demo takes 5 s, 10 MB
    (("opad", "debate-demo"), ("rounds", "num_teachers"), 10**4, "rounds"),
    # opad debates every step, each cell a teacher query: the bound above at R = 2
    (("opad",), ("iterations", "max_steps", "rounds", "num_teachers"), 16 * 10**6, "rounds"),
)


def _shown(value) -> str:
    """repr(value), or the bit length of an int past str()'s digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


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
                raise ConfigError(f"{f.name}: expected {f.type}, got {_shown(value)}")
            if f.name not in _RANGES:
                continue
            lo, hi = _RANGES[f.name]
            try:
                # ints compare exactly; NaN fails every comparison, inf the last
                number = value if f.type == "int" else float(value)
                usable = lo <= number <= hi and number < math.inf
            except OverflowError:
                usable = False
            if not usable:
                span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
                raise ConfigError(f"{f.name}: must be a finite number {span}, got {_shown(value)}")
        for experiments, names, largest, named in _PRODUCTS:
            values = [getattr(self, name) for name in names]
            if self.experiment in experiments and math.prod(values) > largest:
                raise ConfigError(f"{named}: {' * '.join(names)} must be at most {largest}, "
                                  f"got {' * '.join(map(_shown, values))}")
        from .fixtures import FIXTURES

        for name, choices in (("experiment", EXPERIMENTS), ("fixture", sorted(FIXTURES))):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name}: must be one of {choices}, got {getattr(self, name)!r}")
        if self.experiment not in ("opad", "debate-demo"):
            return
        if self.experiment == "debate-demo" and self.num_teachers > MAX_LETTERED_EXPERTS:
            raise ConfigError(f"num_teachers: debate-demo transcripts letter at most "
                              f"{MAX_LETTERED_EXPERTS} experts, got {self.num_teachers}")
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
        unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
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
            except ValueError as exc:  # not JSON, not UTF-8, or an int past 4300 digits
                raise ConfigError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
        if "config" in raw and isinstance(raw["config"], dict):
            raw = raw["config"]
        return RunConfig.from_dict({**raw, **(overrides or {})})


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
            rel = float(np.max(np.abs(fd[mask] - closed[mask]) / np.abs(closed[mask]), initial=0.0))
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
    unprobeable PID, blocks (a PID <= 0 probes this process group).

    The PID goes to a temporary file beside lock, which is then hard-linked
    to lock, so the lock never exists without its PID: a run stopped
    between the two steps leaves no lock behind to block the next one. It
    leaves the temporary file (lock's name plus a random suffix) instead,
    which blocks nothing and is never removed."""
    try:
        os.kill(max(int(lock.read_text(encoding="ascii")), 0), 0)
    except ProcessLookupError:
        lock.unlink(missing_ok=True)
    except (OSError, ValueError, OverflowError):
        pass
    fd, tmp = tempfile.mkstemp(prefix=lock.name + ".", dir=lock.parent)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as f:
            f.write(str(os.getpid()))
        os.link(tmp, lock)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
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
    lock = out / ".lock"
    try:
        out.mkdir(parents=True, exist_ok=True)
        acquired = _acquire_lock(lock)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        print(f"config error: out_dir: cannot use {out}: {reason}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not acquired:
        print(f"config error: out_dir: {out} is locked by a running experiment", file=sys.stderr)
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
