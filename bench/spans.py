"""In-memory span recorder that wraps debatekd's public functions from outside.

A span records a name, a start, an end, its parent span and a repetition id.
Spans live in flat arrays while the benchmark runs and are written out once
it ends. A wrapper replaces a function in *every* debatekd module that holds
it, because several modules bind names such as ``logit_gradient`` or
``run_debate`` at import; patching only the defining module would miss those
call sites. Methods are patched on their class. Nothing under src/ changes.
"""

from __future__ import annotations

import math
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: (defining module, attribute, span name). A dotted attribute is a method.
#: The span name's prefix before the first dot is the layer.
TARGETS = (
    ("debatekd.simplex", "Distribution.__post_init__", "simplex.distribution"),
    ("debatekd.simplex", "LogitVector.__post_init__", "simplex.logits"),
    ("debatekd.simplex", "softmax", "simplex.softmax"),
    ("debatekd.divergence", "divergence_value", "divergence.value"),
    ("debatekd.divergence", "logit_gradient", "divergence.grad"),
    ("debatekd.divergence", "jsd_bound_probe", "divergence.probe"),
    ("debatekd.divergence", "revkl_unboundedness_probe", "divergence.revkl_probe"),
    ("debatekd.weighting", "multi_teacher_token_loss", "weighting.token_loss"),
    ("debatekd.weighting", "confidence_to_weights", "weighting.weights"),
    ("debatekd.debate", "run_debate", "debate.debate"),
    ("debatekd.debate", "MockTeacher.respond", "debate.respond"),
    ("debatekd.training", "train", "training.train"),
    ("debatekd.training", "rollout", "training.rollout"),
    ("debatekd.training", "step_token_losses", "training.loss"),
    ("debatekd.training", "force_decode_targets", "training.target"),
    ("debatekd.training", "task_accuracy", "training.acc_eval"),
    ("debatekd.modes", "coverage_ordering", "modes.coverage"),
    ("debatekd.modes", "fit", "modes.fit"),
    ("debatekd.modes", "RestrictedStudent.distribution", "modes.student_dist"),
    ("debatekd.fixtures", "build_fixture", "fixtures.build"),
    ("debatekd.harness", "run", "harness.run"),
    ("debatekd.harness", "write_csv", "harness.write_csv"),
    ("debatekd.harness", "_write_json", "harness.write_json"),
)


def _nonfinite_value(tracer, args, result):
    if not math.isfinite(result):
        tracer.count("divergence.nonfinite")


def _nonfinite_grad(tracer, args, result):
    if not result.is_finite:
        tracer.count("divergence.nonfinite")


def _debate_key(tracer, args, result):
    # run_debate(teachers, state, rounds): the debate depends on (state, rounds).
    tracer.keys[(tracer.rep, "debate")].add((args[1], args[2]))


def _probe_pairs(tracer, args, result):
    tracer.count("divergence.pairs", result.n_trials)


def _train_iterations(tracer, args, result):
    tracer.count("training.iterations", len(result.loss_series))


def _fit_steps(tracer, args, result):
    tracer.count("modes.steps", len(result.cost_series) - 1)


def _csv_bytes(tracer, args, result):
    tracer.count("harness.csv_bytes", Path(args[0]).stat().st_size)


#: Counters read off a call's positional arguments or result, by span name.
HOOKS = {
    "divergence.value": _nonfinite_value,
    "divergence.grad": _nonfinite_grad,
    "divergence.probe": _probe_pairs,
    "debate.debate": _debate_key,
    "training.train": _train_iterations,
    "modes.fit": _fit_steps,
    "harness.write_csv": _csv_bytes,
}


class Tracer:
    """Flat, append-only span store plus per-repetition counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.reps = array("i")
        self.rep = 0
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.keys: dict[tuple[int, str], set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.reps.append(self.rep)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1, rep: int = 0) -> int:
        """Record a finished span directly (for hand-built span trees)."""
        idx = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.reps.append(rep)
        self.start.append(start)
        self.end.append(end)
        return idx

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[(self.rep, counter)] += n

    def wrap(self, fn, span_name: str):
        name_id = self.name_id(span_name)
        hook = HOOKS.get(span_name)

        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target whose module is already imported.

        Modules the workload never imported are skipped, so tracing does not
        add imports of its own.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "debatekd" or name.startswith("debatekd."))]
        for module_name, attr, span_name in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(original, span_name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span_name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i in range(len(self.end)):
            lo_i, hi_i = self.start[i], self.end[i]
            covered = 0.0
            cursor = lo_i
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo = max(self.start[c], cursor)
                hi = min(self.end[c], hi_i)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((hi_i - lo_i) - covered)
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV, times in ns from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,rep\n")
            for i in range(len(self.end)):
                fh.write(f"{i},{self.names[self.name[i]]},{round((self.start[i] - t0) * 1e9)},"
                         f"{round((self.end[i] - t0) * 1e9)},{self.parent[i]},{self.reps[i]}\n")


def _median(values, pick=statistics.median) -> float:
    values = list(values)
    return pick(values) if values else 0.0


#: Per-layer metrics of the traced run, with units. Counts and totals are per
#: operation (median over the traced operations); ``_us`` values are
#: per-call medians. A layer a workload never enters reads 0.
LAYER_UNITS = {
    "simplex.distribution_calls": "count",
    "simplex.distribution_us": "us",
    "simplex.logits_calls": "count",
    "simplex.logits_us": "us",
    "simplex.softmax_calls": "count",
    "simplex.softmax_us": "us",
    "simplex.self_s": "s",
    "divergence.value_calls": "count",
    "divergence.value_us": "us",
    "divergence.grad_calls": "count",
    "divergence.grad_us": "us",
    "divergence.nonfinite": "count",
    "divergence.pair_us": "us",
    "divergence.probe_self_s": "s",
    "divergence.self_s": "s",
    "weighting.token_loss_calls": "count",
    "weighting.token_loss_us": "us",
    "weighting.weights_calls": "count",
    "weighting.self_s": "s",
    "debate.debates": "count",
    "debate.debate_us": "us",
    "debate.teacher_queries": "count",
    "debate.reuse_ratio": "ratio",
    "debate.self_s": "s",
    "training.iter_us": "us",
    "training.rollout_s": "s",
    "training.target_s": "s",
    "training.loss_s": "s",
    "training.update_s": "s",
    "training.acc_eval_s": "s",
    "modes.fits": "count",
    "modes.fit_s": "s",
    "modes.step_us": "us",
    "modes.cost_evals_per_step": "1/step",
    "modes.student_dist_us": "us",
    "modes.self_s": "s",
    "harness.self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "B",
    "fixtures.build_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans to the metrics named in LAYER_UNITS."""
    selfs = tracer.self_times()
    reps = sorted(set(tracer.reps))
    names = tracer.names
    calls: dict[tuple[int, str], int] = defaultdict(int)
    incl: dict[tuple[int, str], float] = defaultdict(float)
    excl: dict[tuple[int, str], float] = defaultdict(float)
    layer_self: dict[tuple[int, str], float] = defaultdict(float)
    per_call: dict[str, list[float]] = defaultdict(list)
    evals_in_fit: dict[int, int] = defaultdict(int)
    for i in range(len(tracer.end)):
        name, rep = names[tracer.name[i]], tracer.reps[i]
        dur = tracer.end[i] - tracer.start[i]
        calls[(rep, name)] += 1
        incl[(rep, name)] += dur
        excl[(rep, name)] += selfs[i]
        layer_self[(rep, name.split(".")[0])] += selfs[i]
        per_call[name].append(dur)
        parent = tracer.parent[i]
        if name == "divergence.value" and parent >= 0 and names[tracer.name[parent]] == "modes.fit":
            evals_in_fit[rep] += 1

    def per_op(fn) -> float:
        return _median(fn(r) for r in reps)

    def n(name: str) -> int:
        return _median((calls[(r, name)] for r in reps), statistics.median_low)

    def us(name: str) -> float:
        return _median(per_call[name]) * 1e6

    def counter(name: str) -> int:
        return _median((tracer.counters[(r, name)] for r in reps), statistics.median_low)

    def ratio(num, den) -> float:
        return per_op(lambda r: num(r) / den(r) if den(r) else 0.0)

    out = {
        "simplex.distribution_calls": n("simplex.distribution"),
        "simplex.distribution_us": us("simplex.distribution"),
        "simplex.logits_calls": n("simplex.logits"),
        "simplex.logits_us": us("simplex.logits"),
        "simplex.softmax_calls": n("simplex.softmax"),
        "simplex.softmax_us": us("simplex.softmax"),
        "divergence.value_calls": n("divergence.value"),
        "divergence.value_us": us("divergence.value"),
        "divergence.grad_calls": n("divergence.grad"),
        "divergence.grad_us": us("divergence.grad"),
        "divergence.nonfinite": counter("divergence.nonfinite"),
        "divergence.pair_us": 1e6 * ratio(lambda r: incl[(r, "divergence.probe")],
                                          lambda r: tracer.counters[(r, "divergence.pairs")]),
        "divergence.probe_self_s": per_op(lambda r: excl[(r, "divergence.probe")]),
        "weighting.token_loss_calls": n("weighting.token_loss"),
        "weighting.token_loss_us": us("weighting.token_loss"),
        "weighting.weights_calls": n("weighting.weights"),
        "debate.debates": n("debate.debate"),
        "debate.debate_us": us("debate.debate"),
        "debate.teacher_queries": n("debate.respond"),
        "debate.reuse_ratio": ratio(lambda r: len(tracer.keys[(r, "debate")]),
                                    lambda r: calls[(r, "debate.debate")]),
        "training.iter_us": 1e6 * ratio(lambda r: incl[(r, "training.train")],
                                        lambda r: tracer.counters[(r, "training.iterations")]),
        "training.rollout_s": per_op(lambda r: incl[(r, "training.rollout")]),
        "training.target_s": per_op(lambda r: incl[(r, "training.target")]),
        "training.loss_s": per_op(lambda r: incl[(r, "training.loss")] - incl[(r, "training.target")]),
        "training.update_s": per_op(lambda r: excl[(r, "training.train")]),
        "training.acc_eval_s": per_op(lambda r: incl[(r, "training.acc_eval")]),
        "modes.fits": n("modes.fit"),
        "modes.fit_s": _median(per_call["modes.fit"]),
        "modes.step_us": 1e6 * ratio(lambda r: incl[(r, "modes.fit")],
                                     lambda r: tracer.counters[(r, "modes.steps")]),
        "modes.cost_evals_per_step": ratio(lambda r: evals_in_fit[r],
                                           lambda r: tracer.counters[(r, "modes.steps")]),
        "modes.student_dist_us": us("modes.student_dist"),
        "harness.self_s": per_op(lambda r: excl[(r, "harness.run")]),
        "harness.write_csv_s": per_op(lambda r: incl[(r, "harness.write_csv")]),
        "harness.csv_bytes": counter("harness.csv_bytes"),
        "fixtures.build_s": per_op(lambda r: incl[(r, "fixtures.build")]),
    }
    for layer in ("simplex", "divergence", "weighting", "debate", "modes"):
        out[f"{layer}.self_s"] = per_op(lambda r: layer_self[(r, layer)])
    return out
