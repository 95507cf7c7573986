#!/usr/bin/env python3
"""Run one debatekd benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36

Run from a source checkout: the program is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
are the readable report, and a JSON copy of the full result goes to
``.bench_out/results/``. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: One fresh interpreter times set-up after every SETUP_EVERY-th operation,
#: so that setup_s samples the whole run rather than one moment of it.
SETUP_EVERY = 5

#: Which metrics the last line carries, with their units: ``end_to_end`` with
#: ``--trace 0`` and ``per_layer`` with ``--trace 1``. The readable report
#: prints more per-layer metrics than BENCHMARK.json declares.
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {root!r}]
from bench.workloads import WORKLOADS
w = WORKLOADS[{name!r}]({seed!r}, {size!r})
t0 = time.perf_counter()
w.import_modules()
t1 = time.perf_counter()
w.build_inputs({out!r})
t2 = time.perf_counter()
print(repr(t1 - t0), repr(t2 - t0))
"""


@dataclass
class Tally:
    """Every operation run, timed or not, and what its checks found."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Sample:
    wall: float
    core: float
    units: int


def tail(values) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n))
    if p <= 50:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def describe(values, unit: str) -> str:
    text = f"median {median(values):.6g} {unit}"
    t = tail(values)
    if t is None:
        return text + f", n={len(values)} (too few for a tail percentile)"
    return text + f", p{t[0]} {t[1]:.6g} {unit}, n={len(values)}"


def execute(workload, i: int, tally: Tally, timer=None, tracer=None) -> Sample:
    """Run operation i, time it, then check its output outside the timing."""
    gc.collect()
    core_before = len(timer.end) if timer is not None else 0
    if tracer is not None:
        tracer.rep = i
        span = tracer.open(tracer.name_id("bench.op"))
    raw, error = None, None
    t0 = perf_counter()
    try:
        raw = workload.op(i)
    except Exception as exc:  # a raising operation is a failed operation
        error = f"op {i} raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    core = wall
    if timer is not None and len(timer.end) > core_before:
        core = sum(timer.end[k] - timer.start[k] for k in range(core_before, len(timer.end)))
    units = workload.size
    failures = [error] if error else []
    if error is None:
        try:
            outcome = workload.check(i, raw)
        except Exception as exc:
            failures.append(f"op {i} output unreadable: {type(exc).__name__}: {exc}")
        else:
            units = outcome.units
            failures += outcome.failures
            key = workload.digest_key(i)
            expected = tally.digests.setdefault(key, outcome.digest)
            if outcome.digest != expected:
                failures.append(f"op {i} output not byte-identical to an earlier "
                                f"repetition: sha256 {outcome.digest} != {expected}")
    tally.attempted += 1
    if failures:
        tally.failed += 1
        tally.failures += failures
    return Sample(wall, core, units)


def timed_phase(workload, seconds: float, tally: Tally, setup: "Setup", timer=None) -> list[Sample]:
    """Run operations 1, 2, ... until `seconds` have passed (at least one)."""
    samples = []
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        samples.append(execute(workload, len(samples) + 1, tally, timer=timer))
        setup.after_op(len(samples))
    return samples


class Setup:
    """Set-up times, (import_s, setup_s), from fresh interpreters timed inside."""

    def __init__(self, workload, out: Path):
        self.code = SETUP_CODE.format(src=str(SRC), root=str(ROOT), name=workload.name,
                                      seed=workload.seed, size=workload.size, out=str(out))
        self.times: list[tuple[float, float]] = []
        self._measure()  # warms the file cache and bytecode; not kept
        self.times.clear()

    def _measure(self) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        self.times.append(tuple(float(x) for x in proc.stdout.split()))

    def after_op(self, ops_done: int) -> None:
        if ops_done % SETUP_EVERY == 1:
            self._measure()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "debatekd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def plain_run(workload, seconds: float, tally: Tally, setup: Setup) -> dict:
    from bench.spans import Tracer

    execute(workload, 0, tally)  # warm-up, checked but not timed
    timer = Tracer()
    timer.install([(*workload.core, "core")])
    try:
        samples = timed_phase(workload, seconds, tally, setup, timer=timer)
    finally:
        timer.uninstall()
    walls = [s.wall for s in samples]
    cores = [s.core for s in samples]
    units = sum(s.units for s in samples)
    # Totals over the timed phase, not per-operation medians: on a shared host
    # operation times are bimodal (contended and quiet phases lasting seconds),
    # and a median jumps between the two modes where a total moves in
    # proportion to the contended share.
    metrics = {
        "units_per_s": units / sum(cores),
        "wall_s": sum(walls) / len(walls),
        "setup_s": median(t for _, t in setup.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    core_name = ".".join(workload.core)
    print(f"units_per_s  {metrics['units_per_s']:.6g} 1/s ({units} {workload.unit} in "
          f"{sum(cores):.6g} s of {core_name} over the timed phase)")
    print(f"  {core_name} per operation: {describe(cores, 's')}")
    print(f"wall_s       mean {metrics['wall_s']:.6g} s per operation, incl. artifact writes; "
          f"{describe(walls, 's')}")
    print(f"setup_s      {describe([t for _, t in setup.times], 's')} (fresh interpreters: "
          f"imports and inputs; imports alone {median(t for t, _ in setup.times):.6g} s)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.6g} MB (this process)")
    return {"metrics": metrics, "walls": walls, "cores": cores}


def traced_run(workload, seconds: float, tally: Tally, setup: Setup) -> dict:
    from bench.spans import LAYER_UNITS, Tracer, layer_metrics

    execute(workload, 0, tally)
    # Each operation runs both untraced and traced, in alternating order, so
    # that neither the machine's speed drifting during the run nor going
    # first leaks into trace.overhead.
    tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        i = len(traced) + 1
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if not with_trace:
                untraced.append(execute(workload, i, tally))
                continue
            tracer.install()
            try:
                traced.append(execute(workload, i, tally, tracer=tracer))
            finally:
                tracer.uninstall()
        setup.after_op(i)
    traced_s, untraced_s = sum(s.wall for s in traced), sum(s.wall for s in untraced)
    metrics = layer_metrics(tracer)
    metrics["setup.import_s"] = median(t for t, _ in setup.times)
    metrics["trace.overhead"] = traced_s / untraced_s
    units = dict(LAYER_UNITS, **{"setup.import_s": "s", "trace.overhead": "x"})
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(f"trace.overhead = traced {traced_s:.6g} s / untraced {untraced_s:.6g} s, "
          f"the same {len(traced)} operations each way")
    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    spans_path = OUT / "spans" / f"{workload.name}-seed{workload.seed}.csv"
    tracer.write(spans_path)
    print(f"{len(tracer.end)} spans written to {spans_path.relative_to(ROOT)}")
    return {"metrics": metrics}


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    from bench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
            table.append(f"{name:10s} {metric:28s} {entry['value']:<14.6g} {entry['unit']}")
        table.append(f"{name:10s} {'failed_frac':28s} "
                     f"{result['failed'] / result['attempted']:<14.6g} "
                     f"({result['failed']} of {result['attempted']} operations)")
    print("\n".join(table))
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, size: int | None = None) -> int:
    if not (SRC / "debatekd" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"no debatekd sources under {SRC} or no {BENCHMARK.name}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import debatekd
    from bench.workloads import WORKLOADS

    if Path(debatekd.__file__).resolve().parent != SRC / "debatekd":
        print(f"debatekd imported from {debatekd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed, size)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.seed)
        print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("# " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
              + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
        setup = Setup(workload, work)
        workload.import_modules()
        workload.build_inputs(work)
        tally = Tally()
        run = traced_run if args.trace else plain_run
        result = run(workload, args.seconds, tally, setup)
    except subprocess.CalledProcessError as exc:
        print(f"set-up in a fresh interpreter failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"failed_frac  {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures[:10]:
        print(f"  FAILED: {failure}")
    digests = {str(k): v for k, v in tally.digests.items()}
    if workload.digest_key(0) is None:
        print(f"output sha256 (seed {args.seed}): {tally.digests.get(None)}")
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures, "output_sha256": digests, **result}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    results_path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    shown = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
