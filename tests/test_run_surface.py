"""Fuzz of `debatekd run`: every config ends in exit 0, 1 or 2, never a traceback.

Configs are drawn from the run-config contract itself: the field ranges
(`harness._RANGES`), the product bounds (`harness._PRODUCTS`) and the
choice sets. Draws include valid, boundary and one-past-bound values,
bools, strings and 400-digit ints in numeric fields, NaN and +-inf,
unknown keys, fixtures whose teacher count does not match `num_teachers`,
and a NUL byte in `out_dir`.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from debatekd import harness
from debatekd.cli import main
from debatekd.fixtures import FIXTURES
from debatekd.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERIC_ABORT,
    EXIT_OK,
    EXPERIMENTS,
    ConfigError,
    RunConfig,
)

#: The reports a finished run writes besides run.json and metrics.csv.
REPORTS = {
    "bounds": {"bounds_report.json", "revkl_report.json"},
    "gradcheck": {"gradcheck_report.json"},
    "modes": {"modes_report.json"},
    "debate-demo": {"debate_report.json", "transcript.txt", "transcripts.jsonl"},
    "opad": {"train_report.json"},
}

#: The largest value of each costly field in a config that may reach run();
#: an accepted config past one of these is only validated.
CHEAP = {"iterations": 3, "rounds": 3, "max_steps": 4, "num_teachers": 4}

FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
ODD_VALUES = [True, "1", None, 1.5, 10**400, -(10**400), math.nan, math.inf, -math.inf]


def field_values(name):
    """Valid, boundary, one-past-bound and ill-typed values of a numeric field."""
    lo, hi = harness._RANGES[name]
    if FIELDS[name].type == "int":
        edges = [lo, lo - 1] + ([hi, hi + 1] if hi < math.inf else [])
        valid = st.integers(lo, lo + 3)
    else:
        top = min(hi, sys.float_info.max)
        edges = [lo, math.nextafter(lo, -math.inf), top, math.nextafter(top, math.inf)]
        valid = st.floats(lo, min(hi, 2.0))
    return st.one_of(valid, st.sampled_from(edges + ODD_VALUES))


def rarely(value, common):
    """One draw in five is value; hypothesis shrinks towards common."""
    return st.sampled_from([common] * 4 + [value])


@st.composite
def run_configs(draw, experiments=EXPERIMENTS):
    raw = {
        "experiment": draw(st.sampled_from(experiments)),
        "fixture": draw(st.sampled_from([*sorted(FIXTURES)] * 2 + ["nope"])),
        "kind": draw(st.sampled_from(["jsd", "fwd", "rev", "jsd:0.25"] * 2 + ["jsd:1", "chi2"])),
        "iterations": draw(st.integers(1, CHEAP["iterations"])),
        "rounds": draw(st.integers(1, CHEAP["rounds"])),
        "max_steps": draw(st.integers(1, CHEAP["max_steps"])),
        "out_dir": draw(rarely("a\0b", "out")),
    }
    # only privileged-gap provides other than two teachers
    if raw["fixture"] == "privileged-gap" or draw(rarely(True, False)):
        raw["num_teachers"] = draw(st.integers(1, CHEAP["num_teachers"]))
    if draw(rarely(True, False)):
        experiments, names, largest, named = draw(st.sampled_from(harness._PRODUCTS))
        if raw["experiment"] not in experiments:
            raw["experiment"] = draw(st.sampled_from(experiments))
        others = math.prod(raw.get(n, FIELDS[n].default) for n in names if n != named)
        raw[named] = largest // others + draw(st.integers(0, 1))
    for name in draw(st.lists(st.sampled_from(sorted(harness._RANGES)), max_size=2, unique=True)):
        raw[name] = draw(field_values(name))
    if draw(rarely(True, False)):
        raw["momentum"] = 0.9
    return raw


def run_cli(experiment, path, *flags):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["run", experiment, "--config", str(path), *flags])
    return status, err.getvalue()


def check_run_surface(raw, run_modes=False):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw = {**raw, "out_dir": str(tmp / raw["out_dir"])}
        try:
            config = RunConfig.from_dict(raw)
        except ConfigError:
            config = None
        if config is not None and (
            any(getattr(config, name) > cap for name, cap in CHEAP.items())
            or (config.experiment == "modes" and not run_modes)
        ):
            return
        path = tmp / "config.json"
        path.write_text(json.dumps(raw))
        status, err = run_cli(raw["experiment"], path)
        assert status in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_NUMERIC_ABORT)
        assert "Traceback" not in err
        if status == EXIT_CONFIG_ERROR:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert list(tmp.iterdir()) == [path]
            return
        assert config is not None
        out = Path(config.out_dir)
        expected = {"run.json", "metrics.csv", *REPORTS[config.experiment]}
        assert {p.name for p in out.iterdir()} == expected
        rerun = tmp / "rerun"
        assert run_cli(raw["experiment"], path, "--out", str(rerun))[0] == status
        assert (rerun / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_every_config_ends_in_a_documented_exit_code(raw):
    check_run_surface(raw)


@settings(max_examples=2, deadline=None)
@given(run_configs(experiments=("modes",)))
def test_modes_configs_end_in_a_documented_exit_code(raw):
    """modes ignores iterations and takes about 0.45 s a run, so it gets two draws."""
    check_run_surface(raw, run_modes=True)
