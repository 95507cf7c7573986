import dataclasses
import errno
import hashlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import DIGEST_NUMPY
from debatekd import harness
from debatekd.cli import main
from debatekd.divergence import REVERSE_KL, jsd_kind
from debatekd.fixtures import FIXTURES
from debatekd.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERIC_ABORT,
    EXIT_OK,
    ConfigError,
    RunConfig,
    ema,
    run,
)


class TestEma:
    def test_alpha_one_is_identity(self):
        y = np.array([3.0, 1.0, 4.0, 1.5])
        out = ema(y, alpha=1.0)
        np.testing.assert_array_equal(out, y)

    def test_impulse_series_unrolls_recurrence(self):
        out = ema(np.array([1.0, 0.0, 0.0, 0.0]), alpha=0.15)
        np.testing.assert_allclose(out, [1.0, 0.85, 0.7225, 0.614125], rtol=1e-12)

    def test_constant_series_is_fixed_point(self):
        out = ema(np.full(10, 2.5), alpha=0.15)
        np.testing.assert_array_equal(out, np.full(10, 2.5))

    def test_recurrence_is_exact(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        out = ema(y, alpha=0.15)
        assert out[0] == y[0]
        for t in range(1, 50):
            assert out[t] == 0.15 * y[t] + 0.85 * out[t - 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ema(np.array([]), alpha=0.15)
        with pytest.raises(ValueError):
            ema(np.array([1.0]), alpha=0.0)
        with pytest.raises(ValueError):
            ema(np.array([1.0]), alpha=1.5)


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*momentum"):
            RunConfig.from_dict({"experiment": "bounds", "momentum": 0.9})

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            RunConfig.from_dict({"seed": 1})

    def test_field_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="rounds"):
            RunConfig(experiment="opad", rounds=0)
        with pytest.raises(ConfigError, match="revision_rate"):
            RunConfig(experiment="opad", revision_rate=1.5)
        with pytest.raises(ConfigError, match="fixture"):
            RunConfig(experiment="opad", fixture="nope")
        with pytest.raises(ConfigError, match="kind"):
            RunConfig.from_dict({"experiment": "opad", "kind": "tv-distance"})

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"experiment": "bounds", "seed": 10**5000}, "seed"),
            ({"experiment": "opad", "num_teachers": 10**5000}, "num_teachers"),
            ({"experiment": "bounds", "out_dir": 10**5000}, "out_dir"),
            # accepted before, then unprintable in run.json
            ({"experiment": "bounds", "rounds": 10**5000, "iterations": 5}, "rounds"),
        ],
        ids=["seed", "num-teachers", "out-dir", "rounds"],
    )
    def test_an_int_past_the_digit_limit_is_named(self, fields, named):
        with pytest.raises(ConfigError, match=rf"^{named}: .* got <int of 16610 bits>$"):
            RunConfig(**fields)

    def test_counts_take_the_seeds_bound(self):
        for name in ("num_teachers", "rounds", "max_steps"):
            RunConfig(experiment="bounds", **{name: 2**64 - 1})
            with pytest.raises(ConfigError, match=rf"^{name}: .* got 18446744073709551616$"):
                RunConfig(experiment="bounds", **{name: 2**64})

    def test_kind_string_parsing(self):
        config = RunConfig.from_dict({"experiment": "opad", "kind": "jsd:0.25"})
        assert config.kind == jsd_kind(0.25)

    def test_training_constraints_checked_up_front(self):
        with pytest.raises(ConfigError, match="eps"):
            RunConfig.from_dict({"experiment": "opad", "kind": "rev", "eps": 0})
        RunConfig.from_dict({"experiment": "bounds", "kind": "rev", "eps": 0})

    def test_teacher_queries_bounded_at_what_two_rounds_admit(self):
        RunConfig(experiment="opad", iterations=10**6)
        with pytest.raises(ConfigError, match=r"^rounds: .* got 1000000 \* 4 \* 3 \* 2$"):
            RunConfig(experiment="opad", iterations=10**6, rounds=3)
        RunConfig(experiment="debate-demo", iterations=10**6, rounds=3)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_builders_read_only_config_fields(self, name):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(inspect.signature(FIXTURES[name]).parameters) <= fields

    def test_file_loading_with_flag_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "bounds", "seed": 3, "iterations": 10}))
        config = RunConfig.from_file(path, overrides={"seed": 9})
        assert config.seed == 9 and config.iterations == 10


class TestRunArtifacts:
    def test_bounds_run_artifacts(self, tmp_path):
        out = tmp_path / "bounds"
        config = RunConfig(experiment="bounds", iterations=200, seed=1, out_dir=str(out))
        assert run(config) == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "bounds_report.json").exists()
        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["experiment"] == "bounds"
        assert payload["seed"] == 1
        assert "numpy" in payload["versions"]

    def test_rerun_reproduces_metrics_byte_for_byte(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = RunConfig(
                experiment="opad",
                kind=jsd_kind(),
                iterations=20,
                seed=7,
                out_dir=str(out),
            )
            assert run(config) == EXIT_OK
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_run_json_round_trips_as_config(self, tmp_path):
        out1, out2 = tmp_path / "x", tmp_path / "y"
        config = RunConfig(experiment="opad", iterations=10, seed=5, out_dir=str(out1))
        assert run(config) == EXIT_OK
        reloaded = RunConfig.from_file(out1 / "run.json", overrides={"out_dir": str(out2)})
        assert run(reloaded) == EXIT_OK
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_opad_csv_schema(self, tmp_path):
        out = tmp_path / "opad"
        config = RunConfig(experiment="opad", iterations=3, seed=0, out_dir=str(out))
        run(config)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iter,step,token,kind,loss,grad_inf,acc"
        assert len(lines) == 1 + 3 * 4 * 2

    def test_no_writes_outside_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        config = RunConfig(experiment="modes", seed=0, out_dir=str(out))
        assert run(config) == EXIT_OK
        assert list(workdir.iterdir()) == []

    def test_lock_file_blocks_concurrent_runs(self, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        config = RunConfig(experiment="bounds", iterations=10, out_dir=str(out))
        assert run(config) == EXIT_CONFIG_ERROR

    def test_lock_of_live_process_blocks(self, tmp_path):
        out = tmp_path / "live"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        config = RunConfig(experiment="bounds", iterations=10, out_dir=str(out))
        assert run(config) == EXIT_CONFIG_ERROR
        assert (out / ".lock").read_text() == str(os.getpid())

    def test_lock_of_exited_process_is_reclaimed(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        config = RunConfig(experiment="bounds", iterations=10, out_dir=str(out))
        assert run(config) == EXIT_OK
        assert not (out / ".lock").exists()

    def test_lock_holds_the_running_pid(self, tmp_path, monkeypatch):
        seen = []

        def runner(config, out):
            seen.append((out / ".lock").read_text())
            return {}

        monkeypatch.setitem(harness._RUNNERS, "bounds", runner)
        assert run(RunConfig(experiment="bounds", out_dir=str(tmp_path / "pid"))) == EXIT_OK
        assert seen == [str(os.getpid())]

    def test_lock_released_after_run(self, tmp_path):
        out = tmp_path / "once"
        config = RunConfig(experiment="bounds", iterations=10, out_dir=str(out))
        assert run(config) == EXIT_OK
        assert not (out / ".lock").exists()
        assert run(config) == EXIT_OK

    def test_numeric_abort_exit_code_and_partial_artifacts(self, tmp_path):
        out = tmp_path / "abort"
        config = RunConfig(
            experiment="opad",
            kind=REVERSE_KL,
            fixture="privileged-gap",
            num_teachers=1,
            rounds=1,
            eta=1e308,
            iterations=10,
            seed=0,
            out_dir=str(out),
        )
        assert run(config) == EXIT_NUMERIC_ABORT
        payload = json.loads((out / "run.json").read_text())
        assert payload["abort"]["iteration"] == 0
        assert (out / "metrics.csv").exists()

    def test_overflowing_update_is_a_numeric_abort(self, tmp_path):
        """An eta at the float ceiling overflows a logit in the first update:
        the run aborts there with exit 2 and leaks no RuntimeWarning."""
        out = tmp_path / "overflow"
        config = RunConfig(experiment="opad", kind=REVERSE_KL, fixture="privileged-gap",
                           num_teachers=1, eta=sys.float_info.max, iterations=3,
                           out_dir=str(out))
        assert run(config) == EXIT_NUMERIC_ABORT
        assert json.loads((out / "run.json").read_text())["abort"]["iteration"] == 0

    def test_debate_demo_artifacts(self, tmp_path):
        out = tmp_path / "demo"
        config = RunConfig(experiment="debate-demo", seed=0, out_dir=str(out))
        assert run(config) == EXIT_OK
        report = json.loads((out / "debate_report.json").read_text())
        assert report["consensus_accuracy"] >= 0.9
        assert (out / "transcript.txt").read_text().startswith("[Debate Start]")
        assert (out / "transcripts.jsonl").exists()

    def test_debate_demo_honours_revision_rate(self, tmp_path):
        out = tmp_path / "frozen"
        config = RunConfig(experiment="debate-demo", revision_rate=0.0, out_dir=str(out))
        assert run(config) == EXIT_OK
        lines = (out / "transcript.txt").read_text().splitlines()[1:-1]
        answers = [line.split("]: ", 1)[1] for line in lines]
        assert len(answers) == 4 and answers[2:] == answers[:2]

    def test_debate_demo_honours_num_teachers(self, tmp_path):
        out = tmp_path / "three"
        config = RunConfig(
            experiment="debate-demo", fixture="privileged-gap", num_teachers=3, out_dir=str(out)
        )
        assert run(config) == EXIT_OK
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "state,confidence_0,confidence_1,confidence_2,consensus_correct"

    def test_modes_run_report(self, tmp_path):
        out = tmp_path / "modes"
        assert run(RunConfig(experiment="modes", seed=0, out_dir=str(out))) == EXIT_OK
        report = json.loads((out / "modes_report.json").read_text())
        assert set(report) == {"rev", "jsd:0.5", "fwd"}

    def test_spike_comparison_computable_from_metrics_files(self, tmp_path):
        """Two identical-seed opad runs differing only in the divergence
        support the stability comparison from their CSVs alone."""
        import csv
        from collections import defaultdict

        ratios = {}
        for kind in (REVERSE_KL, jsd_kind()):
            out = tmp_path / str(kind).replace(":", "=")
            config = RunConfig(
                experiment="opad",
                kind=kind,
                fixture="privileged-gap",
                num_teachers=1,
                rounds=1,
                iterations=150,
                seed=3,
                out_dir=str(out),
            )
            assert run(config) == EXIT_OK
            groups = defaultdict(list)
            with open(out / "metrics.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    groups[(row["iter"], row["step"])].append(float(row["loss"]))
            steps = np.array([np.mean(v) for v in groups.values()])
            ratios[str(kind)] = steps.max() / np.median(steps)
        assert ratios["rev"] > ratios["jsd:0.5"]


#: sha256 of every artifact but run.json (which echoes paths and versions),
#: seed 0, taken before the divergence kernel was batched; the modes entry
#: was re-taken when the mode fits moved from central differences to the
#: exact gradient, and the bounds entries when the sweep moved to padded
#: chunks. The opad-complementary metrics.csv digest is the seed-0 `train`
#: figure of bench/README.md, whose seed-0 `sweep` figure predates the
#: padded chunks.
ARTIFACT_DIGESTS = {
    "bounds": (
        {"experiment": "bounds", "iterations": 2000},
        {
            "bounds_report.json": "1a9e30f15951cf77cfd4fc093e586929c410e245e8e99d235988202658c614e6",
            "metrics.csv": "a59a4318c1ba7c826fb2a2f738e64638cd9e15513d2cbcce9883e541a8ba99d9",
            "revkl_report.json": "45924f656bf7e8a20eb3172cd5a7a007aa505cfc9367db8e3d023875d9454a48",
        },
    ),
    "opad-complementary": (
        {"experiment": "opad", "kind": "jsd:0.5", "iterations": 200},
        {
            "metrics.csv": "d8d207d6ccbfa8fc90318bd1732ef5e09d1d5ba7310855dcd7810ec68a2482bd",
            "train_report.json": "4120a5fc869e4dce80ae518187dcc2eaf156cd6940a054d1e54db9a145c2325b",
        },
    ),
    "opad-privileged-rev": (
        {"experiment": "opad", "fixture": "privileged-gap", "kind": "rev", "iterations": 50},
        {
            "metrics.csv": "cf90655847700135ac9f077fdaeaa771f3db57dfa742eab5f4ccf18012d8e308",
            "train_report.json": "145e994df227d6b5113cc93a9105b0e68347209bcf11c823b4f1b92e4a0ac6cd",
        },
    ),
    "opad-two-strategy-fwd": (
        {"experiment": "opad", "fixture": "two-strategy", "kind": "fwd", "iterations": 50},
        {
            "metrics.csv": "25fb42a5b8e8b738e4520c2af19cdbede8662689107db4a9887979bf9750c510",
            "train_report.json": "610c6db18c370b270db6c26c3b9c7e3cd1d86f5a6cdfb6b64a8263da71ff5f71",
        },
    ),
    "gradcheck": (
        {"experiment": "gradcheck", "iterations": 4},
        {
            "gradcheck_report.json": "9cbe18b246fab1b6342d4d2f9ce92a7de88d7746168baf8a3ba7bbb625d22a55",
            "metrics.csv": "70ba01735484f8771f236d7dc445994e602d846abf352538018f3edbff5f35fb",
        },
    ),
    "modes": (
        {"experiment": "modes"},
        {
            "metrics.csv": "04f1e587e27bc35ce9e9097c936df988ab6abe0b5b35b2f3d6e861f0d69f0487",
            "modes_report.json": "f36e80166e099921637204dfadba9d499a34164573674e0f61c5723ba9371025",
        },
    ),
    "debate-demo": (
        {"experiment": "debate-demo"},
        {
            "debate_report.json": "d3d67acc35d0ee82b973a5d60e4a721e8c407fe7e6f21881f39c8b48ef69b43a",
            "metrics.csv": "69731ac6f6479d37b976fedd320736374c68cfad49d07b7baa6d378ffa8bcd80",
            "transcript.txt": "b2e138cf339e15d8f30e02cf1c068fdfb9ec9c402b394045c7dce9e28a6128c0",
            "transcripts.jsonl": "e1f6e072ffbbdf41683245c912e1215290b274d6ceb0652cdb434624662964ea",
        },
    ),
}


class TestArtifactDigests:
    @pytest.mark.skipif(
        np.__version__ != DIGEST_NUMPY,
        reason=f"digests were taken on numpy {DIGEST_NUMPY}; other versions may round differently",
    )
    @pytest.mark.parametrize(
        "config, digests", ARTIFACT_DIGESTS.values(), ids=ARTIFACT_DIGESTS.keys()
    )
    def test_artifacts_are_byte_identical(self, tmp_path, config, digests):
        out = tmp_path / "run"
        assert run(RunConfig.from_dict({**config, "seed": 0, "out_dir": str(out)})) == EXIT_OK
        produced = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.name != "run.json"
        }
        assert produced == digests


class TestCli:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "cli"
        status = main(
            ["run", "bounds", "--seed", "2", "--iterations", "50", "--out", str(out)]
        )
        assert status == EXIT_OK
        assert (out / "run.json").exists()

    def test_kind_flag(self, tmp_path):
        out = tmp_path / "clikind"
        status = main(
            ["run", "opad", "--kind", "rev", "--iterations", "5", "--out", str(out)]
        )
        assert status == EXIT_OK
        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["kind"] == "rev"

    def test_bad_kind_is_config_error(self, tmp_path):
        status = main(["run", "opad", "--kind", "chi2", "--out", str(tmp_path / "z")])
        assert status == EXIT_CONFIG_ERROR

    def test_missing_config_file_is_config_error(self, tmp_path):
        status = main(["run", "bounds", "--config", str(tmp_path / "nope.json")])
        assert status == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["run", "bounds", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["run", "bounds", "--iterations", "2.5"],
             "argument --iterations: invalid int value: '2.5'"),
            (["run", "nosuch"], "argument experiment: invalid choice: 'nosuch'"),
            (["run", "bounds", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            ([], "the following arguments are required: command"),
        ],
        ids=["str-seed", "float-iterations", "unknown-experiment", "unknown-flag",
             "missing-command"],
    )
    def test_usage_error_is_config_error(self, tmp_path, monkeypatch, capsys, argv, problem):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == EXIT_CONFIG_ERROR
        assert captured.err.startswith(f"config error: {problem}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: debatekd run")

    @pytest.mark.parametrize(
        "experiment, config, field",
        [
            ("opad", [1, 2], None),  # None: the message names the config file
            ("opad", {"experiment": "opad", "seed": "abc"}, "seed"),
            ("opad", {"experiment": "opad", "iterations": 2.5}, "iterations"),
            ("opad", {"experiment": "opad", "seed": 1.5}, "seed"),
            ("opad", {"experiment": "opad", "eps": 0.6}, "eps"),
            ("opad", {"experiment": "opad", "iterations": 2}, "out_dir"),  # --out is a file
            ("opad", {"experiment": "opad", "num_teachers": 3}, "num_teachers"),
            ("debate-demo", {"experiment": "debate-demo", "num_teachers": 3}, "num_teachers"),
            ("opad", {"experiment": "opad", "conf_temperature": 1e-300}, "conf_temperature"),
            ("opad", {"experiment": "opad", "iterations": 10**15}, "iterations"),
            ("opad", {"experiment": "opad", "max_steps": 10**12}, "max_steps"),
            ("debate-demo", {"experiment": "debate-demo", "fixture": "privileged-gap",
                             "num_teachers": 27}, "num_teachers"),
            ("opad", "not json", None),  # a str is written as it is
            ("opad", {"experiment": "opad", "fixture": "privileged-gap", "num_teachers": 100000,
                      "iterations": 1000000}, "num_teachers"),
            ("debate-demo", {"experiment": "debate-demo", "rounds": 1000000000}, "rounds"),
            ("opad", {"experiment": "opad", "rounds": 5001}, "rounds"),
            ("opad", {"experiment": "opad", "rounds": 5000}, "rounds"),
            ("opad", {"experiment": "opad", "eta": 10**400}, "eta"),
            ("debate-demo", {"experiment": "debate-demo", "conf_temperature": 10**400},
             "conf_temperature"),
            ("opad", {"experiment": "opad", "eta": math.inf}, "eta"),
            ("debate-demo", {"experiment": "debate-demo", "conf_temperature": math.inf},
             "conf_temperature"),
            ("bounds", {"experiment": "bounds", "eps": math.inf}, "eps"),
            ("gradcheck", {"experiment": "gradcheck", "eps": math.inf}, "eps"),
            ("modes", {"experiment": "modes", "eps": math.inf}, "eps"),
        ],
        ids=["not-an-object", "str-seed", "float-iterations", "float-seed",
             "eps-above-inverse-vocab", "out-is-a-file", "opad-teacher-count",
             "debate-demo-teacher-count", "underflowing-conf-temperature",
             "unallocatable-iterations", "unallocatable-max-steps",
             "more-experts-than-letters", "not-json", "unallocatable-teachers",
             "endless-debate", "debate-past-its-cell-bound", "too-many-teacher-queries",
             "eta-past-the-largest-double", "conf-temperature-past-the-largest-double",
             "infinite-eta", "infinite-conf-temperature", "infinite-eps-bounds",
             "infinite-eps-gradcheck", "infinite-eps-modes"],
    )
    def test_bad_input_is_named_config_error(self, tmp_path, capsys, experiment, config, field):
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "out"
        if field == "out_dir":
            out.write_text("")
        status = main(["run", experiment, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == EXIT_CONFIG_ERROR
        assert err.startswith(f"config error: {field or path}")
        assert "Traceback" not in err
        assert out.is_file() if field == "out_dir" else not out.exists()

    def test_out_dir_with_a_nul_byte_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "bounds", "out_dir": f"{tmp_path}/a\0b"}))
        status = main(["run", "bounds", "--config", str(path)])
        err = capsys.readouterr().err
        assert status == EXIT_CONFIG_ERROR
        assert err.startswith("config error: out_dir: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("module, name", [(os, "link"), (tempfile, "mkstemp")],
                             ids=["no-hard-links", "unwritable-directory"])
    def test_unusable_lock_is_config_error(self, tmp_path, capsys, monkeypatch, module, name):
        def refuse(*args, **kwargs):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "out"
        status = main(["run", "bounds", "--iterations", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert status == EXIT_CONFIG_ERROR
        assert err.startswith(f"config error: out_dir: cannot use {out}: ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []  # the lock's temporary file is removed

    def test_untrainable_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "opad", "kind": "rev", "eps": 0}))
        out = tmp_path / "never"
        status = main(["run", "opad", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == EXIT_CONFIG_ERROR
        assert err.startswith("config error: eps:")
        assert "Traceback" not in err
        assert not out.exists()


class TestCrashRecovery:
    def test_sigkilled_run_does_not_wedge_its_directory(self, tmp_path):
        """A run killed with SIGKILL mid-run leaves its lock behind; the next
        run into that directory reclaims it and writes what a clean run
        writes. The kill waits until the lock names the child, since an
        empty lock (the instant between creating it and writing the PID)
        blocks by design."""
        argv = ["run", "opad", "--seed", "3", "--iterations", "100"]
        crashed, clean = tmp_path / "crashed", tmp_path / "clean"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "debatekd", *argv, "--out", str(crashed)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        lock = crashed / ".lock"
        try:
            deadline = time.monotonic() + 60
            while not (lock.exists() and lock.read_text() == str(child.pid)):
                assert child.poll() is None, "the run ended before its lock was seen"
                assert time.monotonic() < deadline, "no lock within 60 s"
                time.sleep(0.001)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert lock.exists()

        assert main([*argv, "--out", str(crashed)]) == EXIT_OK
        assert not lock.exists()
        assert main([*argv, "--out", str(clean)]) == EXIT_OK
        assert (crashed / "metrics.csv").read_bytes() == (clean / "metrics.csv").read_bytes()

    def test_run_stopped_before_its_lock_is_linked_does_not_block(self, tmp_path):
        """A run killed after writing its PID to the temporary file but
        before linking it to the lock leaves no lock: the next run goes
        ahead."""
        out = tmp_path / "stopped"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import os, signal, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from debatekd.harness import RunConfig, run\n"
            "os.link = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "run(RunConfig(experiment='bounds', iterations=10, out_dir=sys.argv[1]))\n"
        )
        child = subprocess.Popen([sys.executable, "-c", script, str(out)])
        assert child.wait(timeout=60) == -signal.SIGKILL
        # what the stopped run leaves: its PID in the temporary file, no lock
        (stray,) = out.iterdir()
        assert stray.name.startswith(".lock.") and stray.read_text() == str(child.pid)
        assert run(RunConfig(experiment="bounds", iterations=10, out_dir=str(out))) == EXIT_OK
        assert not (out / ".lock").exists()
        assert [p for p in out.iterdir() if p.name.startswith(".lock")] == [stray]
