import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_kind_string_parsing(self):
        config = RunConfig.from_dict({"experiment": "opad", "kind": "jsd:0.25"})
        assert config.kind == jsd_kind(0.25)

    def test_training_constraints_checked_up_front(self):
        with pytest.raises(ConfigError, match="eps"):
            RunConfig.from_dict({"experiment": "opad", "kind": "rev", "eps": 0})
        RunConfig.from_dict({"experiment": "bounds", "kind": "rev", "eps": 0})

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
#: exact gradient. The bounds and opad-complementary metrics.csv digests are
#: the seed-0 `sweep` and `train` figures of bench/README.md.
DIGEST_NUMPY = "2.4.6"
ARTIFACT_DIGESTS = {
    "bounds": (
        {"experiment": "bounds", "iterations": 2000},
        {
            "bounds_report.json": "19cdc3fd7cc7a018de67a525c18b195584cd42304ef0c76d5ec4e00fe1a62d9f",
            "metrics.csv": "d7aade31846944ea1c0e21d2016c631f87c1bec12c048676c8781b2ce5c04480",
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
            "metrics.csv": "981a7acd3b716d085633d713a62fcfa606dc88f9d518e9d31d46e902cc8e43b5",
            "modes_report.json": "84d9a68263f48ce73791fe3becfa86762f45da9b2838773c5b2fd7f5ecbe917f",
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
        ],
        ids=["not-an-object", "str-seed", "float-iterations", "float-seed",
             "eps-above-inverse-vocab", "out-is-a-file", "opad-teacher-count",
             "debate-demo-teacher-count", "underflowing-conf-temperature",
             "unallocatable-iterations", "unallocatable-max-steps",
             "more-experts-than-letters", "not-json", "unallocatable-teachers"],
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
