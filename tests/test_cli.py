import json
import os
import platform
import re
import shlex
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from advmt import cli
from advmt.evaluation import EvalReport


def run(*argv):
    return cli.main(list(argv))


GEN_CFG = {"n_train": 3, "n_test": 2, "n_frames": 78}
TRAIN_CFG = {
    "epochs": 1,
    "batch_size": 4,
    "encoder": {"num_layers": 1, "num_heads": 2, "model_dim": 16, "ff_dim": 16},
    "discriminator": {"hidden_dims": [16]},
}


@pytest.fixture
def corpus_dir(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN_CFG))
    out = tmp_path / "corpus"
    assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
    return out


@pytest.fixture
def trained_dir(tmp_path, corpus_dir):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    out = tmp_path / "run"
    code = run("train", "--config", str(cfg), "--data", str(corpus_dir / "manifest.json"),
               "--out", str(out), "--seed", "3")
    assert code == 0
    return out


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(GEN_CFG))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--config", str(cfg), "--out", str(a)) == 0
        assert run("generate", "--config", str(cfg), "--out", str(b)) == 0
        for rel in ("manifest.json", "train/walk_0000.csv", "test/walk_0001.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert run("generate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x")) == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("generate")
        assert exc.value.code == 2

    def test_unknown_style_exits_2_without_partial_output(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({**GEN_CFG, "styles": ["moonwalk"]}))
        out = tmp_path / "x"
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 2
        assert not (out / "manifest.json").exists()
        assert not (out / "train").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_trian": 3}))
        assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "c")) == 2
        assert "corpus config: unknown keys ['n_trian']" in capsys.readouterr().err
        cfg.write_text(json.dumps([1, 2]))  # valid JSON, but not an object
        assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "c")) == 2
        assert f"{cfg}: expected a JSON object, got list" in capsys.readouterr().err

    def test_validate_pipeline(self, corpus_dir):
        assert run("validate", "--data", str(corpus_dir / "manifest.json")) == 0

    def test_every_flag_reaches_its_config_field(self, tmp_path):
        out = tmp_path / "c"
        assert run("generate", "--out", str(out), "--seed", "9", "--n-train", "2",
                   "--n-test", "1", "--frames", "30", "--fps", "50", "--styles", "walk,idle_sway",
                   "--amplitude-scale", "0.5") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"] == {
            "n_train": 2, "n_test": 1, "n_frames": 30, "fps": 50,
            "styles": ["walk", "idle_sway"], "amplitude_scale": 0.5,
            "train_seed_base": 9, "test_seed_base": 109,
        }

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amplitude_scale_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "c"
        assert run("generate", "--out", str(out), "--amplitude-scale", value) == 2
        assert f"amplitude_scale must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_validate_refuses_a_tolerance_that_checks_nothing(self, corpus_dir, capsys, tol):
        """A NaN tolerance passed every corpus and a negative one failed every sequence."""
        assert run("validate", "--data", str(corpus_dir / "manifest.json"), "--tol", tol) == 2
        captured = capsys.readouterr()
        assert f"--tol must be finite and >= 0, got {float(tol)}" in captured.err
        assert "FAIL" not in captured.out and "pass" not in captured.out

    def test_lock_blocks_concurrent_use(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(GEN_CFG))
        out = tmp_path / "busy"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text("")
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 2


class TestLock:
    def generate_into(self, tmp_path, lock):
        """Run ``generate`` into a directory that already holds ``lock``; returns the
        exit code and the directory."""
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(GEN_CFG))
        out = tmp_path / "busy"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text(lock if isinstance(lock, str) else json.dumps(lock))
        return run("generate", "--config", str(cfg), "--out", str(out)), out

    def test_lock_names_its_owner(self, tmp_path):
        with cli.RunDirectory(str(tmp_path / "run")) as rd:
            with open(rd.lock_path) as fh:
                owner = json.load(fh)
        assert owner["pid"] == os.getpid() and owner["host"] == platform.node()
        assert owner["started_at"]
        assert not (tmp_path / "run" / cli.LOCK_NAME).exists()

    def test_live_owner_is_held(self, tmp_path, capsys):
        owner = {"pid": os.getpid(), "host": platform.node(), "started_at": "t0"}
        code, out = self.generate_into(tmp_path, owner)
        err = capsys.readouterr().err
        assert code == 2
        assert f"locked by pid {os.getpid()} on host {platform.node()}, started at t0" in err
        assert "stale" not in err
        assert (out / cli.LOCK_NAME).exists()

    def test_dead_owner_on_this_host_is_stale(self, tmp_path, capsys):
        pid = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                             capture_output=True, text=True, check=True).stdout.strip()
        owner = {"pid": int(pid), "host": platform.node(), "started_at": "t0"}
        code, out = self.generate_into(tmp_path, owner)
        err = capsys.readouterr().err
        assert code == 2
        assert f"locked by pid {pid}" in err
        assert f"the lock is stale: remove {out / cli.LOCK_NAME} to clear it" in err
        assert (out / cli.LOCK_NAME).exists()  # reported, not removed

    def test_owner_on_another_host_is_held(self, tmp_path, capsys):
        owner = {"pid": 2**22 + 1, "host": platform.node() + "-other", "started_at": "t0"}
        assert self.generate_into(tmp_path, owner)[0] == 2
        assert "stale" not in capsys.readouterr().err

    @pytest.mark.parametrize("lock", ["", "{not json", "[1]", json.dumps({"pid": "7"}),
                                      json.dumps({"pid": 0, "host": "h", "started_at": "t"})])
    def test_lock_without_owner_is_held(self, tmp_path, capsys, lock):
        code, out = self.generate_into(tmp_path, lock)
        err = capsys.readouterr().err
        assert code == 2
        assert f"its lock {out / cli.LOCK_NAME} names no owner" in err
        assert "stale" not in err


class TestTrain:
    def test_writes_outputs_and_manifest(self, trained_dir):
        assert (trained_dir / "encoder.ckpt").exists()
        assert (trained_dir / "discriminator.ckpt").exists()
        assert (trained_dir / "trainlog.csv").exists()
        manifest = json.loads((trained_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert not (trained_dir / cli.LOCK_NAME).exists()

    def test_single_epoch_single_log_row(self, trained_dir):
        rows = (trained_dir / "trainlog.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one epoch

    def test_rerun_same_seed_identical_checkpoint(self, tmp_path, corpus_dir):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("train", "--config", str(cfg),
                       "--data", str(corpus_dir / "manifest.json"),
                       "--out", str(out), "--seed", "5") == 0
            outs.append(out)
        assert (outs[0] / "encoder.ckpt").read_bytes() == (outs[1] / "encoder.ckpt").read_bytes()

    def test_lambda_flags_reflected_in_manifest(self, tmp_path, corpus_dir):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "lam"
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out),
                   "--lambda-bone", "0.25", "--lambda-adv", "0.0") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["weights"]["lambda_bone"] == 0.25
        assert manifest["config"]["weights"]["lambda_adv"] == 0.0

    def test_every_flag_reaches_its_config_field(self, tmp_path, corpus_dir):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({key: TRAIN_CFG[key] for key in ("encoder", "discriminator")}))
        out = tmp_path / "flags"
        assert run("train", "--config", str(cfg), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out), "--seed", "4", "--epochs", "1", "--batch-size", "3",
                   "--lr-encoder", "0.002", "--lr-disc", "0.0005", "--lambda-bone", "0.2",
                   "--lambda-adv", "0.02", "--disc-steps", "2", "--grad-clip", "0.5",
                   "--history-frames", "10", "--predict-frames", "5", "--stride", "7",
                   "--checkpoint-every", "1") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"] == {
            "seed": 4, "epochs": 1, "batch_size": 3, "lr_encoder": 0.002, "lr_disc": 0.0005,
            "weights": {"lambda_bone": 0.2, "lambda_adv": 0.02},
            "disc_steps_per_gen_step": 2, "grad_clip_norm": 0.5, "history_frames": 10,
            "predict_frames": 5, "window_stride": 7, "checkpoint_every": 1,
        }

    def test_bad_config_exits_2(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "epochs": 0}))
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x")) == 2
        cfg.write_text(json.dumps([1, 2]))  # valid JSON, but not an object
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x")) == 2
        assert f"{cfg}: expected a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("weights", "lambda_bnoe"), ("encoder", "layers"), ("discriminator", "hidden"),
    ])
    def test_unknown_section_key_exits_2(self, tmp_path, corpus_dir, capsys, section, key):
        sections = {"weights": {}, **TRAIN_CFG}
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({**sections, section: {**sections[section], key: 2}}))
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x")) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        # a section that is valid JSON but not an object
        value, where = {"weights": ([1], "weights"), "encoder": (3, "encoder config"),
                        "discriminator": ("x", "discriminator config")}[section]
        cfg.write_text(json.dumps({**sections, section: value}))
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"{where}: expected a JSON object, got {type(value).__name__}" in err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exits_3(self, tmp_path, corpus_dir):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        code = run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "boom"),
                   "--lr-encoder", "1e18", "--epochs", "2", "--grad-clip", "1e30")
        assert code == 3

    @pytest.mark.parametrize("flag,value", [("--lr-encoder", "nan"), ("--lr-encoder", "inf"),
                                            ("--lr-disc", "nan")])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, corpus_dir, capsys, flag, value):
        """Such a rate trained to a NaN checkpoint that ``predict`` then refused."""
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "x"
        assert run("train", "--config", str(cfg), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out), flag, value) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and positive, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_checkpoint_every_exits_2(self, tmp_path, corpus_dir, capsys):
        """``epoch % -1 == 0``, so -1 used to checkpoint every epoch."""
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "x"
        assert run("train", "--config", str(cfg), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out), "--checkpoint-every", "-1") == 2
        assert "checkpoint_every must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dims", [[0], [-4], [16, 0], [True], [2.5]])
    def test_hidden_width_below_one_exits_2(self, tmp_path, corpus_dir, capsys, dims):
        """A zero width trained a discriminator scored by its output bias alone, and a
        negative one failed in numpy after the run directory existed."""
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "discriminator": {"hidden_dims": dims}}))
        out = tmp_path / "x"
        assert run("train", "--config", str(cfg), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out)) == 2
        assert f"hidden_dims must be non-empty integers >= 1, got {dims}" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, corpus_dir, monkeypatch):
        monkeypatch.setenv("ADVMT_SEED", "42")
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "env"
        assert run("train", "--config", str(cfg),
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out)) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 42


class TestSeed:
    """A seed is a non-negative integer from the flag, the config or
    ``ADVMT_SEED``; anything else exits 2 naming its source, before the run
    directory exists."""

    def refused(self, tmp_path, corpus_dir, capsys, command, flags=(), config=None):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config or {}))
        out = tmp_path / "x"
        data = ("--data", str(corpus_dir / "manifest.json")) if command == "train" else ()
        assert run(command, "--config", str(cfg), *data, "--out", str(out), *flags) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("seed", [2.7, True, -3, "5"])
    def test_config_seed(self, tmp_path, corpus_dir, capsys, command, seed):
        """2.7 used to run as seed 2 and true as seed 1."""
        config = {**(GEN_CFG if command == "generate" else TRAIN_CFG), "seed": seed}
        err = self.refused(tmp_path, corpus_dir, capsys, command, config=config)
        assert f"config key 'seed': a seed must be a non-negative integer, got {seed!r}" in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_flag_seed(self, tmp_path, corpus_dir, capsys, command):
        err = self.refused(tmp_path, corpus_dir, capsys, command, ("--seed", "-3"))
        assert "--seed: a seed must be a non-negative integer, got -3" in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("env,shown", [("-4", "'-4'"), ("abc", "'abc'"), ("2.5", "'2.5'")])
    def test_env_seed(self, tmp_path, corpus_dir, capsys, monkeypatch, command, env, shown):
        monkeypatch.setenv("ADVMT_SEED", env)
        err = self.refused(tmp_path, corpus_dir, capsys, command)
        assert f"ADVMT_SEED: a seed must be a non-negative integer, got {shown}" in err

    def test_gradcheck_negative_seed(self, capsys):
        assert run("gradcheck", "--seed", "-1", "--instances", "1") == 2
        assert "--seed: a seed must be a non-negative integer, got -1" in capsys.readouterr().err


class TestConfigValueTypes:
    """A config value of the wrong JSON type exits 2 naming the file and the key,
    before any run directory exists. Each used to end in a ``TypeError``
    traceback or to run a coerced value (``true`` as 1, 2.5 epochs)."""

    def refused(self, capsys, out, *argv):
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def train_refused(self, tmp_path, corpus_dir, capsys, config):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        return cfg, self.refused(capsys, tmp_path / "x", "train", "--config", str(cfg),
                                 "--data", str(corpus_dir / "manifest.json"))

    @pytest.mark.parametrize("key,value,expected", [
        ("lr_encoder", "0.1", "a number"), ("grad_clip_norm", True, "a number"),
        ("epochs", True, "an integer"), ("epochs", 2.5, "an integer"),
        ("checkpoint_every", "1", "an integer"), ("history_frames", None, "an integer"),
    ])
    def test_train_config(self, tmp_path, corpus_dir, capsys, key, value, expected):
        cfg, err = self.train_refused(tmp_path, corpus_dir, capsys, {**TRAIN_CFG, key: value})
        assert f"{cfg}: train config: {key!r} must be {expected}, got {value!r}" in err

    @pytest.mark.parametrize("key,value", [("lambda_bone", "0.1"), ("lambda_adv", False)])
    def test_weights_section(self, tmp_path, corpus_dir, capsys, key, value):
        cfg, err = self.train_refused(tmp_path, corpus_dir, capsys,
                                      {**TRAIN_CFG, "weights": {key: value}})
        assert f"{cfg}: weights: {key!r} must be a number, got {value!r}" in err

    @pytest.mark.parametrize("key,value", [("num_layers", "2"), ("num_heads", True),
                                           ("ff_dim", 16.0)])
    def test_encoder_section(self, tmp_path, corpus_dir, capsys, key, value):
        config = {**TRAIN_CFG, "encoder": {**TRAIN_CFG["encoder"], key: value}}
        cfg, err = self.train_refused(tmp_path, corpus_dir, capsys, config)
        assert f"{cfg}: encoder config: {key!r} must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("key,value,expected", [
        ("hidden_dims", 16, "a JSON list"), ("hidden_dims", "16", "a JSON list"),
        ("input_dim", 51.0, "an integer"),
    ])
    def test_discriminator_section(self, tmp_path, corpus_dir, capsys, key, value, expected):
        config = {**TRAIN_CFG, "discriminator": {key: value}}
        cfg, err = self.train_refused(tmp_path, corpus_dir, capsys, config)
        assert f"{cfg}: discriminator config: {key!r} must be {expected}, got {value!r}" in err

    @pytest.mark.parametrize("key,value,expected", [
        ("n_train", "3", "an integer"), ("n_train", 2.5, "an integer"),
        ("n_test", True, "an integer"), ("styles", "walk", "a JSON list"),
        ("amplitude_scale", "1", "a number"), ("topology", ["skeleton.json"], "a string"),
    ])
    def test_corpus_config(self, tmp_path, capsys, key, value, expected):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({**GEN_CFG, key: value}))
        err = self.refused(capsys, tmp_path / "c", "generate", "--config", str(cfg))
        assert f"{cfg}: corpus config: {key!r} must be {expected}, got {value!r}" in err

    @pytest.mark.parametrize("section,key", [("train config", "lr_encoder"),
                                             ("weights", "lambda_bone"),
                                             ("corpus config", "amplitude_scale")])
    def test_integer_too_large_for_a_float(self, tmp_path, corpus_dir, capsys, section, key):
        """A JSON integer that float() cannot convert passed the type check and
        ended in an ``OverflowError`` (or ``TypeError``) traceback."""
        huge = 10 ** 400
        if section == "corpus config":
            cfg = tmp_path / "gen.json"
            cfg.write_text(json.dumps({**GEN_CFG, key: huge}))
            err = self.refused(capsys, tmp_path / "c", "generate", "--config", str(cfg))
        else:
            config = ({**TRAIN_CFG, key: huge} if section == "train config"
                      else {**TRAIN_CFG, section: {key: huge}})
            cfg, err = self.train_refused(tmp_path, corpus_dir, capsys, config)
        assert f"{cfg}: {section}: {key!r} must be a number, got {str(huge)[:60]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["2", 2.0, True])
    def test_encoder_checkpoint_config(self, tmp_path, corpus_dir, capsys, value):
        from advmt import checkpoint, model

        enc = model.init_encoder(model.EncoderConfig(
            input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16))
        ckpt = tmp_path / "encoder.ckpt"
        checkpoint.save(ckpt, "encoder", {**asdict(enc.config), "num_heads": value},
                        enc.parameters() + enc.frame_statistics())
        err = self.refused(capsys, tmp_path / "p.csv", "predict", "--checkpoint", str(ckpt),
                           "--input", str(corpus_dir / "test" / "walk_0000.csv"))
        assert f"{ckpt}: encoder config: 'num_heads' must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("key,value,expected", [
        ("hidden_dims", "8", "a JSON list"), ("input_dim", 6.0, "an integer"),
        ("input_dim", True, "an integer"),
    ])
    def test_discriminator_checkpoint_config(self, tmp_path, key, value, expected):
        from advmt import checkpoint
        from advmt import discriminator as disc_mod
        from advmt.errors import CheckpointError

        disc = disc_mod.init_discriminator(
            disc_mod.DiscriminatorConfig(input_dim=6, hidden_dims=(8,)), seed=0)
        ckpt = tmp_path / "disc.ckpt"
        checkpoint.save(ckpt, "discriminator", {**asdict(disc.config), key: value},
                        disc.parameters())
        with pytest.raises(CheckpointError) as exc:  # an AdvmtError: exit 2 from the CLI
            disc_mod.load_checkpoint(ckpt)
        assert str(exc.value) == (
            f"{ckpt}: discriminator config: {key!r} must be {expected}, got {value!r}")


class TestEval:
    def test_history_frames_must_match_the_checkpoint(self, tmp_path, corpus_dir, trained_dir,
                                                      capsys):
        ckpt = trained_dir / "encoder.ckpt"
        assert run("eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x"), "--history-frames", "40") == 2
        assert (f"--history-frames 40 does not match the 50-frame history of {ckpt}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
        assert run("eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "y"), "--history-frames", "50") == 0

    def test_baseline_only_history_frames_must_match_the_tabled_checkpoints(
            self, tmp_path, corpus_dir, trained_dir, capsys):
        """``report.csv``'s zero-velocity rows are scored on --history-frames windows,
        ``ablation.csv``'s on each checkpoint's own; a run must score one window set."""
        ckpt = trained_dir / "encoder.ckpt"
        argv = ["eval", "--baseline-only", "--ablate", f"v={ckpt}",
                "--data", str(corpus_dir / "manifest.json")]
        assert run(*argv, "--history-frames", "40", "--out", str(tmp_path / "x")) == 2
        assert (f"--history-frames 40 does not match the 50-frame history of {ckpt}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
        assert run(*argv, "--history-frames", "50", "--out", str(tmp_path / "y")) == 0

    def test_report_columns_and_roundtrip(self, tmp_path, corpus_dir, trained_dir):
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out),
                   "--horizons", "160,400,560,720,880,1000") == 0
        report = EvalReport.from_csv(out / "report.csv")
        assert report.horizons_ms == (160, 400, 560, 720, 880, 1000)
        assert set(report.systems()) == {"model", "zero_velocity"}

    def test_baseline_only(self, tmp_path, corpus_dir):
        out = tmp_path / "base"
        assert run("eval", "--baseline-only", "--history-frames", "50",
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out)) == 0
        report = EvalReport.from_csv(out / "report.csv")
        assert report.systems() == ("zero_velocity",)

    def test_ablation_grid(self, tmp_path, corpus_dir, trained_dir):
        out = tmp_path / "ablate"
        assert run("eval", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--label", "full",
                   "--ablate", f"variant={trained_dir / 'encoder.ckpt'}",
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out)) == 0
        rows = (out / "ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,horizon_ms,mpjpe_mm"
        assert len(rows) == 1 + 2 * 6

    def test_model_rows_of_the_ablation_table_are_the_report_cells(self, tmp_path, corpus_dir,
                                                                   trained_dir):
        """The ``--checkpoint`` rows of ``ablation.csv`` are ``report.csv``'s ``model,all``
        cells as text, horizon by horizon; a variant's rows come from its own model."""
        from advmt import model

        other = tmp_path / "other.ckpt"
        model.save_checkpoint(model.init_encoder(model.EncoderConfig(
            input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16)), other)
        out = tmp_path / "ablate"
        assert run("eval", "--checkpoint", str(trained_dir / "encoder.ckpt"), "--label", "full",
                   "--ablate", f"other={other}", "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out)) == 0
        cells = [line.split(",", 2)[2] for line in (out / "report.csv").read_text().splitlines()
                 if line.startswith("model,all,")]
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert len(cells) == 6
        assert [row.split(",", 1)[1] for row in rows if row.startswith("full,")] == cells
        variant = [row.split(",", 1)[1] for row in rows if row.startswith("other,")]
        assert [row.split(",")[0] for row in variant] == [cell.split(",")[0] for cell in cells]
        assert variant != cells

    def test_baseline_only_tables_exactly_the_ablate_rows_in_order(self, tmp_path, corpus_dir,
                                                                   trained_dir):
        ckpt = trained_dir / "encoder.ckpt"
        out = tmp_path / "ablate"
        assert run("eval", "--baseline-only", "--history-frames", "50", "--checkpoint", str(ckpt),
                   "--ablate", f"b={ckpt}", "--ablate", f"a={ckpt}",
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out)) == 0
        rows = [row.split(",")[:2] for row in (out / "ablation.csv").read_text().splitlines()[1:]]
        horizons = ["160", "400", "560", "720", "880", "1000"]
        assert rows == [[label, ms] for label in ("b", "a") for ms in horizons]

    def test_same_run_twice_writes_the_same_bytes(self, tmp_path, corpus_dir, trained_dir):
        ckpt = trained_dir / "encoder.ckpt"
        outs = [tmp_path / "one", tmp_path / "two"]
        for out in outs:
            assert run("eval", "--checkpoint", str(ckpt), "--render", "2", "--label", "full",
                       "--ablate", f"v={ckpt}", "--data", str(corpus_dir / "manifest.json"),
                       "--out", str(out)) == 0
        for name in ("report.csv", "ablation.csv", "strip_000.svg", "strip_001.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("char", ["\n", "\r"], ids=["LF", "CR"])
    @pytest.mark.parametrize("flag", ["--checkpoint", "--data"])
    def test_file_name_with_a_line_break_exits_2(self, tmp_path, corpus_dir, trained_dir, capsys,
                                                 flag, char):
        """Each base name fills a comment line of ``report.csv``; ``nl<LF>x.ckpt`` split it
        in two, and ``EvalReport.from_csv`` failed on the report."""
        paths = {"--checkpoint": trained_dir / "encoder.ckpt",
                 "--data": corpus_dir / "manifest.json"}
        bad = paths[flag].with_name(f"nl{char}x{paths[flag].suffix}")
        bad.write_bytes(paths[flag].read_bytes())
        paths[flag] = bad
        out = tmp_path / "x"
        assert run("eval", "--checkpoint", str(paths["--checkpoint"]),
                   "--data", str(paths["--data"]), "--out", str(out)) == 2
        assert (f"{flag} file name must have no line break, got {bad.name!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--label", "full,clip"], "--label must be text with no comma or newline, "
                                   "got 'full,clip'"),
        (["--label", "full\nclip"], "--label must be text with no comma or newline"),
        (["--ablate", "a,b={ckpt}"], "--ablate label must be text with no comma or newline, "
                                     "got 'a,b'"),
        (["--ablate", "a\rb={ckpt}"], "--ablate label must be text with no comma or newline"),
    ])
    def test_label_that_is_not_one_csv_cell_exits_2(self, tmp_path, corpus_dir, trained_dir,
                                                    capsys, flags, named):
        """A label is the first cell of an ``ablation.csv`` row; a comma in it made rows of
        five cells."""
        ckpt = trained_dir / "encoder.ckpt"
        out = tmp_path / "x"
        assert run("eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(out), "--ablate", f"v={ckpt}",
                   *[flag.format(ckpt=ckpt) for flag in flags]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_file_name_that_is_not_one_csv_cell_exits_2(self, tmp_path, corpus_dir,
                                                                   trained_dir, capsys):
        """Without ``--label`` the file name labels the model's ``ablation.csv`` rows;
        ``a,b.ckpt`` wrote rows of four cells under a three-cell header."""
        ckpt = tmp_path / "a,b.ckpt"
        ckpt.write_bytes((trained_dir / "encoder.ckpt").read_bytes())
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir / "manifest.json"),
                "--ablate", f"v={ckpt}"]
        assert run(*argv, "--out", str(tmp_path / "x")) == 2
        assert ("--checkpoint file name (the ablation label unless --label is given) must be "
                "text with no comma or newline, got 'a,b.ckpt'" in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
        assert run(*argv, "--out", str(tmp_path / "y"), "--label", "full") == 0
        rows = (tmp_path / "y" / "ablation.csv").read_text().splitlines()
        assert all(len(row.split(",")) == 3 for row in rows)

    @pytest.mark.parametrize("flags", [[], ["--baseline-only", "--history-frames", "50"]],
                             ids=["checkpoint", "baseline_only"])
    def test_ablation_checkpoints_must_share_one_history_length(self, tmp_path, corpus_dir,
                                                                 capsys, flags):
        """``evaluate`` windows each model by its own history length, so a 50-frame and
        a 20-frame checkpoint were scored on different windows in one table."""
        from advmt import model

        def checkpoint(name, history_len):
            path = tmp_path / name
            model.save_checkpoint(model.init_encoder(model.EncoderConfig(
                input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16,
                history_len=history_len)), path)
            return path

        full, same, short = (checkpoint("full.ckpt", 50), checkpoint("same.ckpt", 50),
                             checkpoint("short.ckpt", 20))
        argv = ["eval", "--data", str(corpus_dir / "manifest.json"), "--out", str(tmp_path / "x"),
                *flags, "--checkpoint", str(full), "--ablate", f"same={same}",
                "--ablate", f"short={short}"]
        assert run(*argv) == 2
        first = same if flags else full  # --baseline-only puts no --checkpoint row in the table
        assert (f"{short} has a 20-frame history, but {first} has 50: every checkpoint "
                "of an ablation table must share one history length" in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
        assert run(*argv[:-2]) == 0

    def test_render_strips(self, tmp_path, corpus_dir, trained_dir):
        out = tmp_path / "strips"
        assert run("eval", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(out),
                   "--render", "2") == 0
        assert (out / "strip_000.svg").exists()
        assert (out / "strip_001.svg").exists()

    def test_render_skips_sequences_too_short_to_window(self, tmp_path):
        from advmt import model
        from advmt.data import CorpusConfig, generate_corpus, write_corpus
        from advmt.skeleton import MotionSequence, SkeletonTopology

        cs = generate_corpus(CorpusConfig(n_train=1, n_test=2, n_frames=78),
                             SkeletonTopology.default_17())
        first = cs.test.sequences[0]
        cs.test.sequences[0] = MotionSequence(frames=first.frames[:60], fps=first.fps,
                                              action_label=first.action_label)
        manifest = write_corpus(cs, tmp_path / "corpus")
        ckpt = tmp_path / "encoder.ckpt"
        model.save_checkpoint(model.init_encoder(model.EncoderConfig(
            input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16)), ckpt)
        out = tmp_path / "strips"
        assert run("eval", "--checkpoint", str(ckpt), "--data", manifest,
                   "--out", str(out), "--render", "1") == 0
        assert (out / "strip_000.svg").exists()

    def test_render_with_baseline_only_exits_2(self, tmp_path, corpus_dir, capsys):
        """With no model there is no forecast to draw; it exited 0 and drew nothing."""
        assert run("eval", "--baseline-only", "--history-frames", "50", "--render", "1",
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "--render" in err and "--baseline-only" in err
        assert not (tmp_path / "x").exists()

    def test_negative_render_exits_2(self, tmp_path, corpus_dir, trained_dir, capsys):
        assert run("eval", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(tmp_path / "x"),
                   "--render", "-1") == 2
        assert "--render must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("horizons,named", [
        ("", "--horizons: invalid literal for int() with base 10: ''"),
        ("160,x", "--horizons: invalid literal for int() with base 10: 'x'"),
        ("0", "--horizons: a horizon must be positive, got 0 ms"),
        ("-40", "--horizons: a horizon must be positive, got -40 ms"),
        ("160,167", "--horizons: 167 ms is not a multiple of the 40 ms frame period"),
        ("160,400,160", "--horizons: horizon 160 ms is given twice"),
    ], ids=["empty", "not_a_number", "zero", "negative", "off_period", "repeated"])
    def test_bad_horizons_exit_2(self, tmp_path, corpus_dir, horizons, named, capsys):
        """Each refusal names the flag and the bad entry, before any output."""
        assert run("eval", "--baseline-only", "--history-frames", "50",
                   "--data", str(corpus_dir / "manifest.json"), "--out", str(tmp_path / "x"),
                   "--horizons", horizons) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, corpus_dir):
        assert run("eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--data", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "x")) == 2


class TestMalformedCorpus:
    """Malformed corpus input exits 2 with a message naming its file and key."""

    def edit(self, path, change):
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(change(raw)))

    def refused(self, capsys, *argv):
        assert run(*argv) == 2
        return capsys.readouterr().err

    def test_manifest_without_topology(self, corpus_dir, capsys):
        manifest = corpus_dir / "manifest.json"
        self.edit(manifest, lambda raw: {"sequences": raw["sequences"]})
        err = self.refused(capsys, "validate", "--data", str(manifest))
        assert f"{manifest}: missing key 'topology'" in err

    def test_sequence_without_split(self, corpus_dir, capsys):
        manifest = corpus_dir / "manifest.json"

        def drop_split(raw):
            del raw["sequences"][1]["split"]
            return raw

        self.edit(manifest, drop_split)
        err = self.refused(capsys, "validate", "--data", str(manifest))
        assert f"{manifest}: sequences[1]: missing key 'split'" in err

    def test_manifest_is_a_list(self, corpus_dir, capsys):
        manifest = corpus_dir / "manifest.json"
        self.edit(manifest, lambda raw: raw["sequences"])
        err = self.refused(capsys, "validate", "--data", str(manifest))
        assert f"{manifest}: expected a JSON object, got list" in err

    @pytest.mark.parametrize("key,bad", [("path", 7), ("split", ["train"])])
    def test_sequence_value_of_wrong_type(self, corpus_dir, capsys, key, bad):
        manifest = corpus_dir / "manifest.json"

        def spoil(raw):
            raw["sequences"][1][key] = bad
            return raw

        self.edit(manifest, spoil)
        err = self.refused(capsys, "validate", "--data", str(manifest))
        assert f"{manifest}: sequences[1]: {key!r} must be a string, got {bad!r}" in err

    @pytest.mark.parametrize("bad", [["walk"], "walk,fast", "walk\nfast", 3])
    def test_action_that_is_not_one_csv_cell(self, tmp_path, corpus_dir, capsys, bad):
        """An action is a cell of ``report.csv``: a list ended in an unhashable-type
        traceback, and a comma wrote rows that ``EvalReport.from_csv`` could not read."""
        manifest = corpus_dir / "manifest.json"

        def spoil(raw):
            raw["sequences"][1]["action"] = bad
            return raw

        self.edit(manifest, spoil)
        out = tmp_path / "x"
        err = self.refused(capsys, "eval", "--baseline-only", "--history-frames", "50",
                           "--data", str(manifest), "--out", str(out))
        assert (f"{manifest}: sequences[1]: 'action' must be text with no comma or newline, "
                f"got {bad!r}") in err
        assert not out.exists()

    def skeleton_refusals(self, tmp_path, corpus_dir, capsys):
        """stderr of ``validate`` and of ``predict --skeleton``, each of which must exit 2."""
        from advmt import model

        ckpt = tmp_path / "encoder.ckpt"
        model.save_checkpoint(model.init_encoder(model.EncoderConfig(
            input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16)), ckpt)
        return [self.refused(capsys, "validate", "--data", str(corpus_dir / "manifest.json")),
                self.refused(capsys, "predict", "--checkpoint", str(ckpt), "--skeleton",
                             str(corpus_dir / "skeleton.json"), "--input",
                             str(corpus_dir / "test" / "walk_0000.csv"),
                             "--out", str(tmp_path / "p.csv"))]

    def test_skeleton_without_parent(self, tmp_path, corpus_dir, capsys):
        skeleton = corpus_dir / "skeleton.json"
        self.edit(skeleton, lambda raw: {"joint_names": raw["joint_names"]})
        for err in self.skeleton_refusals(tmp_path, corpus_dir, capsys):
            assert f"{skeleton}: missing key 'parent'" in err

    @pytest.mark.parametrize("key,bad,expected", [
        ("joint_names", 3, "a list of strings"),
        ("parent", "0", "a list of joint indices or null")])
    def test_skeleton_value_of_wrong_type(self, tmp_path, corpus_dir, capsys, key, bad,
                                          expected):
        skeleton = corpus_dir / "skeleton.json"

        def spoil(raw):
            raw[key][1] = bad
            return raw

        self.edit(skeleton, spoil)
        for err in self.skeleton_refusals(tmp_path, corpus_dir, capsys):
            assert f"{skeleton}: {key!r} must be {expected}" in err


class TestPredict:
    def test_rollout_from_csv(self, tmp_path, corpus_dir, trained_dir):
        src = corpus_dir / "test" / "walk_0000.csv"
        out = tmp_path / "pred.csv"
        assert run("predict", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--input", str(src), "--frames", "10", "--out", str(out)) == 0
        from advmt.data import load_csv
        from advmt.skeleton import SkeletonTopology

        seq = load_csv(out, SkeletonTopology.default_17())
        assert seq.n_frames == 10

    def test_csv_equals_its_row_of_the_stacked_rollout(self, tmp_path, corpus_dir, trained_dir):
        """``predict`` forecasts one history through the loop that rolls out a stack."""
        from advmt import model
        from advmt.data import load_corpus, load_csv, save_csv
        from advmt.evaluation import collect_windows
        from advmt.skeleton import MotionSequence, SkeletonTopology

        topo = SkeletonTopology.default_17()
        ckpt = trained_dir / "encoder.ckpt"
        windows = collect_windows(load_corpus(corpus_dir / "manifest.json").test, 50, 25, 5)
        stacked = model.rollout(model.load_checkpoint(ckpt), np.stack([w.input for w in windows]),
                                10)
        for k in (0, len(windows) - 1):
            src, out = tmp_path / f"history_{k}.csv", tmp_path / f"pred_{k}.csv"
            save_csv(MotionSequence(frames=windows[k].input, fps=25), src, topo.joint_names)
            assert run("predict", "--checkpoint", str(ckpt), "--input", str(src),
                       "--frames", "10", "--out", str(out)) == 0
            assert load_csv(out, topo).frames.tobytes() == stacked[k].tobytes()

    @pytest.mark.parametrize("frames", ["0", "-2"])
    def test_no_frames_exits_2_naming_the_flag(self, tmp_path, corpus_dir, trained_dir, capsys,
                                               frames):
        out = tmp_path / "p.csv"
        assert run("predict", "--checkpoint", str(trained_dir / "encoder.ckpt"), "--input",
                   str(corpus_dir / "test" / "walk_0000.csv"), "--frames", frames,
                   "--out", str(out)) == 2
        assert f"--frames must be >= 1, got {frames}" in capsys.readouterr().err
        assert not out.exists()

    def test_short_history_exits_2(self, tmp_path, trained_dir):
        from advmt.data import save_csv
        from advmt.skeleton import MotionSequence, SkeletonTopology

        topo = SkeletonTopology.default_17()
        src = tmp_path / "short.csv"
        save_csv(MotionSequence(frames=np.zeros((5, 17, 3)), fps=25), src, topo.joint_names)
        assert run("predict", "--checkpoint", str(trained_dir / "encoder.ckpt"),
                   "--input", str(src), "--out", str(tmp_path / "p.csv")) == 2


    def test_checkpoint_config_not_an_object_exits_2(self, tmp_path, non_object_checkpoint,
                                                     capsys):
        assert run("predict", "--checkpoint", str(non_object_checkpoint), "--input",
                   str(tmp_path / "history.csv"), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert f"{non_object_checkpoint}: config block: expected a JSON object, got " in err
        assert "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()


class TestGradcheck:
    def test_passes(self, capsys):
        assert run("gradcheck", "--instances", "2") == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_exits_2(self, capsys, instances):
        assert run("gradcheck", "--instances", instances) == 2
        captured = capsys.readouterr()
        assert f"instances must be >= 1, got {instances}" in captured.err
        assert "PASS" not in captured.out

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        import advmt.tensor as tensor_mod

        real_relu = tensor_mod.relu

        def broken_relu(a):
            out = real_relu(a)
            if out._vjp is not None:
                orig = out._vjp
                out._vjp = lambda g: [(p, 1.5 * c) for p, c in orig(g)]
            return out

        monkeypatch.setattr(tensor_mod, "relu", broken_relu)
        assert run("gradcheck", "--instances", "1") == 1
        out = capsys.readouterr()
        assert "relu" in out.err


def test_python_dash_m_runs_the_cli():
    """``python -m advmt`` is the ``advmt`` command."""
    from advmt import __version__

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-m", "advmt", "--version"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"advmt {__version__}"


def test_one_parser_per_process_parses_each_command_afresh():
    """``main`` reuses one parser, so parsing must leave nothing of one command
    line behind for the next, an appended ``--ablate`` list included."""
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    evaluate = ["eval", "--data", "d", "--out", "o", "--ablate", "a=x"]
    first = vars(parser.parse_args(evaluate))
    predict = vars(parser.parse_args(["predict", "--checkpoint", "c", "--input", "i",
                                      "--out", "p"]))
    assert vars(parser.parse_args(evaluate)) == first
    assert first["ablate"] == ["a=x"] and first["handler"] is cli.cmd_eval
    assert "ablate" not in predict and predict["handler"] is cli.cmd_predict


def test_readme_commands_parse():
    """Every ``advmt`` command line in README.md's code blocks, with its ``\\``
    continuations joined, parses with the current flags; none is run. A renamed
    or removed flag fails here instead of misleading a reader."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.S | re.M)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("advmt ")]
    assert commands
    parser = cli.build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                refused.append(shlex.join(["advmt", *argv]))
    assert not refused
