from dataclasses import asdict, fields

import numpy as np
import pytest

from advmt.data import CorpusConfig, generate_corpus
from advmt.discriminator import DiscriminatorConfig
from advmt.errors import (
    ConfigurationError, ContractError, DivergenceError, HorizonError, build_config,
)
from advmt.losses import LossWeights
from advmt.model import EncoderConfig
from advmt import tensor
from advmt.tensor import Tensor, global_grad_norm
from advmt.training import Adam, StepRecord, TrainConfig, Trainer, clip_gradients, fit


def small_corpus(topo, n_train=4, n_test=2, frames=78):
    return generate_corpus(
        CorpusConfig(n_train=n_train, n_test=n_test, n_frames=frames), topo
    )


def small_setup(topo, corpus=None, **cfg_overrides):
    """A deliberately tiny encoder so training tests stay fast."""
    cs = corpus or small_corpus(topo)
    cfg = TrainConfig(**{"epochs": 1, "batch_size": 4, "seed": 1, **cfg_overrides})
    enc_cfg = EncoderConfig(
        input_dim=51, num_layers=1, num_heads=2, model_dim=16, ff_dim=16,
        history_len=cfg.history_frames,
    )
    disc_cfg = DiscriminatorConfig(input_dim=51, hidden_dims=(16,))
    return cs, cfg, enc_cfg, disc_cfg


class TestConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)

    def test_weights_dict_coerced(self):
        cfg = TrainConfig(weights={"lambda_bone": 0.5})
        assert cfg.weights == LossWeights(lambda_bone=0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config(TrainConfig, {"epochs": 1, "bogus": 2}, "train config")

    def test_dict_roundtrip(self):
        cfg = TrainConfig(epochs=3, weights=LossWeights(lambda_adv=0.2))
        assert build_config(TrainConfig, asdict(cfg), "train config") == cfg

    def test_legacy_rollout_mode_accepted(self):
        raw = {"epochs": 2, "rollout_mode": "full_autoregressive"}
        assert build_config(TrainConfig, raw, "train config") == TrainConfig(epochs=2)
        assert raw["rollout_mode"] == "full_autoregressive"  # the caller's dict is left alone

    def test_other_rollout_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="rollout_mode"):
            build_config(TrainConfig, {"rollout_mode": "teacher_forcing"}, "train config")

    @pytest.mark.parametrize("key, kept, other", [
        ("adam_beta1", 0.9, 0.8), ("adam_beta2", 0.999, 0.99), ("adam_eps", 1e-8, 1e-6),
    ])
    def test_retired_adam_knobs(self, key, kept, other):
        raw = {"epochs": 2, key: kept}
        assert build_config(TrainConfig, raw, "train config") == TrainConfig(epochs=2)
        with pytest.raises(ConfigurationError, match=f"unsupported {key} {other!r}"):
            build_config(TrainConfig, {key: other}, "train config")

    def test_retired_loss_norm_l2_loads(self):
        weights = {"lambda_adv": 0.2, "loss_norm": "l2"}
        assert TrainConfig(weights=weights).weights == LossWeights(lambda_adv=0.2)
        assert weights["loss_norm"] == "l2"  # the caller's dict is left alone

    def test_retired_loss_norm_l2_squared_refused(self):
        with pytest.raises(ConfigurationError, match="loss_norm 'l2_squared'"):
            build_config(TrainConfig, {"weights": {"loss_norm": "l2_squared"}}, "train config")

    def test_negative_checkpoint_every_rejected(self):
        """``epoch % -1 == 0``, so -1 checkpointed every epoch."""
        with pytest.raises(ConfigurationError, match=r"^checkpoint_every must be >= 0, got -1$"):
            TrainConfig(checkpoint_every=-1)

    @pytest.mark.parametrize("cls,key", [
        (TrainConfig, "lr_encoder"), (TrainConfig, "grad_clip_norm"),
        (LossWeights, "lambda_bone"), (CorpusConfig, "amplitude_scale"),
    ])
    def test_float_field_takes_a_json_integer(self, cls, key):
        """A ``float`` field takes any JSON number that is not a bool, so 1 loads."""
        assert getattr(build_config(cls, {key: 1}, "config"), key) == 1

    @pytest.mark.parametrize("name", ["lr_encoder", "lr_disc"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, name, value):
        """A NaN or infinite rate would train to a checkpoint of NaN parameters."""
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} must be finite and positive, got {value}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_amplitude_scale_must_be_finite(self, value):
        with pytest.raises(ConfigurationError,
                           match=rf"^amplitude_scale must be finite, got {value}$"):
            CorpusConfig(amplitude_scale=value)
        assert CorpusConfig(amplitude_scale=-0.5).amplitude_scale == -0.5  # a finite scale loads


class TestAdam:
    def test_minimizes_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-3


class TestClipping:
    def test_clip_engages(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        pre = clip_gradients([w], 1.0)
        assert pre == pytest.approx(20.0)
        assert np.sqrt((w.grad ** 2).sum()) <= 1.0 + 1e-9

    def test_infinite_norm_disables(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        clip_gradients([w], float("inf"))
        assert np.array_equal(w.grad, np.full(4, 10.0))


class TestTrainStep:
    def test_supervised_reduction_leaves_disc_untouched(self, topo17):
        cs, cfg, enc_cfg, disc_cfg = small_setup(
            topo17,
            weights={"lambda_bone": 0.1, "lambda_adv": 0.0},
            disc_steps_per_gen_step=0,
        )
        enc, disc, _ = fit(cs, cfg, encoder_config=enc_cfg, disc_config=disc_cfg)
        rng = np.random.default_rng(cfg.seed)
        from advmt.model import EncoderModel
        from advmt.discriminator import DiscriminatorModel

        EncoderModel(enc_cfg, rng)  # same draws as the trained run
        reference = DiscriminatorModel(disc_cfg, rng)
        for a, b in zip(disc.parameters(), reference.parameters()):
            assert np.array_equal(a.data, b.data)
        assert all(r.adversarial == 0.0 for r in _.records)

    def test_empty_batch_rejected(self, topo17):
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        from advmt.model import EncoderModel
        from advmt.discriminator import DiscriminatorModel

        rng = np.random.default_rng(0)
        trainer = Trainer(EncoderModel(enc_cfg, rng), DiscriminatorModel(disc_cfg, rng),
                          topo17, cfg)
        with pytest.raises(ContractError):
            trainer.train_step([])

    def test_divergence_detected(self, topo17):
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        from advmt.model import EncoderModel
        from advmt.discriminator import DiscriminatorModel
        from advmt.data import window

        rng = np.random.default_rng(0)
        enc = EncoderModel(enc_cfg, rng)
        enc.head.W.data[:] = np.nan
        trainer = Trainer(enc, DiscriminatorModel(disc_cfg, rng), topo17, cfg)
        batch = window(cs.train.sequences[0], 50, 25, 5)[:2]
        with pytest.raises(DivergenceError):
            trainer.train_step(batch)

    @staticmethod
    def still_window_trainer(topo17):
        """A zeroed head on a window that never moves: the forecast lands
        exactly on every truth joint, so every joint distance is 0."""
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        from advmt.data import WindowedSample
        from advmt.discriminator import DiscriminatorModel
        from advmt.model import EncoderModel

        rng = np.random.default_rng(0)
        enc = EncoderModel(enc_cfg, rng)
        for p in enc.head.params():
            p.data[:] = 0.0  # a zeroed head repeats the last observed frame exactly
        frame = cs.train.sequences[0].frames[:1]
        still = WindowedSample(input=np.repeat(frame, 50, axis=0),
                               target=np.repeat(frame, 25, axis=0))
        return enc, Trainer(enc, DiscriminatorModel(disc_cfg, rng), topo17, cfg), still

    def test_zero_distance_trains_with_finite_gradients(self, topo17):
        # sqrt's vjp takes a zero subgradient at 0, so a position error at
        # zero distance no longer divides by zero: not when every joint is hit
        # (the gradient is then exactly zero), nor when only some are
        from advmt.data import WindowedSample

        enc, trainer, still = self.still_window_trainer(topo17)
        target = still.target.copy()
        target[1:, 1:] += 10.0  # the first frame and joint 0 are still hit exactly
        partly = WindowedSample(input=still.input, target=target)
        for sample, mpjpe_is_zero in ((still, True), (partly, False)):
            before = [p.data.copy() for p in enc.parameters()]
            with np.errstate(divide="raise", invalid="raise"):
                record = trainer.train_step([sample])
            assert (record.mpjpe == 0.0) == mpjpe_is_zero
            assert np.isfinite(global_grad_norm(enc.parameters()))
            assert all(np.isfinite(p.data).all() for p in enc.parameters())
        assert any(not np.array_equal(a, p.data) for a, p in zip(before, enc.parameters()))

    def test_default_step_graph_node_count(self, topo17, monkeypatch):
        """Pinned so the graph of a default batch-8 train step cannot grow
        unnoticed: 733 nodes with the rollout stacking its predictions, 710
        once it concatenated the frames its windows take in and each forward
        pass took its output frame once, 687 once the inverse std was one
        encoder buffer in place of a new leaf per forward pass, 515 with
        one window-in and one frame-out node per forward pass in place of
        the input and output chains, 415 with one node per encoder layer
        in place of its attention and feed-forward nodes, 315 with one
        encoder-stack node per forward pass in place of the window-in node
        and the layer nodes, and 266 with the head and the pose mean's
        ``add`` inside that node."""
        from advmt.data import window
        from advmt.discriminator import DiscriminatorModel
        from advmt.model import EncoderModel

        corpus = generate_corpus(CorpusConfig(n_train=1, n_test=0, n_frames=110), topo17)
        batch = window(corpus.train.sequences[0], 50, 25, 5)
        assert len(batch) == 8
        rng = np.random.default_rng(0)
        trainer = Trainer(EncoderModel(EncoderConfig(input_dim=51), rng),
                          DiscriminatorModel(DiscriminatorConfig(input_dim=51), rng),
                          topo17, TrainConfig())
        roots = []
        backward = Tensor.backward
        monkeypatch.setattr(Tensor, "backward", lambda self: (roots.append(self), backward(self)))
        trainer.train_step(batch)
        assert len(roots) == 2  # the discriminator's loss, then the encoder's

        seen, todo = {id(roots[-1])}, [roots[-1]]
        while todo:
            for parent in todo.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        assert len(seen) == 266

    def test_nan_gradient_stops_before_adam_step(self, topo17, monkeypatch):
        # A backward rule that yields NaN (injected into sqrt's, which the
        # position error uses) leaves the loss finite but the gradient norm
        # NaN, which clipping cannot scale.
        real_sqrt = tensor.sqrt

        def nan_sqrt(x):
            out = real_sqrt(x)
            if out._vjp is not None:
                vjp = out._vjp
                out._vjp = lambda g: [(p, c * np.nan) for p, c in vjp(g)]
            return out

        monkeypatch.setattr(tensor, "sqrt", nan_sqrt)
        enc, trainer, still = self.still_window_trainer(topo17)
        before = [p.data.copy() for p in enc.parameters()]
        with pytest.raises(DivergenceError, match="non-finite encoder gradient norm"):
            trainer.train_step([still])
        assert all(np.array_equal(a, p.data) for a, p in zip(before, enc.parameters()))


class TestFit:
    def test_requires_windows(self, topo17):
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        short = generate_corpus(CorpusConfig(n_train=2, n_test=0, n_frames=30), topo17)
        with pytest.raises(ConfigurationError):
            fit(short, cfg, encoder_config=enc_cfg, disc_config=disc_cfg)

    def test_fps_without_whole_ms_period_refused_before_training(self, topo17, monkeypatch):
        corpus = generate_corpus(CorpusConfig(n_train=4, n_test=2, n_frames=78, fps=30), topo17)
        _, cfg, enc_cfg, disc_cfg = small_setup(topo17, corpus=corpus)
        steps = []
        monkeypatch.setattr(Trainer, "train_step", lambda self, batch: steps.append(batch))
        with pytest.raises(HorizonError, match="30 fps"):
            fit(corpus, cfg, encoder_config=enc_cfg, disc_config=disc_cfg)
        assert steps == []

    def test_no_validation_columns_without_a_scorable_horizon(self, topo17):
        # without a test split any fps trains; with one, a span shorter than
        # every horizon (160 ms is 4 frames at 25 fps) trains unscored
        no_test = generate_corpus(CorpusConfig(n_train=4, n_test=0, n_frames=78, fps=30), topo17)
        for corpus, overrides in ((no_test, {}), (None, {"predict_frames": 3})):
            cs, cfg, enc_cfg, disc_cfg = small_setup(topo17, corpus=corpus, **overrides)
            _, _, log = fit(cs, cfg, encoder_config=enc_cfg, disc_config=disc_cfg)
            assert [r.val_mpjpe for r in log.records] == [{}]

    def test_deterministic_across_runs(self, topo17, tmp_path):
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17, epochs=2)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        enc_a, _, log_a = fit(cs, cfg, out_dir=out_a,
                              encoder_config=enc_cfg, disc_config=disc_cfg)
        enc_b, _, log_b = fit(cs, cfg, out_dir=out_b,
                              encoder_config=enc_cfg, disc_config=disc_cfg)
        for a, b in zip(enc_a.parameters(), enc_b.parameters()):
            assert np.array_equal(a.data, b.data)
        for ra, rb in zip(log_a.records, log_b.records):
            assert ra.total == rb.total
            assert ra.val_mpjpe == rb.val_mpjpe
        assert (out_a / "encoder.ckpt").read_bytes() == (out_b / "encoder.ckpt").read_bytes()
        assert (out_a / "discriminator.ckpt").read_bytes() == (out_b / "discriminator.ckpt").read_bytes()

        def without_seconds(path):  # the last column is wall time
            return [line.rsplit(b",", 1)[0] for line in path.read_bytes().splitlines()]

        assert without_seconds(out_a / "trainlog.csv") == without_seconds(out_b / "trainlog.csv")

    def test_epoch_row_is_the_mean_of_its_step_records(self, topo17, tmp_path, monkeypatch):
        # 16 steps an epoch: numpy's pairwise sum would differ from step order
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17, epochs=2, batch_size=1,
                                                 window_stride=1)
        steps = []
        train_step = Trainer.train_step
        monkeypatch.setattr(Trainer, "train_step",
                            lambda self, batch: steps.append(train_step(self, batch)) or steps[-1])
        _, _, log = fit(cs, cfg, out_dir=tmp_path, encoder_config=enc_cfg, disc_config=disc_cfg)
        assert len(steps) == 32 and all(type(step) is StepRecord for step in steps)

        names = [f.name for f in fields(StepRecord)]
        for record, epoch_steps in zip(log.records, (steps[:16], steps[16:])):
            for name in names:
                total = 0.0
                for step in epoch_steps:
                    total += getattr(step, name)
                assert getattr(record, name) == total / 16, name

        header = (tmp_path / "trainlog.csv").read_text().splitlines()[0].split(",")
        horizons = sorted(log.records[0].val_mpjpe)
        assert horizons
        assert header == ["epoch", *names, *(f"val_mpjpe_{ms}" for ms in horizons), "seconds"]

    def test_checkpoint_matches_in_memory_model(self, topo17, tmp_path):
        from advmt.evaluation import HorizonSet, evaluate
        from advmt.model import load_checkpoint

        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        enc, _, _ = fit(cs, cfg, out_dir=tmp_path,
                        encoder_config=enc_cfg, disc_config=disc_cfg)
        loaded = load_checkpoint(tmp_path / "encoder.ckpt")
        horizons = HorizonSet(milliseconds=(400, 1000))
        in_memory = evaluate(enc, cs.test, horizons)
        reloaded = evaluate(loaded, cs.test, horizons)
        assert in_memory.value("model", "all", 1000) == reloaded.value("model", "all", 1000)

    def test_test_split_does_not_reach_checkpoint(self, topo17, tmp_path):
        # normalization statistics come from the train split only
        cs_a = small_corpus(topo17)
        cs_b = generate_corpus(
            CorpusConfig(n_train=4, n_test=2, n_frames=78, test_seed_base=500), topo17
        )
        assert all(np.array_equal(a.frames, b.frames)
                   for a, b in zip(cs_a.train.sequences, cs_b.train.sequences))
        assert not np.array_equal(cs_a.test.sequences[0].frames, cs_b.test.sequences[0].frames)
        for name, cs in (("a", cs_a), ("b", cs_b)):
            _, cfg, enc_cfg, disc_cfg = small_setup(topo17, corpus=cs)
            fit(cs, cfg, out_dir=tmp_path / name, encoder_config=enc_cfg, disc_config=disc_cfg)
        assert (tmp_path / "a" / "encoder.ckpt").read_bytes() == \
            (tmp_path / "b" / "encoder.ckpt").read_bytes()

    def test_log_and_checkpoint_cadence(self, topo17, tmp_path):
        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17, epochs=2, checkpoint_every=1)
        _, _, log = fit(cs, cfg, out_dir=tmp_path,
                        encoder_config=enc_cfg, disc_config=disc_cfg)
        assert [r.epoch for r in log.records] == [1, 2]
        assert (tmp_path / "encoder_ep001.ckpt").exists()
        assert (tmp_path / "encoder_ep002.ckpt").exists()
        assert (tmp_path / "trainlog.csv").exists()
        header = (tmp_path / "trainlog.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,mpjpe,bone,adversarial,total,disc_loss")

    def test_gradient_isolation_between_updates(self, topo17):
        # after a full step the encoder only saw total_loss gradients and the
        # discriminator only saw discriminator_loss gradients; run one manual
        # alternation to assert the crossed grads stay empty
        from advmt.data import window
        from advmt.discriminator import DiscriminatorModel, discriminator_loss
        from advmt.model import EncoderModel, rollout_graph

        cs, cfg, enc_cfg, disc_cfg = small_setup(topo17)
        rng = np.random.default_rng(0)
        enc = EncoderModel(enc_cfg, rng)
        disc = DiscriminatorModel(disc_cfg, rng)
        disc.layers[-1].W.data[:] = 0.1
        batch = window(cs.train.sequences[0], 50, 25, 5)[:2]
        inputs = np.stack([s.input for s in batch])
        targets = np.stack([s.target for s in batch])
        b = inputs.shape[0]
        preds = rollout_graph(enc, Tensor(inputs.reshape(b, 50, 51)), 25)

        real_seq = np.concatenate([inputs[:, -1:], targets], axis=1)
        real = (real_seq[:, 1:] - real_seq[:, :-1]).reshape(-1, 51)
        fake_full = np.concatenate([inputs[:, -1].reshape(b, 1, 51), preds.data], axis=1)
        fake = (fake_full[:, 1:] - fake_full[:, :-1]).reshape(-1, 51)
        discriminator_loss(disc, real, fake).backward()
        assert all(p.grad is None for p in enc.parameters())
        assert all(p.grad is not None for p in disc.parameters())

        for p in disc.parameters():
            p.zero_grad()
        from advmt.losses import total_loss

        loss, _ = total_loss(preds.reshape((b, 25, 17, 3)), targets, topo17, disc,
                             cfg.weights, last_observed=inputs[:, -1])
        loss.backward()
        assert all(p.grad is not None for p in enc.parameters())
        assert all(p.grad is None for p in disc.parameters())


@pytest.mark.slow
class TestLearningSmoke:
    def test_mpjpe_decreases_over_epochs(self, topo17):
        # 20-sequence walk corpus, ~200 steps by epoch 10
        cs = generate_corpus(CorpusConfig(n_train=20, n_test=0, n_frames=80), topo17)
        cfg = TrainConfig(epochs=10, batch_size=3, seed=0, window_stride=2)
        enc_cfg = EncoderConfig(input_dim=51, num_layers=2, num_heads=2,
                                model_dim=32, ff_dim=48, history_len=50)
        _, _, log = fit(cs, cfg, encoder_config=enc_cfg)
        assert log.records[9].mpjpe < log.records[0].mpjpe
