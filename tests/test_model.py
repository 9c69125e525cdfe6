import copy
import math

import numpy as np
import pytest

from advmt import model as model_mod
from advmt.errors import CheckpointError, ConfigurationError, ContractError
from advmt.model import (
    EncoderConfig,
    EncoderLayer,
    compute_frame_statistics,
    init_encoder,
    load_checkpoint,
    positional_encoding,
    predict_next,
    rollout,
    rollout_graph,
    save_checkpoint,
)
from advmt.tensor import Tensor, encoder_stack, no_grad, source


def tiny_config(**overrides):
    base = dict(input_dim=6, num_layers=2, num_heads=2, model_dim=16,
                ff_dim=24, history_len=8)
    base.update(overrides)
    return EncoderConfig(**base)


@pytest.fixture
def tiny_model():
    return init_encoder(tiny_config(), seed=3)


def set_random_statistics(model, rng):
    """Install non-identity frame statistics; returns them."""
    stats = (rng.standard_normal(6) * 50, rng.uniform(5.0, 80.0, 6), rng.uniform(1.0, 9.0, 6))
    model.set_frame_statistics(*stats)
    return stats


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = positional_encoding(4, 8)
        assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_bounded(self):
        pe = positional_encoding(1000, 64)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_matches_formula(self):
        pe = positional_encoding(3, 4)
        assert abs(pe[1, 0] - math.sin(1.0)) < 1e-12
        assert abs(pe[1, 1] - math.cos(1.0)) < 1e-12
        assert abs(pe[1, 2] - math.sin(1.0 / 10000 ** (2 / 4))) < 1e-12
        assert abs(pe[1, 3] - math.cos(1.0 / 10000 ** (2 / 4))) < 1e-12

    def test_closed_form_everywhere(self):
        d = 10
        pe = positional_encoding(50, d)
        for p in range(50):
            for i in range(0, d, 2):
                angle = p / 10000 ** (i / d)
                assert abs(pe[p, i] - math.sin(angle)) < 1e-12
                assert abs(pe[p, i + 1] - math.cos(angle)) < 1e-12


class TestAttentionBlock:
    def test_rows_sum_to_one(self, rng):
        cfg = tiny_config()
        layer = EncoderLayer(cfg, rng)
        collected = []
        layer(source(Tensor(rng.standard_normal((8, 16)))), collect=collected)
        (probs,) = collected
        assert probs.shape == (2, 8, 8)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_zeroed_outputs_make_identity(self, rng):
        layer = EncoderLayer(tiny_config(), rng)
        layer.wo.W.data[:] = 0.0
        layer.wo.b.data[:] = 0.0
        layer.ff2.W.data[:] = 0.0
        layer.ff2.b.data[:] = 0.0
        x = rng.standard_normal((8, 16))
        out = encoder_stack(layer(source(Tensor(x))))
        assert np.array_equal(out.data, x)


class TestPredictNext:
    def test_deterministic(self, tiny_model, rng):
        history = rng.standard_normal((8, 2, 3))
        a = predict_next(tiny_model, history)
        b = predict_next(tiny_model, history)
        assert np.array_equal(a.joints, b.joints)

    def test_output_shape(self, tiny_model, rng):
        out = predict_next(tiny_model, rng.standard_normal((8, 2, 3)))
        assert out.joints.shape == (2, 3)

    def test_wrong_history_length(self, tiny_model, rng):
        with pytest.raises(ContractError):
            predict_next(tiny_model, rng.standard_normal((7, 2, 3)))

    def test_predict_delta_adds_last_frame(self, rng):
        model = init_encoder(tiny_config(), seed=3)
        set_random_statistics(model, rng)
        for p in model.head.params():
            p.data[:] = 0.0
        # zeroed head means the prediction is exactly the last observed frame
        history = rng.standard_normal((8, 2, 3))
        out = predict_next(model, history)
        assert np.array_equal(out.joints, history[-1])

    def test_root_translation_equivariant(self, tiny_model, rng):
        set_random_statistics(tiny_model, rng)
        history = rng.standard_normal((8, 2, 3))
        shift = np.array([1500.0, -700.0, 930.0])
        moved = predict_next(tiny_model, history + shift).joints
        assert np.abs(moved - shift - predict_next(tiny_model, history).joints).max() < 1e-9


class TestFrameStatistics:
    def test_root_relative_and_displacements(self, rng):
        inputs = rng.standard_normal((3, 8, 2, 3)) * 10 + 500.0
        inputs[:, :, 0] = inputs[:, :1, 0]  # the root stays put within each window
        targets = rng.standard_normal((3, 4, 2, 3)) * 10 + 500.0
        mean, std, delta_scale = compute_frame_statistics(inputs, targets)
        relative = (inputs - inputs[:, -1:, :1, :]).reshape(-1, 6)
        chain = np.concatenate([inputs, targets], axis=1)
        deltas = (chain[:, 1:] - chain[:, :-1]).reshape(-1, 6)
        assert np.abs(mean - relative.mean(axis=0)).max() < 1e-12
        # a root that stays put never moves in its own frame: its std floors
        # to a tenth of the mean std
        raw_std = relative.std(axis=0)
        assert np.abs(std[:3] - 0.1 * raw_std.mean()).max() < 1e-12
        assert np.abs(std[3:] - raw_std[3:]).max() < 1e-12
        assert np.abs(delta_scale - np.sqrt((deltas ** 2).mean(axis=0))).max() < 1e-12

    def test_constant_data_scales_to_one_mm(self):
        mean, std, delta_scale = compute_frame_statistics(np.ones((2, 8, 2, 3)),
                                                          np.ones((2, 4, 2, 3)))
        assert np.array_equal(std, np.ones(6)) and np.array_equal(delta_scale, np.ones(6))

    def test_invalid_statistics_rejected(self, tiny_model):
        with pytest.raises(ContractError):
            tiny_model.set_frame_statistics(np.zeros(6), np.zeros(6), np.ones(6))
        with pytest.raises(ContractError):
            tiny_model.set_frame_statistics(np.zeros(5), np.ones(5), np.ones(5))


class TestRollout:
    def test_single_step_matches_predict_next(self, tiny_model, rng):
        history = rng.standard_normal((8, 2, 3))
        assert np.array_equal(
            rollout(tiny_model, history, 1)[0], predict_next(tiny_model, history).joints
        )

    def test_prefix_consistency_bitwise(self, tiny_model, rng):
        history = rng.standard_normal((8, 2, 3))
        long = rollout(tiny_model, history, 25)
        short = rollout(tiny_model, history, 10)
        assert np.array_equal(long[:10], short)

    def test_two_second_horizon_from_two_second_history(self, rng):
        model = init_encoder(EncoderConfig(input_dim=6, num_layers=1, num_heads=2,
                                           model_dim=8, ff_dim=8, history_len=50), seed=0)
        out = rollout(model, rng.standard_normal((50, 2, 3)), 50)
        assert out.shape == (50, 2, 3)
        assert np.isfinite(out).all()

    def test_l_frames_validated(self, tiny_model, rng):
        with pytest.raises(ContractError):
            rollout(tiny_model, rng.standard_normal((8, 2, 3)), 0)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("w", [1, 7, 9, 20])
    def test_stack_equals_single_histories_bitwise(self, monkeypatch, tiny_model, rng, cpus, w):
        """A (W, T, N, 3) stack goes through the same chunked, threaded loop as
        one history, and each row is that history's own forecast."""
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: cpus)
        set_random_statistics(tiny_model, rng)
        histories = rng.standard_normal((w, 8, 2, 3)) * 100
        stacked = rollout(tiny_model, histories, 6)
        assert stacked.shape == (w, 6, 2, 3)
        single = np.stack([rollout(tiny_model, h, 6) for h in histories])
        assert stacked.tobytes() == single.tobytes()

    @pytest.mark.parametrize("shape", [(7, 2, 3), (8, 3, 3), (8, 3, 2), (8, 6), (2, 2, 8, 2, 3),
                                       (2, 7, 2, 3)], ids=lambda s: "x".join(map(str, s)))
    def test_history_shape_validated(self, tiny_model, shape):
        with pytest.raises(ContractError, match=r"history must be \(8, N, 3\) or "
                                                r"\(W, 8, N, 3\) with 3N = 6, got "):
            rollout(tiny_model, np.zeros(shape), 3)

    def test_negative_l_frames_validated(self, tiny_model):
        with pytest.raises(ContractError, match="l_frames must be >= 1, got -1"):
            rollout(tiny_model, np.zeros((2, 8, 2, 3)), -1)


class TestNoGradPath:
    """Under ``no_grad`` a forecast runs each block's array forward directly;
    it must give the bytes of the graph path on the default-size encoder."""

    @pytest.fixture(scope="class")
    def enc(self):
        enc = init_encoder(EncoderConfig(input_dim=51), seed=2)
        rng = np.random.default_rng(5)
        enc.set_frame_statistics(rng.standard_normal(51) * 50, rng.uniform(50.0, 150.0, 51),
                                 rng.uniform(5.0, 15.0, 51))
        return enc

    @staticmethod
    def histories(w):
        h = np.random.default_rng(w).standard_normal((w, 50, 17, 3)) * 100
        h[0, -1, 0, 1] = -0.0  # a -0.0 root coordinate in the last frame
        return h

    @pytest.mark.parametrize("w", [1, 8])
    def test_rollout_equals_the_graph_rollout_bitwise(self, enc, w):
        h = self.histories(w)
        graph = rollout_graph(enc, Tensor(h.reshape(w, 50, 51)), 25)
        assert graph.requires_grad
        assert rollout(enc, h, 25).tobytes() == graph.data.reshape(w, 25, 17, 3).tobytes()

    @pytest.mark.parametrize("batch", [(8,), ()], ids=["batch8", "unbatched"])
    def test_forward_window_and_attention_equal_the_graph_path(self, enc, batch):
        x = self.histories(batch[0] if batch else 1).reshape(batch + (50, 51))
        attn, attn_graph = [], []
        with no_grad():
            out = enc.forward_window(Tensor(x), collect_attention=attn)
        ref = enc.forward_window(Tensor(x), collect_attention=attn_graph)
        assert ref.requires_grad and not out.requires_grad and out._parents == ()
        assert out.data.tobytes() == ref.data.tobytes()
        assert [a.shape for a in attn] == [batch + (4, 50, 50)] * 3 + [batch + (4, 2, 50)]
        assert [a.tobytes() for a in attn] == [a.tobytes() for a in attn_graph]

    def test_a_forecast_builds_no_stage_and_two_tensors_per_frame(self, monkeypatch, enc):
        """Through the stages, a frame built six tensors and ten stages."""
        from advmt import tensor

        built = {"Tensor": 0, "Stage": 0}
        init, new = Tensor.__init__, tensor.Stage.__new__

        def counted_init(self, *args, **kwargs):
            built["Tensor"] += 1
            init(self, *args, **kwargs)

        def counted_new(cls, *args, **kwargs):
            built["Stage"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted_init)
        monkeypatch.setattr(tensor.Stage, "__new__", counted_new)
        rollout(enc, self.histories(1)[0], 25)
        assert built["Stage"] == 0
        assert built["Tensor"] <= 2 * 25 + 2  # each frame's window and prediction


class _Unpruned:
    """The last layer with its ``rows`` argument ignored: every token's output."""

    def __init__(self, layer):
        self.layer = layer

    def __call__(self, x, collect=None, rows=None):
        return self.layer(x, collect=collect)


class TestQueryPruning:
    """The pruned last layer against an oracle that runs it on all rows and
    lets the head read row -1, on the default-size encoder (input 51)."""

    @pytest.fixture(scope="class")
    def models(self):
        enc = init_encoder(EncoderConfig(input_dim=51), seed=1)
        enc.set_frame_statistics(np.zeros(51), np.full(51, 100.0), np.full(51, 10.0))
        oracle = copy.copy(enc)  # shares every parameter tensor with enc
        oracle.layers = enc.layers[:-1] + [_Unpruned(enc.layers[-1])]
        return enc, oracle

    @pytest.mark.parametrize("batch", [(8,), (1,), ()], ids=["batch8", "batch1", "unbatched"])
    def test_forward_and_rollout_bitwise(self, models, batch):
        enc, oracle = models
        rng = np.random.default_rng(len(batch) + sum(batch))
        window = Tensor(rng.standard_normal(batch + (50, 51)) * 100)
        attn, attn_oracle = [], []
        with no_grad():
            out = enc.forward_window(window, collect_attention=attn).data
            ref = oracle.forward_window(window, collect_attention=attn_oracle).data
            frames = rollout_graph(enc, window, 25).data
            frames_ref = rollout_graph(oracle, window, 25).data
        assert attn[-1].shape == batch + (4, 2, 50)  # the last layer queried two rows
        assert attn_oracle[-1].shape == batch + (4, 50, 50)
        assert out.tobytes() == ref.tobytes()
        assert frames.tobytes() == frames_ref.tobytes()

    @pytest.mark.parametrize("batch", [(8,), (1,), ()], ids=["batch8", "batch1", "unbatched"])
    def test_gradients_agree(self, models, batch):
        """Within 1e-12 of the gradients' global norm, not bitwise: the oracle
        also sums products over the 48 rows whose gradient is zero, which
        changes the rounding of the sums the two paths share."""
        enc, oracle = models
        rng = np.random.default_rng(3)
        window = rng.standard_normal(batch + (50, 51)) * 100
        c = rng.standard_normal(batch + (3, 51))

        def grads(model):
            for p in enc.parameters():
                p.zero_grad()
            (rollout_graph(model, Tensor(window), 3) * c).sum().backward()
            return [p.grad.copy() for p in enc.parameters()]

        pruned, ref = grads(enc), grads(oracle)
        norm = math.sqrt(sum(float((g * g).sum()) for g in ref))
        worst = max(float(np.abs(a - b).max()) for a, b in zip(pruned, ref))
        assert worst <= 1e-12 * norm


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(input_dim=6, num_heads=3, model_dim=16)

    def test_param_count_function_of_config(self):
        a = init_encoder(tiny_config(), seed=0)
        b = init_encoder(tiny_config(), seed=99)
        shapes_a = [p.shape for p in a.parameters()]
        shapes_b = [p.shape for p in b.parameters()]
        assert shapes_a == shapes_b


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tiny_model, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == tiny_model.config
        for a, b in zip(tiny_model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_roundtrip_preserves_predictions(self, tiny_model, tmp_path, rng):
        set_random_statistics(tiny_model, rng)
        history = rng.standard_normal((8, 2, 3))
        before = predict_next(tiny_model, history).joints
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        after = predict_next(load_checkpoint(path), history).joints
        assert np.array_equal(before, after)

    def test_wrong_version_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_one_encoder_refused(self, tiny_model, tmp_path):
        # a version 1 file carries no statistics; loading it into the
        # normalized frame would change its predictions
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw[: len(raw) - 3 * 6 * 8]))
        with pytest.raises(CheckpointError, match="normalization statistics"):
            load_checkpoint(path)

    def test_nonpositive_statistics_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.zeros(1).tobytes()  # last displacement scale
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="normalization statistics"):
            load_checkpoint(path)

    def test_non_finite_parameter_refused(self, tiny_model, tmp_path):
        tiny_model.head.W.data[0, 0] = np.nan
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        with pytest.raises(CheckpointError, match="enc.ckpt.*1 non-finite"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_block_not_an_object_refused(self, non_object_checkpoint):
        with pytest.raises(CheckpointError, match=r"config\.ckpt: config block: expected a JSON "
                                                  r"object, got (list|str|int)$"):
            load_checkpoint(non_object_checkpoint)

    def _save_with_config(self, model, path, **changes):
        """Save ``model`` with its config block edited; a None value drops the key."""
        from dataclasses import asdict

        from advmt import checkpoint

        config = {**asdict(model.config), **changes}
        config = {k: v for k, v in config.items() if v is not None}
        checkpoint.save(path, "encoder", config, model.parameters() + model.frame_statistics())

    def test_stray_config_key_refused(self, tiny_model, tmp_path):
        path = tmp_path / "stray.ckpt"
        self._save_with_config(tiny_model, path, num_layerz=2)
        with pytest.raises(CheckpointError, match=r"stray\.ckpt: .*num_layerz"):
            load_checkpoint(path)

    def test_missing_config_key_refused(self, tiny_model, tmp_path):
        path = tmp_path / "missing.ckpt"
        self._save_with_config(tiny_model, path, input_dim=None)
        with pytest.raises(CheckpointError, match=r"missing\.ckpt: .*missing .*input_dim"):
            load_checkpoint(path)

    def test_retired_predict_delta_true_loads(self, tiny_model, tmp_path, rng):
        set_random_statistics(tiny_model, rng)
        path = tmp_path / "old.ckpt"
        self._save_with_config(tiny_model, path, predict_delta=True)
        loaded = load_checkpoint(path)
        assert loaded.config == tiny_model.config
        history = rng.standard_normal((8, 2, 3))
        assert np.array_equal(predict_next(loaded, history).joints,
                              predict_next(tiny_model, history).joints)

    @pytest.mark.parametrize("value", [False, 1])
    def test_retired_predict_delta_other_value_refused(self, tiny_model, tmp_path, value):
        path = tmp_path / "position.ckpt"
        self._save_with_config(tiny_model, path, predict_delta=value)
        with pytest.raises(CheckpointError, match=rf"position\.ckpt: .*predict_delta {value}"):
            load_checkpoint(path)
