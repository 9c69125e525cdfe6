import numpy as np
import pytest

from advmt.discriminator import (
    DiscriminatorConfig,
    DiscriminatorModel,
    discriminator_loss,
    generator_adversarial_loss,
    init_discriminator,
    load_checkpoint,
    save_checkpoint,
    score,
)
from advmt.errors import CheckpointError, ConfigurationError, ContractError, DimensionError
from advmt.skeleton import temporal_difference
from advmt.tensor import Tensor


def zero_disc(input_dim=6):
    return DiscriminatorModel(DiscriminatorConfig(input_dim=input_dim, hidden_dims=(8, 4)), None)


class ConstantScorer:
    """Duck-typed stand-in producing a fixed score for every frame difference."""

    def __init__(self, value, input_dim=6):
        self.config = DiscriminatorConfig(input_dim=input_dim, hidden_dims=(1,))
        self.value = value

    def forward(self, x, frozen=False):
        return Tensor(np.full((x.shape[0], 1), self.value))


class LabelingScorer:
    """Scores rows by a provided rule; used to realize the loss optimum."""

    def __init__(self, rule, input_dim=6):
        self.config = DiscriminatorConfig(input_dim=input_dim, hidden_dims=(1,))
        self.rule = rule

    def forward(self, x, frozen=False):
        vals = np.array([self.rule(row) for row in x.data])
        return Tensor(vals.reshape(-1, 1))


class TestScore:
    def test_zero_init_scores_zero(self, rng):
        disc = zero_disc()
        out = score(disc, rng.standard_normal((5, 2, 3)))
        assert np.array_equal(out.data, np.zeros(5))

    def test_default_init_output_layer_starts_at_zero(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6), seed=1)
        out = score(disc, rng.standard_normal((4, 2, 3)) * 1000.0)
        assert np.array_equal(out.data, np.zeros(4))

    def test_deterministic(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8,)), seed=2)
        disc.layers[-1].W.data[:] = 0.3
        deltas = rng.standard_normal((5, 2, 3))
        assert np.array_equal(score(disc, deltas).data, score(disc, deltas).data)

    def test_shape_mismatch(self, rng):
        disc = zero_disc()
        with pytest.raises(DimensionError):
            score(disc, rng.standard_normal((5, 4)))

    def test_flat_rows_accepted(self, rng):
        disc = zero_disc()
        assert score(disc, rng.standard_normal((5, 6))).shape == (5,)

    def test_translation_invariance_through_differences(self, rng, topo17):
        # the scorer consumes differences, and differences of a globally
        # translated sequence are unchanged, so scores match bitwise;
        # integer coordinates keep the translation free of rounding
        disc = init_discriminator(DiscriminatorConfig(input_dim=51, hidden_dims=(8,)), seed=0)
        disc.layers[-1].W.data[:] = 0.05
        frames = rng.integers(-500, 500, size=(6, 17, 3)).astype(np.float64)
        shifted = frames + np.array([123.0, -45.0, 6.0])
        d1 = temporal_difference(frames)
        d2 = temporal_difference(shifted)
        assert np.array_equal(d1, d2)
        assert np.array_equal(score(disc, d1).data, score(disc, d2).data)


class TestDiscriminatorLoss:
    def test_perfect_discriminator_gives_exactly_zero(self, rng):
        real = np.abs(rng.standard_normal((4, 2, 3)))
        fake = -np.abs(rng.standard_normal((3, 2, 3))) - 0.1
        stub = LabelingScorer(lambda row: 0.0 if row.sum() > 0 else 1.0)
        assert discriminator_loss(stub, real, fake).item() == 0.0

    def test_zero_output_gives_exactly_one(self, rng):
        disc = zero_disc()
        real = rng.standard_normal((4, 2, 3))
        fake = rng.standard_normal((4, 2, 3))
        assert discriminator_loss(disc, real, fake).item() == 1.0

    def test_matches_scalar_recomputation(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(5,)), seed=4)
        disc.layers[-1].W.data[:] = rng.standard_normal((5, 1)) * 0.4
        real = rng.standard_normal((3, 2, 3))
        fake = rng.standard_normal((4, 2, 3))
        got = discriminator_loss(disc, real, fake).item()
        s_real = score(disc, real).data
        s_fake = score(disc, fake).data
        expected = 0.0
        for s in s_real:
            expected += s * s / len(s_real)
        for s in s_fake:
            expected += (1.0 - s) * (1.0 - s) / len(s_fake)
        assert abs(got - expected) < 1e-12

    def test_empty_rejected(self, rng):
        with pytest.raises(ContractError):
            discriminator_loss(zero_disc(), np.zeros((0, 6)), rng.standard_normal((2, 6)))

    def test_no_gradient_into_fakes(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(5,)), seed=4)
        disc.layers[-1].W.data[:] = 0.2
        fake = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        real = rng.standard_normal((4, 6))
        discriminator_loss(disc, real, fake).backward()
        assert fake.grad is None
        assert all(p.grad is not None for p in disc.parameters())


class TestGeneratorLoss:
    def test_zero_scorer_gives_zero(self, rng):
        assert generator_adversarial_loss(zero_disc(), rng.standard_normal((3, 2, 3))).item() == 0.0

    def test_unit_scorer_gives_one(self, rng):
        stub = ConstantScorer(1.0)
        assert generator_adversarial_loss(stub, rng.standard_normal((5, 2, 3))).item() == 1.0

    def test_no_gradient_into_disc_params(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(5,)), seed=4)
        disc.layers[-1].W.data[:] = 0.2
        fake = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        generator_adversarial_loss(disc, fake).backward()
        assert fake.grad is not None
        assert all(p.grad is None for p in disc.parameters())

    def test_nonnegative_and_zero_only_at_label(self, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(5,)), seed=4)
        disc.layers[-1].W.data[:] = 0.3
        value = generator_adversarial_loss(disc, rng.standard_normal((4, 6))).item()
        assert value >= 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), seed=7)
        path = tmp_path / "disc.ckpt"
        save_checkpoint(disc, path)
        loaded = load_checkpoint(path)
        assert loaded.config == disc.config
        for a, b in zip(disc.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_encoder_checkpoint_rejected(self, tmp_path):
        from advmt.model import EncoderConfig, init_encoder, save_checkpoint as save_enc

        enc = init_encoder(EncoderConfig(input_dim=6, num_layers=1, num_heads=2,
                                         model_dim=8, ff_dim=8, history_len=4), seed=0)
        path = tmp_path / "enc.ckpt"
        save_enc(enc, path)
        with pytest.raises(Exception, match="kind"):
            load_checkpoint(path)

    def test_config_block_not_an_object_refused(self, non_object_checkpoint):
        with pytest.raises(CheckpointError, match=r"config\.ckpt: config block: expected a JSON "
                                                  r"object, got (list|str|int)$"):
            load_checkpoint(non_object_checkpoint)

    def _save_with_config(self, disc, path, **extra):
        from dataclasses import asdict

        from advmt import checkpoint

        checkpoint.save(path, "discriminator", {**asdict(disc.config), **extra},
                        disc.parameters())

    def test_legacy_activation_key_loads(self, tmp_path):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), seed=7)
        path = tmp_path / "disc.ckpt"
        self._save_with_config(disc, path, activation="relu")
        loaded = load_checkpoint(path)
        assert loaded.config == disc.config
        for a, b in zip(disc.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_zero_hidden_width_refused(self, tmp_path):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), seed=7)
        path = tmp_path / "disc.ckpt"
        self._save_with_config(disc, path, hidden_dims=[8, 0])
        with pytest.raises(CheckpointError, match=r"disc\.ckpt: hidden_dims must be non-empty "
                                                  r"integers >= 1, got \[8, 0\]$"):
            load_checkpoint(path)

    def test_other_activation_refused(self, tmp_path):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), seed=7)
        path = tmp_path / "disc.ckpt"
        self._save_with_config(disc, path, activation="tanh")
        with pytest.raises(CheckpointError, match="activation 'tanh'"):
            load_checkpoint(path)

    def test_non_finite_parameter_refused(self, tmp_path):
        disc = init_discriminator(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), seed=7)
        disc.layers[0].W.data[1, 2] = np.inf
        path = tmp_path / "disc.ckpt"
        save_checkpoint(disc, path)
        with pytest.raises(CheckpointError, match="disc.ckpt.*1 non-finite"):
            load_checkpoint(path)


class TestConfigValidation:
    def test_hidden_dims_non_empty(self):
        with pytest.raises(ConfigurationError):
            DiscriminatorConfig(input_dim=6, hidden_dims=())

    @pytest.mark.parametrize("dims", [(0,), (8, -4), (True,), (2.5,)])
    def test_hidden_widths_are_integers_of_at_least_one(self, dims):
        """A zero width left the score to the output bias alone."""
        with pytest.raises(ConfigurationError,
                           match=r"^hidden_dims must be non-empty integers >= 1, got \["):
            DiscriminatorConfig(input_dim=6, hidden_dims=dims)
