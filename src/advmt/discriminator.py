"""Temporal continuity discriminator: a frame-wise MLP scoring the realism
of pose velocities (frame-to-frame differences), trained least-squares
adversarially with real label 0 and fake label 1.

The score consumes only differences, so it is invariant to any constant
offset added to all absolute poses of a sequence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, List, Optional

import numpy as np

from . import checkpoint, tensor
from .errors import ConfigurationError, ContractError, DimensionError
from .model import Linear
from .tensor import Tensor, as_tensor


@dataclass(frozen=True)
class DiscriminatorConfig:
    input_dim: int  # 3N, one flattened frame difference
    hidden_dims: tuple = (128, 64)
    RETIRED: ClassVar[dict] = {"activation": "relu"}

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be positive")
        if not self.hidden_dims or any(type(d) is not int or d < 1 for d in self.hidden_dims):
            raise ConfigurationError(
                f"hidden_dims must be non-empty integers >= 1, got {list(self.hidden_dims)}")


class DiscriminatorModel:
    """MLP: 3N -> hidden_dims -> 1 scalar score per frame difference.

    The output layer starts at zero so initial scores sit at 0 regardless
    of the millimetre scale of the velocity inputs; the score scale then
    grows toward the 0/1 labels instead of starting orders of magnitude
    beyond them.
    """

    def __init__(self, config: DiscriminatorConfig, rng: Optional[np.random.Generator]):
        self.config = config
        dims = (config.input_dim,) + config.hidden_dims + (1,)
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 2)]
        self.layers.append(Linear(dims[-2], dims[-1], None))

    def parameters(self) -> List[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: Tensor, frozen: bool = False) -> Tensor:
        """(..., 3N) -> (..., 1). With ``frozen`` the weights are detached,
        so no gradient can reach discriminator parameters."""
        for i, layer in enumerate(self.layers):
            w = layer.W.detach() if frozen else layer.W
            b = layer.b.detach() if frozen else layer.b
            x = tensor.linear(x, w, b)
            if i < len(self.layers) - 1:
                x = tensor.relu(x)
        return x


def init_discriminator(config: DiscriminatorConfig, seed: int = 0) -> DiscriminatorModel:
    return DiscriminatorModel(config, np.random.default_rng(seed))


def _flatten_deltas(deltas, input_dim: int) -> Tensor:
    t = as_tensor(deltas)
    if t.ndim < 2:
        raise DimensionError(f"deltas must be at least rank 2, got shape {t.shape}")
    if t.shape[-1] != input_dim and not (t.ndim >= 3 and t.shape[-1] * t.shape[-2] == input_dim):
        raise DimensionError(
            f"delta shape {t.shape} does not flatten to rows of {input_dim} values"
        )
    return t.reshape((-1, input_dim))


def score(disc, deltas, frozen: bool = False) -> Tensor:
    """Per-frame scalar scores for (M, N, 3) or (M, 3N) frame differences.

    No squashing on the output (least-squares convention).
    """
    flat = _flatten_deltas(deltas, disc.config.input_dim)
    out = disc.forward(flat, frozen=frozen)
    return out.reshape((flat.shape[0],))


def discriminator_loss(disc, real_deltas, fake_deltas) -> Tensor:
    """mean D(real)^2 + mean (1 - D(fake))^2; labels exactly real=0, fake=1.

    The fake side is detached: no gradient flows back into whatever
    produced the fakes.
    """
    real = as_tensor(real_deltas)
    fake = as_tensor(fake_deltas).detach()
    if real.size == 0 or fake.size == 0:
        raise ContractError("discriminator_loss requires non-empty real and fake deltas")
    s_real = score(disc, real)
    s_fake = score(disc, fake)
    return (s_real * s_real).mean() + ((1.0 - s_fake) * (1.0 - s_fake)).mean()


def generator_adversarial_loss(disc, fake_deltas) -> Tensor:
    """mean D(fake)^2: pulls generated velocities toward the real label 0.

    Discriminator weights are treated as constants; gradients flow only
    into the fake deltas.
    """
    fake = as_tensor(fake_deltas)
    if fake.size == 0:
        raise ContractError("generator_adversarial_loss requires non-empty fake deltas")
    s_fake = score(disc, fake, frozen=True)
    return (s_fake * s_fake).mean()


def save_checkpoint(disc: DiscriminatorModel, path):
    checkpoint.save(path, "discriminator", asdict(disc.config), disc.parameters())


def load_checkpoint(path) -> DiscriminatorModel:
    _, config, flat = checkpoint.load(path, "discriminator", DiscriminatorConfig)
    disc = DiscriminatorModel(config, rng=None)
    checkpoint.fill_params(path, disc.parameters(), flat)
    return disc
