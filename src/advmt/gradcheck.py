"""Finite-difference verification of every backward rule.

Central differences with step 1e-5 at 64-bit; probes are unit-scale so
floating-point roundoff in the difference quotient stays far below the
tolerances. The reported error is |analytic - numeric| / max(|analytic|,
|numeric|, 1), i.e. relative with a unit floor so near-zero gradients
compare absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import tensor
from .discriminator import (
    DiscriminatorConfig,
    DiscriminatorModel,
    generator_adversarial_loss,
    score,
)
from .errors import ContractError
from .losses import LossWeights, mpjpe, total_loss
from .model import EncoderConfig, EncoderLayer, EncoderModel, rollout_graph
from .skeleton import SkeletonTopology
from .tensor import Tensor

STEP = 1e-5


def _difference(f: Callable, x: np.ndarray, i: int, step: float = STEP) -> float:
    """Central difference of scalar f() in flat coordinate i of x, which is
    perturbed in place and restored."""
    orig = x.flat[i]
    x.flat[i] = orig + step
    fp = f()
    x.flat[i] = orig - step
    fm = f()
    x.flat[i] = orig
    return (fp - fm) / (2.0 * step)


def central_difference(f: Callable, x: np.ndarray, step: float = STEP) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    probe = x.copy()
    numeric = [_difference(lambda: f(probe), probe, i, step) for i in range(probe.size)]
    return np.reshape(numeric, x.shape)


def relative_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


@dataclass
class OpCheck:
    op: str
    tolerance: float
    worst: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance


def _check_instance(rng, params, arrays, forward, coords) -> float:
    """One instance: every coordinate of every input array, then ``coords``
    parameter coordinates sampled with ``rng``, against one backward pass.
    Each coordinate is perturbed in place and restored."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    forward(inputs).backward()
    probes = [(t.grad, a, i) for t, a in zip(inputs, arrays) for i in range(a.size)]
    for _ in range(coords):
        p = params[int(rng.integers(len(params)))]
        probes.append((p.grad, p.data, int(rng.integers(p.size))))

    def value():
        return forward([Tensor(a) for a in arrays]).item()

    worst = 0.0
    for grad, x, i in probes:
        analytic = 0.0 if grad is None else grad.flat[i]
        worst = max(worst, relative_error(analytic, _difference(value, x, i)))
    return worst


def _probe(*builds, coords=0):
    """Suite runner over probe builders ``rng -> (parameters, input arrays,
    forward(list of Tensors) -> scalar Tensor)``: ``instances`` builds of
    each, checked by ``_check_instance``."""
    return lambda rng, instances: max(
        _check_instance(rng, *build(rng), coords) for build in builds for _ in range(instances)
    )


# -- per-op probes -------------------------------------------------------------


def _normal(rng, shape):
    return rng.standard_normal(shape)


def _positive(rng, shape):
    """Unit-scale values at least 0.5 from sqrt's singularity at 0."""
    return rng.uniform(0.5, 2.0, shape)


def _signed(rng, shape):
    """Unit-scale values at least 0.5 from abs's kink at 0."""
    return rng.choice((-1.0, 1.0), shape) * _positive(rng, shape)


def _op(fn, *shapes, draw=_normal):
    """Probe builder: ``fn`` on inputs of ``shapes``, contracted with a random
    cotangent of the output's shape. A string names a ``tensor`` function,
    looked up on every build so that a patched op is the one checked."""

    def build(rng):
        op = getattr(tensor, fn) if isinstance(fn, str) else fn
        arrays = [draw(rng, shape) for shape in shapes]
        c = rng.standard_normal(op(*(Tensor(a) for a in arrays)).shape)
        return [], arrays, lambda ts: (op(*ts) * c).sum()

    return build


def _mlp(x, w1, b1, w2):
    out = tensor.relu(x @ w1 + b1) @ w2
    return out * out  # one node feeding both operands of a product


def _tiny_encoder(rng):
    cfg = EncoderConfig(
        input_dim=6, num_layers=2, num_heads=2, model_dim=16, ff_dim=24, history_len=8
    )
    return EncoderModel(cfg, rng)


def _live_discriminator(rng, input_dim):
    """A small discriminator with a random output layer. At init that layer
    is zero, which zeroes every gradient below it and leaves the layers
    under it unchecked."""
    disc = DiscriminatorModel(DiscriminatorConfig(input_dim=input_dim, hidden_dims=(8, 4)), rng)
    out = disc.layers[-1]
    out.W.data = rng.standard_normal(out.W.shape)
    return disc


def _chain_topology(n):
    return SkeletonTopology(
        joint_names=tuple(f"j{i}" for i in range(n)),
        parent=(None,) + tuple(range(n - 1)),
    )


# -- model-level probes --------------------------------------------------------


def _encoder_layer(rng):
    cfg = EncoderConfig(input_dim=6, num_layers=1, num_heads=2, model_dim=16, ff_dim=24,
                        history_len=6)
    layer = EncoderLayer(cfg, rng)
    x, c = rng.standard_normal((6, 16)), rng.standard_normal((6, 16))
    stacked = lambda ts: tensor.encoder_stack(layer(tensor.source(ts[0])))
    return layer.params(), [x], lambda ts: (stacked(ts) * c).sum()


def _rollout(l_frames):
    """Parameters and the observed window, through an ``l_frames`` rollout.

    Statistics are non-identity and the window's last root is off the
    origin, so the window gradient covers the root anchor as well as the
    standardization. From ``l_frames`` = 2 on, predicted frames re-enter
    the window through ``concat`` and slicing.
    """

    def build(rng):
        enc = _tiny_encoder(rng)
        enc.set_frame_statistics(
            rng.standard_normal(6), rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6)
        )
        hist = rng.standard_normal((8, 6)) + np.tile(rng.uniform(1.0, 2.0, 3), 2)
        target = rng.standard_normal((l_frames, 2, 3))
        return enc.parameters(), [hist], lambda ts: mpjpe(
            rollout_graph(enc, ts[0], l_frames).reshape(target.shape), target)

    return build


def _disc_score(rng):
    disc = _live_discriminator(rng, 6)
    deltas, c = Tensor(rng.standard_normal((5, 2, 3))), rng.standard_normal(5)
    return disc.parameters(), [], lambda ts: (score(disc, deltas) * c).sum()


def _generator_adv(rng):
    disc = _live_discriminator(rng, 6)
    return [], [rng.standard_normal((4, 2, 3))], lambda ts: generator_adversarial_loss(disc, ts[0])


def _total_loss_pred(rng):
    disc, topo = _live_discriminator(rng, 9), _chain_topology(3)
    pred, truth = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
    last = rng.standard_normal((3, 3))
    return [], [pred], lambda ts: total_loss(ts[0], truth, topo, disc, LossWeights(), last)[0]


def _total_loss_end_to_end(rng):
    enc, disc, topo = _tiny_encoder(rng), _live_discriminator(rng, 6), _chain_topology(2)
    hist, truth = rng.standard_normal((8, 6)), rng.standard_normal((1, 2, 3))

    def forward(_):
        pred = enc.forward_window(Tensor(hist)).reshape((1, 2, 3))
        return total_loss(pred, truth, topo, disc, LossWeights(), hist[-1].reshape(2, 3))[0]

    return enc.parameters(), [], forward


# the attention half's norm and q, k, v, out projections (D = 6), then the feed-forward's (F = 7)
_LAYER_PARAMS = ((6,), (6,)) + ((6, 6), (6,)) * 4 + ((6,), (6,), (6, 7), (7,), (7, 6), (6,))


def _layer(h, ts, rows=None):
    """Stage ``h`` through one layer of the ``_LAYER_PARAMS`` tensors ``ts``, 2 heads."""
    return tensor.feed_forward_block(tensor.attention_block(h, *ts[:-6], 2, rows=rows), *ts[-6:])


_SUITE = (
    ("matmul", 1e-6, _probe(_op("matmul", (2, 4, 5), (5, 3)))),
    ("add", 1e-6, _probe(_op("add", (3, 4), (4,)))),
    ("sub", 1e-6, _probe(_op("sub", (3, 1), (3, 4)))),
    ("mul", 1e-6, _probe(_op("mul", (3, 4), (3, 1)), _op(lambda a: a * -1.7, (3, 4)))),
    ("relu", 1e-6, _probe(_op("relu", (3, 4)))),
    ("sqrt", 1e-6, _probe(_op("sqrt", (3, 4), draw=_positive))),
    ("tabs", 1e-6, _probe(_op("tabs", (3, 4), draw=_signed))),
    ("tsum", 1e-6, _probe(_op(lambda x: x.sum(axis=(0, 2)), (2, 3, 4)),
                          _op(lambda x: x.sum(axis=(0, -1), keepdims=True), (2, 3, 4)))),
    ("tmean", 1e-6, _probe(_op(lambda x: x.mean(axis=(0, 2)), (2, 3, 4)),
                           _op(lambda x: x.mean(axis=(1, 2), keepdims=True), (2, 3, 4)))),
    ("reshape", 1e-6, _probe(_op(lambda x: x.reshape((4, 3)), (2, 6)))),
    # a basic slice, and an index list repeating joint 0 (the np.add.at path)
    ("take", 1e-6, _probe(_op(lambda x: x[1:, ::2], (3, 5)),
                          _op(lambda x: x[..., [0, 2, 0], :], (2, 3, 3)))),
    ("concat", 1e-6, _probe(_op(lambda a, b: tensor.concat([a, b], -2), (2, 3, 2), (2, 1, 2)))),
    ("linear", 1e-6, _probe(_op("linear", (2, 3, 5), (5, 4), (4,)))),
    ("encoder_stack", 1e-6, _probe(_op(lambda *ts: tensor.encoder_stack(tensor.frame_out(
        ts[-4], _layer(tensor.window_in(*ts[:7]), ts[7:-4]), *ts[-3:])), (2, 4, 5), (2, 1, 5),
        (5,), (5,), (5, 6), (6,), (4, 6), *_LAYER_PARAMS, (2, 1, 5), (6, 5), (5,), (5,)))),
    ("encoder_stack_rows", 1e-6, _probe(_op(lambda x, *ts: tensor.encoder_stack(_layer(
        tensor.source(x), ts, rows=2)), (2, 5, 6), *_LAYER_PARAMS))),
    ("backward_mlp", 1e-5, _probe(_op(_mlp, (2, 6), (6, 8), (8,), (8, 1)))),
    ("encoder_layer", 1e-4, _probe(_encoder_layer, coords=10)),
    ("predict_next", 1e-4, _probe(_rollout(1), coords=20)),
    ("rollout_chain", 1e-4, _probe(_rollout(3), coords=20)),
    ("disc_score", 1e-5, _probe(_disc_score, coords=20)),
    ("generator_adv", 1e-4, _probe(_generator_adv)),
    ("total_loss_pred", 1e-4, _probe(_total_loss_pred)),
    ("total_loss_end_to_end", 1e-4, _probe(_total_loss_end_to_end, coords=15)),
)


def run_suite(seed: int = 2024, instances: int = 10) -> List[OpCheck]:
    """Gradient-check every differentiable op; ``instances`` random cases each."""
    if instances < 1:
        raise ContractError(
            f"instances must be >= 1, got {instances}; with none, every entry passes unchecked"
        )
    results = []
    for name, tol, runner in _SUITE:
        rng = np.random.default_rng(seed)
        results.append(OpCheck(op=name, tolerance=tol, worst=runner(rng, instances)))
    return results
