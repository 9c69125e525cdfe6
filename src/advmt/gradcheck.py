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
from .losses import LossWeights, total_loss
from .model import EncoderConfig, EncoderLayer, EncoderModel, rollout_graph
from .skeleton import SkeletonTopology
from .tensor import Tensor

STEP = 1e-5


def central_difference(f: Callable, x: np.ndarray, step: float = STEP) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    probe = x.copy()
    view = probe.reshape(-1)
    for i in range(view.size):
        orig = view[i]
        view[i] = orig + step
        fp = f(probe)
        view[i] = orig - step
        fm = f(probe)
        view[i] = orig
        flat[i] = (fp - fm) / (2.0 * step)
    return grad


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


def _check_inputs(rng, build, instances) -> float:
    """build(rng) -> (list of input arrays, forward(list of Tensors) -> scalar Tensor)."""
    worst = 0.0
    for _ in range(instances):
        arrays, forward = build(rng)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        forward(tensors).backward()
        for i, t in enumerate(tensors):
            def f(probe_arr, i=i):
                probes = [Tensor(a) for a in arrays]
                probes[i] = Tensor(probe_arr)
                return forward(probes).item()

            numeric = central_difference(f, arrays[i])
            analytic = t.grad if t.grad is not None else np.zeros_like(arrays[i])
            worst = max(worst, relative_error(analytic, numeric))
    return worst


def _check_param_subset(rng, params, loss_fn, n_coords) -> float:
    """Finite-difference a sampled subset of parameter coordinates."""
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for _ in range(n_coords):
        pi = int(rng.integers(len(params)))
        p = params[pi]
        fi = int(rng.integers(p.size))
        orig = p.data.flat[fi]
        p.data.flat[fi] = orig + STEP
        fp = loss_fn().item()
        p.data.flat[fi] = orig - STEP
        fm = loss_fn().item()
        p.data.flat[fi] = orig
        numeric = (fp - fm) / (2.0 * STEP)
        analytic = p.grad.flat[fi] if p.grad is not None else 0.0
        worst = max(worst, relative_error(analytic, numeric))
    return worst


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
        return arrays, lambda ts: (op(*ts) * c).sum()

    return build


def _inputs(*builds):
    """Suite runner: the worst input-gradient error over every probe builder."""
    return lambda rng, k: max(_check_inputs(rng, build, k) for build in builds)


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


def _check_encoder_layer(rng, instances):
    cfg = EncoderConfig(
        input_dim=6, num_layers=1, num_heads=2, model_dim=16, ff_dim=24, history_len=6
    )
    worst = 0.0
    for _ in range(instances):
        layer = EncoderLayer(cfg, rng)
        x = rng.standard_normal((6, 16))
        c = rng.standard_normal((6, 16))

        def build(_rng, x=x, c=c, layer=layer):
            return [x], lambda ts: (layer(ts[0]) * c).sum()

        worst = max(worst, _check_inputs(rng, build, 1))
        t_in = Tensor(x)
        worst = max(
            worst,
            _check_param_subset(rng, layer.params(), lambda: (layer(t_in) * c).sum(), 10),
        )
    return worst


def _check_rollout(rng, instances, l_frames):
    """Parameters and the observed window, through an ``l_frames`` rollout.

    Statistics are non-identity and the window's last root is off the
    origin, so the window gradient covers the root anchor as well as the
    standardization. From ``l_frames`` = 2 on, predicted frames re-enter
    the window through ``concat`` and slicing.
    """
    from .losses import mpjpe

    worst = 0.0
    for _ in range(instances):
        enc = _tiny_encoder(rng)
        enc.set_frame_statistics(
            rng.standard_normal(6), rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6)
        )
        hist = rng.standard_normal((8, 6)) + np.tile(rng.uniform(1.0, 2.0, 3), 2)
        target = rng.standard_normal((l_frames, 2, 3))

        def forward(ts, enc=enc, target=target):
            return mpjpe(rollout_graph(enc, ts[0], l_frames).reshape(target.shape), target)

        def build(_rng, hist=hist, forward=forward):
            return [hist], forward

        worst = max(worst, _check_inputs(rng, build, 1))
        h = Tensor(hist)
        worst = max(
            worst, _check_param_subset(rng, enc.parameters(), lambda: forward([h]), 20)
        )
    return worst


def _check_disc_score(rng, instances):
    worst = 0.0
    for _ in range(instances):
        disc = _live_discriminator(rng, 6)
        deltas = rng.standard_normal((5, 2, 3))
        c = rng.standard_normal(5)
        d = Tensor(deltas)
        worst = max(
            worst,
            _check_param_subset(
                rng, disc.parameters(), lambda: (score(disc, d) * c).sum(), 20
            ),
        )
    return worst


def _check_generator_adv(rng, instances):
    def build(r):
        disc = _live_discriminator(r, 6)
        fake = r.standard_normal((4, 2, 3))
        return [fake], lambda ts: generator_adversarial_loss(disc, ts[0])

    return _check_inputs(rng, build, instances)


def _check_total_loss_pred(rng, instances):
    topo = _chain_topology(3)
    weights = LossWeights()

    def build(r):
        disc = _live_discriminator(r, 9)
        pred = r.standard_normal((2, 3, 3))
        truth = r.standard_normal((2, 3, 3))
        last = r.standard_normal((3, 3))
        return [pred], lambda ts: total_loss(ts[0], truth, topo, disc, weights, last)[0]

    return _check_inputs(rng, build, instances)


def _check_total_loss_end_to_end(rng, instances):
    topo = _chain_topology(2)
    weights = LossWeights()
    worst = 0.0
    for _ in range(instances):
        enc = _tiny_encoder(rng)
        disc = _live_discriminator(rng, 6)
        hist = rng.standard_normal((8, 6))
        truth = rng.standard_normal((1, 2, 3))
        h = Tensor(hist)
        last = hist[-1].reshape(2, 3)

        def loss():
            pred = enc.forward_window(h).reshape((1, 2, 3))
            return total_loss(pred, truth, topo, disc, weights, last)[0]

        worst = max(worst, _check_param_subset(rng, enc.parameters(), loss, 15))
    return worst


# gain, bias, then weight and bias of the q, k, v and out projections, D = 6
_ATTENTION_PARAMS = ((6,), (6,)) + ((6, 6), (6,)) * 4

_SUITE = (
    ("matmul", 1e-6, _inputs(_op("matmul", (2, 4, 5), (5, 3)))),
    ("add", 1e-6, _inputs(_op("add", (3, 4), (4,)))),
    ("sub", 1e-6, _inputs(_op("sub", (3, 1), (3, 4)))),
    ("mul", 1e-6, _inputs(_op("mul", (3, 4), (3, 1)), _op(lambda a: a * -1.7, (3, 4)))),
    ("relu", 1e-6, _inputs(_op("relu", (3, 4)))),
    ("sqrt", 1e-6, _inputs(_op("sqrt", (3, 4), draw=_positive))),
    ("tabs", 1e-6, _inputs(_op("tabs", (3, 4), draw=_signed))),
    ("tsum", 1e-6, _inputs(_op(lambda x: x.sum(axis=(0, 2)), (2, 3, 4)),
                           _op(lambda x: x.sum(axis=(0, -1), keepdims=True), (2, 3, 4)))),
    ("tmean", 1e-6, _inputs(_op(lambda x: x.mean(axis=(0, 2)), (2, 3, 4)),
                            _op(lambda x: x.mean(axis=(1, 2), keepdims=True), (2, 3, 4)))),
    ("reshape", 1e-6, _inputs(_op(lambda x: x.reshape((4, 3)), (2, 6)))),
    # a basic slice, and an index list repeating joint 0 (the np.add.at path)
    ("take", 1e-6, _inputs(_op(lambda x: x[1:, ::2], (3, 5)),
                           _op(lambda x: x[..., [0, 2, 0], :], (2, 3, 3)))),
    ("concat", 1e-6, _inputs(_op(lambda a, b: tensor.concat([a, b], -2), (2, 3, 2), (2, 1, 2)))),
    ("linear", 1e-6, _inputs(_op("linear", (2, 3, 5), (5, 4), (4,)))),
    ("attention_block", 1e-6, _inputs(
        _op(lambda x, *p: tensor.attention_block(x, *p, 2), (2, 4, 6), *_ATTENTION_PARAMS),
        _op(lambda x, *p: tensor.attention_block(x, *p, 2, rows=2), (2, 5, 6),
            *_ATTENTION_PARAMS))),
    ("feed_forward_block", 1e-6, _inputs(_op("feed_forward_block", (2, 3, 5), (5,), (5,),
                                             (5, 7), (7,), (7, 5), (5,)))),
    ("backward_mlp", 1e-5, _inputs(_op(_mlp, (2, 6), (6, 8), (8,), (8, 1)))),
    ("encoder_layer", 1e-4, _check_encoder_layer),
    ("predict_next", 1e-4, lambda rng, k: _check_rollout(rng, k, 1)),
    ("rollout_chain", 1e-4, lambda rng, k: _check_rollout(rng, k, 3)),
    ("disc_score", 1e-5, _check_disc_score),
    ("generator_adv", 1e-4, _check_generator_adv),
    ("total_loss_pred", 1e-4, _check_total_loss_pred),
    ("total_loss_end_to_end", 1e-4, _check_total_loss_end_to_end),
)


def run_suite(seed: int = 2024, instances: int = 10) -> List[OpCheck]:
    """Gradient-check every differentiable op; ``instances`` random cases each."""
    results = []
    for name, tol, runner in _SUITE:
        rng = np.random.default_rng(seed)
        results.append(OpCheck(op=name, tolerance=tol, worst=runner(rng, instances)))
    return results
