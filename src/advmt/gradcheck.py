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


def _probe_matmul(rng):
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    c = rng.standard_normal((4, 3))
    return [a, b], lambda ts: (tensor.matmul(ts[0], ts[1]) * c).sum()


def _probe_add(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))
    return [a, b], lambda ts: (tensor.add(ts[0], ts[1]) * c).sum()


def _probe_sub(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))
    return [a, b], lambda ts: (tensor.sub(ts[0], ts[1]) * c).sum()


def _probe_mul(rng):
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3))
    return [a, b], lambda ts: (tensor.mul(ts[0], ts[1]) * c).sum()


def _probe_scale(rng):
    a = rng.standard_normal((4, 4))
    factor = float(rng.standard_normal())
    c = rng.standard_normal((4, 4))
    return [a], lambda ts: (tensor.scale(ts[0], factor) * c).sum()


def _probe_relu(rng):
    a = rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))
    return [a], lambda ts: (tensor.relu(ts[0]) * c).sum()


def _probe_linear(rng):
    x = rng.standard_normal((2, 3, 5))  # a 2-D weight broadcast over the batch axis
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    c = rng.standard_normal((2, 3, 4))
    return [x, w, b], lambda ts: (tensor.linear(ts[0], ts[1], ts[2]) * c).sum()


def _probe_attention(rng):
    q, k, v = (rng.standard_normal((2, 2, 4, 3)) for _ in range(3))
    factor = float(rng.uniform(0.3, 1.0))
    c = rng.standard_normal((2, 2, 4, 3))
    return [q, k, v], lambda ts: (tensor.attention(ts[0], ts[1], ts[2], factor) * c).sum()


def _probe_layer_norm(rng):
    x = rng.standard_normal((3, 5))
    gain = rng.standard_normal(5)
    bias = rng.standard_normal(5)
    c = rng.standard_normal((3, 5))
    return [x, gain, bias], lambda ts: (tensor.layer_norm(ts[0], ts[1], ts[2]) * c).sum()


def _probe_mlp(rng):
    x = rng.standard_normal((2, 6))
    w1 = rng.standard_normal((6, 8)) * 0.5
    b1 = rng.standard_normal(8) * 0.1
    w2 = rng.standard_normal((8, 1)) * 0.5
    y = rng.standard_normal((2, 1))

    def forward(ts):
        h = tensor.relu(ts[0] @ ts[1] + ts[2])
        diff = h @ ts[3] - y
        return (diff * diff).mean()

    return [x, w1, b1, w2], forward


def _tiny_encoder(rng, predict_delta=True):
    cfg = EncoderConfig(
        input_dim=6, num_layers=2, num_heads=2, model_dim=16, ff_dim=24, history_len=8,
        predict_delta=predict_delta,
    )
    return EncoderModel(cfg, rng)


def _chain_topology(n):
    return SkeletonTopology(
        joint_names=tuple(f"j{i}" for i in range(n)),
        parent=(None,) + tuple(range(n - 1)),
    )


def _check_attention_block(rng, instances):
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
    standardization; instances alternate between the displacement and
    the position head. From ``l_frames`` = 2 on, predicted frames re-enter
    the window through ``concat`` and slicing.
    """
    from .losses import mpjpe

    worst = 0.0
    for i in range(instances):
        enc = _tiny_encoder(rng, predict_delta=i % 2 == 0)
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
        disc = DiscriminatorModel(
            DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), rng
        )
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
        disc = DiscriminatorModel(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), r)
        fake = r.standard_normal((4, 2, 3))
        return [fake], lambda ts: generator_adversarial_loss(disc, ts[0])

    return _check_inputs(rng, build, instances)


def _check_total_loss_pred(rng, instances):
    topo = _chain_topology(3)
    weights = LossWeights()

    def build(r):
        disc = DiscriminatorModel(DiscriminatorConfig(input_dim=9, hidden_dims=(8, 4)), r)
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
        disc = DiscriminatorModel(DiscriminatorConfig(input_dim=6, hidden_dims=(8, 4)), rng)
        hist = rng.standard_normal((8, 6))
        truth = rng.standard_normal((1, 2, 3))
        h = Tensor(hist)
        last = hist[-1].reshape(2, 3)

        def loss():
            pred = enc.forward_window(h).reshape((1, 2, 3))
            return total_loss(pred, truth, topo, disc, weights, last)[0]

        worst = max(worst, _check_param_subset(rng, enc.parameters(), loss, 15))
    return worst


_SUITE = (
    ("matmul", 1e-6, lambda rng, k: _check_inputs(rng, _probe_matmul, k)),
    ("add", 1e-6, lambda rng, k: _check_inputs(rng, _probe_add, k)),
    ("sub", 1e-6, lambda rng, k: _check_inputs(rng, _probe_sub, k)),
    ("mul", 1e-6, lambda rng, k: _check_inputs(rng, _probe_mul, k)),
    ("scale", 1e-6, lambda rng, k: _check_inputs(rng, _probe_scale, k)),
    ("relu", 1e-6, lambda rng, k: _check_inputs(rng, _probe_relu, k)),
    ("linear", 1e-6, lambda rng, k: _check_inputs(rng, _probe_linear, k)),
    ("attention", 1e-6, lambda rng, k: _check_inputs(rng, _probe_attention, k)),
    ("layer_norm", 1e-5, lambda rng, k: _check_inputs(rng, _probe_layer_norm, k)),
    ("backward_mlp", 1e-5, lambda rng, k: _check_inputs(rng, _probe_mlp, k)),
    ("attention_block", 1e-4, _check_attention_block),
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
