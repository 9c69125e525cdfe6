"""Transformer motion encoder: joint embedding, sinusoidal positions,
pre-norm attention blocks, pose projection head, and auto-regressive rollout.

Each token is one whole pose (3N values); the head reads the final
time-step's representation, so a forward pass predicts exactly one future
frame. ``rollout_graph`` slides the window over the model's own predictions;
``rollout`` batches it, with no graph, on every CPU, for one history or a stack.

There is deliberately no causal mask: the encoder only ever sees a fully
observed window, never future targets, so masking would not hide anything.

With grad enabled, a forward pass is one graph node besides the root
offset's small nodes. ``tensor.encoder_stack`` runs the input transform
(``tensor.window_in``), every layer and the output transform
(``tensor.frame_out``): a layer's ``attention`` runs its attention half
(``tensor.attention_block``), ``__call__`` its feed-forward half
(``tensor.feed_forward_block``), and backward rebuilds them all from the
window. Under ``no_grad`` the same methods run each block's array forward
(``tensor.window_in_forward``, ``attention_half``, ``feed_forward_half``,
``frame_out_forward``), the functions the stages call, and build no graph
objects; ``rollout_graph`` then slides the window on arrays. ``LayerNorm``
and ``Linear`` only hold parameters, in checkpoint order.

Because the head reads only the last token, the last layer computes keys
and values from all T tokens but queries, attention output, residual and
feed-forward only for the last ``HEAD_ROWS`` = 2 (see its comment for why
two). Its ``collect_attention`` entry is therefore (..., H, 2, T), the
other layers' (..., H, T, T); and per-call layer timings averaged over
all layers fall in part because the last layer's calls do less work.

Coordinate frame. Everything outside ``forward_window`` (rollout, losses,
discriminator, evaluation, CSV I/O) is in absolute millimetres; only the
encoder works in a normalized frame. A window is made root-relative by
subtracting the root joint (joint 0) of its last observed frame from every
joint of every frame, then standardized per coordinate with the mean and
std of root-relative train windows. The head emits the next frame's
displacement from the last observed frame in units of the per-coordinate
root-mean-square of train frame-to-frame displacements, so the prediction
is the last frame plus head output times that scale; a zeroed head
returns the last observed frame exactly. The scale is an RMS, not a std,
because the displacement is not mean-centred: a root walking at constant
velocity has zero displacement std but a 36 mm/frame RMS. The statistics
are identity (zero mean, unit std) until ``set_frame_statistics``;
``training.fit`` computes them from the train split with
``compute_frame_statistics`` and checkpoints store them after the
parameters.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass
from typing import ClassVar, List, Optional

import numpy as np

from . import checkpoint, tensor
from .errors import CheckpointError, ConfigurationError, ContractError
from .skeleton import Pose
from .tensor import Tensor, _keep_freed_memory, no_grad


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int  # 3N
    num_layers: int = 4
    num_heads: int = 4
    model_dim: int = 64
    ff_dim: int = 128
    history_len: int = 50
    RETIRED: ClassVar[dict] = {"predict_delta": True}

    def __post_init__(self):
        for name in ("input_dim", "num_layers", "num_heads", "model_dim", "ff_dim", "history_len"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.input_dim % 3:
            raise ConfigurationError(f"input_dim {self.input_dim} must be 3N (x, y, z per joint)")
        if self.model_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} must be divisible by num_heads {self.num_heads}"
            )


def positional_encoding(length: int, model_dim: int) -> np.ndarray:
    """Sinusoidal code: (p, 2i) -> sin(p / 10000^(2i/D)), (p, 2i+1) -> cos(same)."""
    if length < 1:
        raise ContractError(f"length must be >= 1, got {length}")
    positions = np.arange(length)[:, None]
    i = np.arange(0, model_dim, 2)[None, :]
    angles = positions / np.power(10000.0, i / model_dim)
    pe = np.zeros((length, model_dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : pe[:, 1::2].shape[1]])
    return pe


# A coordinate whose scale is far below the typical one (one that barely
# varies in the train split, such as the root in its own root-relative frame)
# would amplify the model's own prediction noise each time the rollout feeds
# it back; it is scaled by this fraction of the mean scale instead.
SCALE_FLOOR = 0.1


def root_tiling(input_dim: int) -> np.ndarray:
    """(3N, 3N) 0/1 matrix: frame @ R repeats the root's (x, y, z) for every joint."""
    tiling = np.zeros((input_dim, input_dim))
    tiling[:3] = np.tile(np.eye(3), input_dim // 3)
    return tiling


def compute_frame_statistics(inputs: np.ndarray, targets: np.ndarray) -> tuple:
    """(pose_mean, pose_std, delta_scale), each (3N,), from train windows in mm.

    ``inputs`` (W, T, N, 3) give the mean and std of root-relative frames;
    ``delta_scale`` is the RMS of the frame-to-frame displacements along
    each window's observed and target frames, ``targets`` (W, L, N, 3).
    Both scales are floored at ``SCALE_FLOOR`` times their mean (1 mm if
    nothing varies at all).
    """
    w, t = inputs.shape[:2]
    flat = inputs.reshape(w, t, -1)
    relative = flat - flat[:, -1:] @ root_tiling(flat.shape[-1])
    chain = np.concatenate([flat, targets.reshape(w, targets.shape[1], -1)], axis=1)
    deltas = np.diff(chain, axis=1)

    def floored(scale):
        floor = SCALE_FLOOR * scale.mean()
        return np.maximum(scale, floor if floor > 0 else 1.0)

    return (
        relative.mean(axis=(0, 1)),
        floored(relative.std(axis=(0, 1))),
        floored(np.sqrt((deltas * deltas).mean(axis=(0, 1)))),
    )


class Linear:
    """Weight and bias of x @ W + b, uniform +-sqrt(6/(fan_in+fan_out)) init."""

    def __init__(self, fan_in: int, fan_out: int, rng: Optional[np.random.Generator]):
        if rng is None:
            w = np.zeros((fan_in, fan_out))
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        self.W = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def params(self):
        return [self.W, self.b]


class LayerNorm:
    """Gain and bias of a pre-norm; the stages in ``tensor`` apply it."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def params(self):
        return [self.gain, self.bias]


# The head reads only the last token, so the last layer computes queries,
# attention output, out-projection and feed-forward for the last HEAD_ROWS
# tokens alone (keys and values still come from every token). Two rows, not
# one: numpy sends a one-row product to gemv, whose sums round differently
# from a GEMM row, while two-row GEMMs give the full layer's last rows bit for
# bit (OpenBLAS 0.3.31, one thread, batch 1 and 8, N = 64 and 128), so the
# forward outputs equal those of the unpruned layer byte for byte.
HEAD_ROWS = 2


class EncoderLayer:
    """Pre-norm residual block as two stages: x + MHA(LN(x)), then + FF(LN(.))."""

    def __init__(self, cfg: EncoderConfig, rng):
        d = cfg.model_dim
        self.num_heads = cfg.num_heads
        self.ln1 = LayerNorm(d)
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        self.ln2 = LayerNorm(d)
        self.ff1 = Linear(d, cfg.ff_dim, rng)
        self.ff2 = Linear(cfg.ff_dim, d, rng)

    def attention(self, x, collect=None, rows=None):
        """The attention half-block, x + MHA(LN(x)), that ``__call__``
        finishes into the layer's: a stage from a stage, an array from an
        array. With ``rows``, only the last ``rows`` tokens query, so its
        output is (..., rows, D)."""
        params = (*self.ln1.params(), *self.wq.params(), *self.wk.params(), *self.wv.params(),
                  *self.wo.params())
        if isinstance(x, tensor.Stage):
            return tensor.attention_block(x, *params, self.num_heads, rows=rows, collect=collect)
        return tensor.attention_half(x, *(p.data for p in params), self.num_heads, rows,
                                     collect)[0]

    def __call__(self, x, collect=None, rows=None):
        """The stage of a (..., T, D) output -> the stage of the layer's
        (..., T, D) output, or the same on plain arrays; with ``rows``, only
        the last ``rows`` tokens' outputs, (..., rows, D), computed from all
        T tokens."""
        a = self.attention(x, collect=collect, rows=rows)
        params = (*self.ln2.params(), *self.ff1.params(), *self.ff2.params())
        if isinstance(a, tensor.Stage):
            return tensor.feed_forward_block(a, *params)
        return tensor.feed_forward_half(a, *(p.data for p in params))[0]

    def params(self):
        parts = (self.ln1, self.wq, self.wk, self.wv, self.wo, self.ln2, self.ff1, self.ff2)
        return [p for part in parts for p in part.params()]


class EncoderModel:
    """Parameter container plus the windowed forward pass."""

    def __init__(self, config: EncoderConfig, rng: Optional[np.random.Generator]):
        self.config = config
        self.embed = Linear(config.input_dim, config.model_dim, rng)
        self.layers = [EncoderLayer(config, rng) for _ in range(config.num_layers)]
        self.head = Linear(config.model_dim, config.input_dim, rng)
        self._pe = Tensor(positional_encoding(config.history_len, config.model_dim))
        self._root_tiling = Tensor(root_tiling(config.input_dim))
        self.pose_mean = Tensor(np.zeros(config.input_dim))
        self.pose_std = Tensor(np.ones(config.input_dim))
        self.delta_scale = Tensor(np.ones(config.input_dim))
        self._inverse_std = Tensor(np.ones(config.input_dim))  # 1 / pose_std, one leaf per model

    def parameters(self) -> List[Tensor]:
        """Canonical order; also the checkpoint serialization order."""
        return [p for part in (self.embed, *self.layers, self.head) for p in part.params()]

    def frame_statistics(self) -> List[Tensor]:
        """Normalization buffers (not trained); serialized after ``parameters``."""
        return [self.pose_mean, self.pose_std, self.delta_scale]

    def set_frame_statistics(self, pose_mean, pose_std, delta_scale):
        """Install (3N,) statistics in mm; both scales must be positive."""
        arrays = [np.asarray(a, dtype=np.float64) for a in (pose_mean, pose_std, delta_scale)]
        for name, arr in zip(("pose_mean", "pose_std", "delta_scale"), arrays):
            if arr.shape != (self.config.input_dim,) or not np.isfinite(arr).all():
                raise ContractError(
                    f"{name} must be finite with shape ({self.config.input_dim},), got {arr.shape}"
                )
        if (arrays[1] <= 0).any() or (arrays[2] <= 0).any():
            raise ContractError("pose_std and delta_scale must be positive")
        for buf, arr in zip(self.frame_statistics(), arrays):
            buf.data = arr.copy()
        self._inverse_std.data = 1.0 / arrays[1]

    def forward_window(self, x: Tensor, collect_attention=None) -> Tensor:
        """(..., T, 3N) observed window in mm -> (..., 3N) next-frame prediction in mm.

        With grad enabled it is one ``encoder_stack`` node; under ``no_grad``
        the same block functions run on the arrays and build no graph."""
        cfg = self.config
        if x.ndim < 2 or x.shape[-1] != cfg.input_dim or x.shape[-2] != cfg.history_len:
            raise ContractError(
                f"expected window (..., {cfg.history_len}, {cfg.input_dim}), got {x.shape}"
            )
        embed = (self.pose_mean, self._inverse_std, *self.embed.params(), self._pe)
        head = (*self.head.params(), self.delta_scale)
        graph = tensor._grad_enabled
        if graph:
            last_frame = x[..., -1:, :]
            root = last_frame @ self._root_tiling  # the last frame's root, tiled over joints
            h = tensor.window_in(x, root, *embed)
        else:  # the same products on the arrays, the root's included
            last_frame = x.data[..., -1:, :]
            h = tensor.window_in_forward(x.data, last_frame @ self._root_tiling.data,
                                         *(p.data for p in embed))[2]
        for layer in self.layers[:-1]:
            h = layer(h, collect=collect_attention)
        h = self.layers[-1](h, collect=collect_attention, rows=HEAD_ROWS)
        if graph:
            return tensor.encoder_stack(tensor.frame_out(last_frame, h, *head))
        return Tensor(tensor.frame_out_forward(h, last_frame, *(p.data for p in head))[1])


def init_encoder(config: EncoderConfig, seed: int = 0) -> EncoderModel:
    return EncoderModel(config, np.random.default_rng(seed))


def predict_next(model: EncoderModel, history) -> Pose:
    """Predict the pose at frame T+1 from exactly T observed frames."""
    return Pose(rollout(model, history, 1)[0])


def rollout_graph(model: EncoderModel, window: Tensor, l_frames: int) -> Tensor:
    """Differentiable sliding-window rollout: (..., T, 3N) -> (..., L, 3N).

    Each predicted frame re-enters the window, so gradients flow through
    the whole chain of forward passes.
    """
    if l_frames < 1:
        raise ContractError(f"l_frames must be >= 1, got {l_frames}")
    if not tensor._grad_enabled:  # no graph to record: the same slide on the arrays
        window, frames = window.data, []
        for _ in range(l_frames):
            frames.append(model.forward_window(Tensor(window)).data[..., None, :])
            window = np.concatenate([window[..., 1:, :], frames[-1]], axis=-2)
        return Tensor(np.concatenate(frames, axis=-2))
    frames = []
    for _ in range(l_frames):
        pred = model.forward_window(window)  # (..., 3N)
        frames.append(pred.reshape(pred.shape[:-1] + (1, pred.shape[-1])))
        window = tensor.concat([window[..., 1:, :], frames[-1]], axis=-2)
    return tensor.concat(frames, axis=-2)


# Most windows in one no-grad rollout chunk, which bounds each rollout
# thread's working set. The largest per-chunk buffer is the default encoder's
# (chunk, 4, 50, 50) float64 attention probabilities: about 640 KB at 8
# windows, so each thread's buffers stay small and are reused from step to
# step. Chunks of 12 were faster on two cores but raised the peak RSS of an
# evaluation by 6 %. Rollouts are bitwise equal at any chunk size.
ROLLOUT_CHUNK = 8


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _batched_rollout(model: EncoderModel, histories: np.ndarray, l_frames: int) -> np.ndarray:
    """(W, T, N, 3) -> (W, L, N, 3) without building graphs, on every CPU.

    The windows are dealt into near-equal chunks of at most ``ROLLOUT_CHUNK``,
    as many as a multiple of the CPU count where there are windows enough, so
    the threads get equal shares. With k threads (the caller and k - 1 helpers, at most one per CPU and
    chunk), thread i rolls out chunks i, i + k, ... into their own slices of
    the output, so the bytes do not depend on k. The caller holds ``no_grad``
    around the whole section, joins every helper before it returns or raises,
    and re-raises the first exception any thread hit.
    """
    _keep_freed_memory()
    w, t, n, _ = histories.shape
    out = np.empty((w, l_frames, n, 3))
    cpus = _cpu_count()
    chunks = -(-w // ROLLOUT_CHUNK)
    chunks = min(w, -(-chunks // cpus) * cpus)
    bounds = [(i * w // chunks, (i + 1) * w // chunks) for i in range(chunks)]
    k = max(1, min(cpus, chunks))
    errors = []

    def roll(first):
        try:
            for lo, hi in bounds[first::k]:
                if errors:  # another thread failed: the call raises anyway
                    return
                pred = rollout_graph(model, Tensor(histories[lo:hi].reshape(hi - lo, t, 3 * n)),
                                     l_frames)
                out[lo:hi] = pred.data.reshape(hi - lo, l_frames, n, 3)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    with no_grad():
        helpers = []
        try:
            for i in range(1, k):
                helper = threading.Thread(target=roll, args=(i,))
                helper.start()
                helpers.append(helper)
            roll(0)
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[0]
    return out


def rollout(model: EncoderModel, histories, l_frames: int) -> np.ndarray:
    """Forecast l_frames future poses from one (T, N, 3) history, (L, N, 3),
    or from each of a (W, T, N, 3) stack, (W, L, N, 3), in ``_batched_rollout``."""
    if l_frames < 1:
        raise ContractError(f"l_frames must be >= 1, got {l_frames}")
    arr = np.asarray(histories, dtype=np.float64)
    t, n = model.config.history_len, model.config.input_dim // 3
    if arr.ndim not in (3, 4) or arr.shape[-3:] != (t, n, 3):
        raise ContractError(
            f"history must be ({t}, N, 3) or (W, {t}, N, 3) with 3N = {model.config.input_dim}, "
            f"got {arr.shape}"
        )
    out = _batched_rollout(model, arr.reshape((-1, t, n, 3)), l_frames)
    return out.reshape(arr.shape[:-3] + out.shape[1:])


def save_checkpoint(model: EncoderModel, path):
    checkpoint.save(
        path, "encoder", asdict(model.config), model.parameters() + model.frame_statistics()
    )


def load_checkpoint(path) -> EncoderModel:
    version, config, flat = checkpoint.load(path, "encoder", EncoderConfig)
    if version < 2:
        raise CheckpointError(
            f"{path}: version {version} encoder checkpoint holds no normalization "
            "statistics; it was trained on raw millimetre windows and cannot run in "
            "the root-relative standardized frame, so retrain it"
        )
    model = EncoderModel(config, rng=None)
    stats = model.frame_statistics()
    checkpoint.fill_params(path, model.parameters() + stats, flat)
    try:
        model.set_frame_statistics(*(s.data for s in stats))
    except ContractError as exc:
        raise CheckpointError(f"{path}: corrupt normalization statistics: {exc}") from None
    return model
