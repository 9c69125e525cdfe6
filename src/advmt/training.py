"""Alternating adversarial training: full auto-regressive rollout, a
discriminator update on real vs detached generated velocities, then an
encoder update on the composite loss.

Everything is deterministic under a fixed seed: one seeded generator
drives parameter init and epoch shuffling, and nothing else draws
randomness.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar, List, Optional

import numpy as np

from . import discriminator as disc_mod
from . import model as model_mod
from .data import CorpusSet
from .discriminator import DiscriminatorConfig, DiscriminatorModel, discriminator_loss
from .errors import ConfigurationError, ContractError, DivergenceError, HorizonError, build_config
from .evaluation import DEFAULT_HORIZONS_MS, collect_windows, mpjpe_at_horizon
from .fileio import atomic_write
from .losses import LossBreakdown, LossWeights, boundary_deltas, total_loss
from .model import EncoderConfig, EncoderModel, _batched_rollout, rollout_graph
from .tensor import Tensor, _keep_freed_memory, global_grad_norm


@dataclass
class TrainConfig:
    # lr 3e-3 over 12 epochs reaches the same held-out error as 1e-3 over 30
    # on the synthetic corpus in well under half the wall time
    epochs: int = 12
    batch_size: int = 8
    lr_encoder: float = 3e-3
    lr_disc: float = 1e-3
    disc_steps_per_gen_step: int = 1
    grad_clip_norm: float = 1.0
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    history_frames: int = 50
    predict_frames: int = 25
    window_stride: int = 5
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = final only
    RETIRED: ClassVar[dict] = {
        "rollout_mode": "full_autoregressive",
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_eps": 1e-8,
    }

    def __post_init__(self):
        if not isinstance(self.weights, LossWeights):
            self.weights = build_config(LossWeights, self.weights, "weights")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        for name in ("lr_encoder", "lr_disc"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):  # a NaN rate trains to NaN parameters
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.disc_steps_per_gen_step < 0:
            raise ConfigurationError("disc_steps_per_gen_step must be >= 0")
        if not self.grad_clip_norm > 0:
            raise ConfigurationError("grad_clip_norm must be positive (inf disables clipping)")
        if self.history_frames < 1 or self.predict_frames < 1 or self.window_stride < 1:
            raise ConfigurationError("history_frames, predict_frames, window_stride must be >= 1")
        if self.checkpoint_every < 0:  # epoch % -1 == 0 would checkpoint every epoch
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


class Adam:
    """Standard Adam with bias correction; state per parameter tensor."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else 0.0
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)


def clip_gradients(params, max_norm: float) -> float:
    """Scale grads so the global norm is at most max_norm; returns pre-clip norm."""
    norm = global_grad_norm(params)
    if math.isfinite(max_norm) and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


@dataclass
class StepRecord(LossBreakdown):
    """The scalars of one train step; ``fit`` logs their per-epoch means."""

    disc_loss: float


def _epoch_mean(steps) -> StepRecord:
    """Field-wise mean of one epoch's step records, summed in step order."""
    sums = np.zeros(len(fields(StepRecord)))
    for step in steps:
        sums += astuple(step)
    return StepRecord(*(sums / len(steps)))


@dataclass
class EpochRecord(StepRecord):
    """An epoch's mean step record, its validation error and its wall time."""

    epoch: int
    val_mpjpe: dict  # horizon ms -> mm; empty without a test split
    seconds: float


@dataclass
class TrainLog:
    records: List[EpochRecord] = field(default_factory=list)

    def to_csv(self, path):
        """Columns: epoch, the ``StepRecord`` fields, one per validation horizon, seconds."""
        names = [f.name for f in fields(StepRecord)]
        horizons = sorted({ms for r in self.records for ms in r.val_mpjpe})
        with atomic_write(path) as fh:
            cols = ["epoch", *names, *(f"val_mpjpe_{ms}" for ms in horizons), "seconds"]
            fh.write(",".join(cols) + "\n")
            for r in self.records:
                row = [str(r.epoch)] + [f"{getattr(r, name):.17g}" for name in names]
                row += [f"{r.val_mpjpe[ms]:.17g}" if ms in r.val_mpjpe else "" for ms in horizons]
                row.append(f"{r.seconds:.3f}")
                fh.write(",".join(row) + "\n")


class Trainer:
    """Owns both models and their optimizer state for one run."""

    def __init__(self, encoder: EncoderModel, disc: DiscriminatorModel, topo, cfg: TrainConfig):
        _keep_freed_memory()
        self.encoder = encoder
        self.disc = disc
        self.topo = topo
        self.cfg = cfg
        self.enc_opt = Adam(encoder.parameters(), cfg.lr_encoder)
        self.disc_opt = Adam(disc.parameters(), cfg.lr_disc)

    def _gather(self, batch):
        if not batch:
            raise ContractError("train_step requires a non-empty batch")
        t, l = self.cfg.history_frames, self.cfg.predict_frames
        for s in batch:
            if s.input.shape != batch[0].input.shape or s.target.shape != batch[0].target.shape:
                raise ContractError("all samples in a batch must share shapes")
        inputs = np.stack([s.input for s in batch])
        targets = np.stack([s.target for s in batch])
        if inputs.shape[1] != t or targets.shape[1] != l:
            raise ContractError(
                f"batch windows are {inputs.shape[1]}+{targets.shape[1]} frames, "
                f"config expects {t}+{l}"
            )
        return inputs, targets

    def train_step(self, batch) -> StepRecord:
        """One alternation: rollout, disc update(s) on detached fakes, encoder update."""
        cfg = self.cfg
        inputs, targets = self._gather(batch)
        b, t, n, _ = inputs.shape
        l = targets.shape[1]

        preds = rollout_graph(self.encoder, Tensor(inputs.reshape(b, t, 3 * n)), l)
        pred_poses = preds.reshape((b, l, n, 3))

        disc_value = 0.0
        if cfg.disc_steps_per_gen_step > 0:
            real_deltas = boundary_deltas(targets, inputs[:, -1])
            fake_deltas = boundary_deltas(pred_poses.detach(), inputs[:, -1])
            for _ in range(cfg.disc_steps_per_gen_step):
                d_loss = discriminator_loss(self.disc, real_deltas, fake_deltas)
                disc_value = d_loss.item()
                if not math.isfinite(disc_value):
                    raise DivergenceError(f"non-finite discriminator loss {disc_value}")
                self.disc_opt.zero_grad()
                d_loss.backward()
                self._clipped_step(self.disc_opt, "discriminator")

        loss, breakdown = total_loss(
            pred_poses, targets, self.topo, self.disc, cfg.weights,
            last_observed=inputs[:, -1],
        )
        if not math.isfinite(breakdown.total):
            raise DivergenceError(f"non-finite training loss {breakdown.total}")
        self.enc_opt.zero_grad()
        loss.backward()
        self._clipped_step(self.enc_opt, "encoder")
        return StepRecord(**vars(breakdown), disc_loss=disc_value)

    def _clipped_step(self, opt, name):
        """Clip, then step; a non-finite norm (which clipping cannot scale) stops the run."""
        norm = clip_gradients(opt.params, self.cfg.grad_clip_norm)
        if not math.isfinite(norm):
            raise DivergenceError(f"non-finite {name} gradient norm {norm}")
        opt.step()


def _validation_horizons(cfg: TrainConfig, fps: int) -> dict:
    """{ms: frame} for the default horizons within the predicted span;
    ``evaluate`` refuses the same fps."""
    if 1000 % fps:
        raise HorizonError(
            f"{fps} fps has a non-integer frame period in ms, so the test split "
            "cannot be scored at the validation horizons"
        )
    period = 1000 // fps
    return {ms: ms // period for ms in DEFAULT_HORIZONS_MS
            if ms % period == 0 and ms // period <= cfg.predict_frames}


def _validate(encoder, val_inputs, val_targets, horizons):
    if val_inputs is None or not horizons:
        return {}
    preds = _batched_rollout(encoder, val_inputs, val_targets.shape[1])
    return {ms: mpjpe_at_horizon(preds, val_targets, frame) for ms, frame in horizons.items()}


def fit(
    corpus_set: CorpusSet,
    cfg: TrainConfig,
    out_dir=None,
    encoder_config: Optional[EncoderConfig] = None,
    disc_config: Optional[DiscriminatorConfig] = None,
) -> tuple:
    """Train on the corpus train split; returns (encoder, discriminator, log).

    Checkpoints and the epoch log are written under ``out_dir`` when given.
    Bit-identical results for identical (corpus, config) on the same build.
    """
    t, l, stride = cfg.history_frames, cfg.predict_frames, cfg.window_stride
    train_windows = collect_windows(corpus_set.train, t, l, stride)
    if not train_windows:
        raise ConfigurationError(f"train corpus yields no {t}+{l}-frame windows")
    n = corpus_set.topology.joint_count
    if train_windows[0].input.shape[1] != n:
        raise ConfigurationError("corpus joint count does not match its topology")
    flat = 3 * n

    rng = np.random.default_rng(cfg.seed)
    enc_cfg = encoder_config or EncoderConfig(input_dim=flat, history_len=cfg.history_frames)
    if enc_cfg.input_dim != flat or enc_cfg.history_len != cfg.history_frames:
        raise ConfigurationError(
            "encoder config input_dim/history_len must match the corpus and train config"
        )
    d_cfg = disc_config or DiscriminatorConfig(input_dim=flat)
    if d_cfg.input_dim != flat:
        raise ConfigurationError("discriminator input_dim must equal 3N")
    encoder = EncoderModel(enc_cfg, rng)
    encoder.set_frame_statistics(*model_mod.compute_frame_statistics(
        np.stack([s.input for s in train_windows]),
        np.stack([s.target for s in train_windows]),
    ))
    disc = DiscriminatorModel(d_cfg, rng)
    trainer = Trainer(encoder, disc, corpus_set.topology, cfg)

    val_windows = collect_windows(corpus_set.test, t, l, stride) if corpus_set.test else []
    val_inputs = np.stack([s.input for s in val_windows]) if val_windows else None
    val_targets = np.stack([s.target for s in val_windows]) if val_windows else None
    fps = corpus_set.train.sequences[0].fps
    horizons = _validation_horizons(cfg, fps) if corpus_set.test else {}

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    log = TrainLog()
    n_windows = len(train_windows)
    for epoch in range(1, cfg.epochs + 1):
        start_time = time.perf_counter()
        order = rng.permutation(n_windows)
        steps = []
        for lo in range(0, n_windows, cfg.batch_size):
            batch = [train_windows[i] for i in order[lo : lo + cfg.batch_size]]
            try:
                steps.append(trainer.train_step(batch))
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch} step {len(steps) + 1}: {exc}") from exc
        val = _validate(encoder, val_inputs, val_targets, horizons)
        log.records.append(EpochRecord(
            **vars(_epoch_mean(steps)), epoch=epoch, val_mpjpe=val,
            seconds=time.perf_counter() - start_time,
        ))
        if out_dir and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            model_mod.save_checkpoint(encoder, os.path.join(out_dir, f"encoder_ep{epoch:03d}.ckpt"))
            disc_mod.save_checkpoint(disc, os.path.join(out_dir, f"discriminator_ep{epoch:03d}.ckpt"))

    if out_dir:
        model_mod.save_checkpoint(encoder, os.path.join(out_dir, "encoder.ckpt"))
        disc_mod.save_checkpoint(disc, os.path.join(out_dir, "discriminator.ckpt"))
        log.to_csv(os.path.join(out_dir, "trainlog.csv"))
    return encoder, disc, log
