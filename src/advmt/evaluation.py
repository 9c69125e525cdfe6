"""Per-horizon MPJPE evaluation against the zero-velocity baseline, the
variants-by-horizons ablation table (filled from each variant's report by
``advmt eval --ablate``), and qualitative SVG pose strips.

Per-horizon error is the single-frame joint error at that horizon (not the
average up to it), matching the column convention of the comparison
literature. Report CSVs are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .data import Corpus, window
from .errors import ConfigurationError, HorizonError
from .fileio import atomic_write
# Imported by name, because the benchmark's tracer wraps ``evaluation._batched_rollout``.
from .model import EncoderModel, _batched_rollout
from .skeleton import MotionSequence, SkeletonTopology

DEFAULT_HORIZONS_MS = (160, 400, 560, 720, 880, 1000)


@dataclass(frozen=True)
class HorizonSet:
    milliseconds: tuple = DEFAULT_HORIZONS_MS
    fps: int = 25

    def __post_init__(self):
        object.__setattr__(self, "milliseconds", tuple(self.milliseconds))
        if not self.milliseconds:
            raise HorizonError("at least one horizon")
        for i, ms in enumerate(self.milliseconds):
            if ms in self.milliseconds[:i]:
                raise HorizonError(f"horizon {ms} ms is given twice")
            horizon_frames(ms, self.fps)

    def frames(self) -> tuple:
        return tuple(horizon_frames(ms, self.fps) for ms in self.milliseconds)


def horizon_frames(ms: int, fps: int) -> int:
    """1-based frame index within the predicted window for a horizon in ms."""
    if fps <= 0 or 1000 % fps != 0:
        raise HorizonError(f"{fps} fps has a non-integer frame period in ms")
    period = 1000 // fps
    if ms <= 0:
        raise HorizonError(f"a horizon must be positive, got {ms} ms")
    if ms % period != 0:
        raise HorizonError(f"{ms} ms is not a multiple of the {period} ms frame period")
    return ms // period


def mpjpe_at_horizon(pred, truth, frame_idx: int) -> float:
    """Mean joint error (mm) at exactly the 1-based predicted frame ``frame_idx``."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise HorizonError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if not 1 <= frame_idx <= pred.shape[-3]:
        raise HorizonError(
            f"frame {frame_idx} outside predicted span of {pred.shape[-3]} frames"
        )
    diff = pred[..., frame_idx - 1, :, :] - truth[..., frame_idx - 1, :, :]
    return float(np.linalg.norm(diff, axis=-1).mean())


def zero_velocity_baseline(history, l_frames: int) -> np.ndarray:
    """Repeat the last observed frame for every future frame: (..., T, N, 3) -> (..., L, N, 3)."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim < 3 or history.shape[-3] < 1:
        raise ConfigurationError(f"history must be (..., T >= 1, N, 3), got {history.shape}")
    return np.repeat(history[..., -1:, :, :], l_frames, axis=-3)


def mean_velocity_magnitude(preds, frame_lo: int = None, frame_hi: int = None) -> float:
    """Mean per-frame joint speed (mm/frame) over a 1-based frame range.

    ``preds`` is (W, L, N, 3); velocities are within-prediction differences
    x_k - x_{k-1}, defined for k >= 2.
    """
    preds = np.asarray(preds, dtype=np.float64)
    l_frames = preds.shape[-3]
    lo = max(2, frame_lo if frame_lo is not None else 2)
    hi = frame_hi if frame_hi is not None else l_frames
    if not 2 <= lo <= hi <= l_frames:
        raise HorizonError(f"frame range [{lo}, {hi}] invalid for {l_frames} predicted frames")
    deltas = preds[..., lo - 1 : hi, :, :] - preds[..., lo - 2 : hi - 1, :, :]
    return float(np.linalg.norm(deltas, axis=-1).mean())


@dataclass
class EvalReport:
    """system -> action -> horizon_ms -> MPJPE (mm); action "all" aggregates."""

    horizons_ms: tuple
    fps: int
    cells: dict
    corpus: str = ""
    checkpoint: str = ""

    def systems(self) -> tuple:
        return tuple(sorted(self.cells))

    def actions(self) -> tuple:
        acts = set()
        for per_action in self.cells.values():
            acts.update(per_action)
        return tuple(sorted(acts))

    def value(self, system: str, action: str, ms: int) -> float:
        return self.cells[system][action][ms]

    def to_csv(self, path):
        with atomic_write(path) as fh:
            fh.write(f"# horizons_ms={','.join(str(m) for m in self.horizons_ms)}\n")
            fh.write(f"# fps={self.fps}\n")
            fh.write(f"# corpus={self.corpus}\n")
            fh.write(f"# checkpoint={self.checkpoint}\n")
            fh.write("system,action,horizon_ms,mpjpe_mm\n")
            for system in sorted(self.cells):
                for action in sorted(self.cells[system]):
                    for ms in self.horizons_ms:
                        v = self.cells[system][action][ms]
                        fh.write(f"{system},{action},{ms},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "EvalReport":
        meta = {"horizons_ms": "", "fps": "25", "corpus": "", "checkpoint": ""}
        cells: dict = {}
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key] = value
                    continue
                if line.startswith("system,") or not line:
                    continue
                system, action, ms, value = line.split(",")
                cells.setdefault(system, {}).setdefault(action, {})[int(ms)] = float(value)
        horizons = tuple(int(m) for m in meta["horizons_ms"].split(",") if m)
        return cls(
            horizons_ms=horizons,
            fps=int(meta["fps"]),
            cells=cells,
            corpus=meta["corpus"],
            checkpoint=meta["checkpoint"],
        )


def _horizon_means(preds, truths, frames: Sequence[int]) -> list:
    return [mpjpe_at_horizon(preds, truths, f) for f in frames]


def collect_windows(corpus: Corpus, t_frames: int, l_frames: int, stride: int):
    """Evaluation windows in deterministic order (corpus order, then start index)."""
    samples = []
    for seq in corpus.sequences:
        if seq.n_frames < t_frames + l_frames:
            continue
        samples.extend(window(seq, t_frames, l_frames, stride))
    return samples


def evaluate(
    model: Optional[EncoderModel],
    corpus_test: Corpus,
    horizons: HorizonSet = None,
    history_frames: int = None,
    stride: int = 5,
    corpus_label: str = "",
    checkpoint_label: str = "",
) -> EvalReport:
    """Per-action and overall MPJPE for the model and the zero-velocity
    baseline at each horizon. ``model=None`` evaluates the baseline only."""
    horizons = horizons or HorizonSet()
    frames = horizons.frames()
    l_frames = max(frames)
    if history_frames is None:
        if model is None:
            raise ConfigurationError("history_frames is required for baseline-only evaluation")
        history_frames = model.config.history_len

    samples = collect_windows(corpus_test, history_frames, l_frames, stride)
    if not samples:
        raise ConfigurationError(
            f"test corpus has no windows of {history_frames}+{l_frames} frames"
        )

    histories = np.stack([s.input for s in samples])
    truths = np.stack([s.target[:l_frames] for s in samples])
    actions = [s.action or "motion" for s in samples]

    systems = {"zero_velocity": zero_velocity_baseline(histories, l_frames)}
    if model is not None:
        systems["model"] = _batched_rollout(model, histories, l_frames)

    cells: dict = {}
    unique_actions = sorted(set(actions))
    action_idx = {a: [i for i, x in enumerate(actions) if x == a] for a in unique_actions}
    for name, preds in systems.items():
        per_action = {}
        for action in unique_actions:
            idx = action_idx[action]
            per_action[action] = dict(
                zip(horizons.milliseconds, _horizon_means(preds[idx], truths[idx], frames))
            )
        per_action["all"] = dict(
            zip(horizons.milliseconds, _horizon_means(preds, truths, frames))
        )
        cells[name] = per_action

    return EvalReport(
        horizons_ms=horizons.milliseconds,
        fps=horizons.fps,
        cells=cells,
        corpus=corpus_label,
        checkpoint=checkpoint_label,
    )


@dataclass
class AblationTable:
    """Rows = variants, columns = horizons; values are overall MPJPE (mm)."""

    horizons_ms: tuple
    rows: list  # [(label, [value per horizon])]

    def to_csv(self, path):
        with atomic_write(path) as fh:
            fh.write("variant,horizon_ms,mpjpe_mm\n")
            for label, values in self.rows:
                for ms, v in zip(self.horizons_ms, values):
                    fh.write(f"{label},{ms},{v:.17g}\n")

    def to_text(self) -> str:
        width = max([len("variant")] + [len(label) for label, _ in self.rows])
        header = "variant".ljust(width) + "".join(f"{ms:>10}" for ms in self.horizons_ms)
        lines = [header]
        for label, values in self.rows:
            lines.append(label.ljust(width) + "".join(f"{v:>10.1f}" for v in values))
        return "\n".join(lines)


_STRIP_COLORS = ("#7b3294", "#1f77b4", "#2ca02c", "#d62728")
_AXES = {"x": 0, "y": 1, "z": 2}


def render_pose_strip(
    sequences: List[MotionSequence],
    topo: SkeletonTopology,
    path,
    drop_axis: str = "y",
    frame_step: int = 5,
) -> str:
    """Draw stick figures frame-by-frame into an SVG file.

    Orthographic projection dropping one axis; every ``frame_step``-th
    frame is rendered at an increasing horizontal offset. Each sequence
    gets its own stroke color, so ground truth and predictions stay
    distinguishable when overlaid.
    """
    if drop_axis not in _AXES:
        raise ConfigurationError(f"drop_axis must be one of {tuple(_AXES)}, got {drop_axis!r}")
    keep = [i for i in range(3) if i != _AXES[drop_axis]]

    projected = []  # (seq_idx, frame_slot, (N, 2) coords)
    for s_idx, seq in enumerate(sequences):
        if seq.joint_count != topo.joint_count:
            raise ConfigurationError(
                f"sequence {s_idx} has {seq.joint_count} joints, topology expects "
                f"{topo.joint_count}"
            )
        for slot, f in enumerate(range(0, seq.n_frames, frame_step)):
            pts = seq.frames[f][:, keep]
            projected.append((s_idx, slot, pts))

    if projected:
        all_pts = np.concatenate([p for _, _, p in projected])
        x_range = float(all_pts[:, 0].max() - all_pts[:, 0].min())
        spacing = 0.55 * max(x_range, 1.0) + 120.0
    else:
        spacing = 0.0

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg")
    placed = []
    for s_idx, slot, pts in projected:
        color = _STRIP_COLORS[s_idx % len(_STRIP_COLORS)]
        xs = pts[:, 0] + slot * spacing
        ys = -pts[:, 1]  # SVG y grows downward
        placed.append(np.stack([xs, ys], axis=1))
        for p, c in topo.bones:
            ET.SubElement(
                svg,
                "line",
                x1=f"{xs[p]:.2f}",
                y1=f"{ys[p]:.2f}",
                x2=f"{xs[c]:.2f}",
                y2=f"{ys[c]:.2f}",
                stroke=color,
                attrib={"stroke-width": "6"},
            )

    if placed:
        allp = np.concatenate(placed)
        margin = 50.0
        x0, y0 = allp.min(axis=0) - margin
        x1, y1 = allp.max(axis=0) + margin
        svg.set("viewBox", f"{x0:.1f} {y0:.1f} {x1 - x0:.1f} {y1 - y0:.1f}")
    else:
        svg.set("viewBox", "0 0 100 100")

    with atomic_write(path, "wb") as fh:  # utf-8 bytes, as a path given to ``write`` gets
        ET.ElementTree(svg).write(fh, encoding="utf-8", xml_declaration=True)
    return str(path)
