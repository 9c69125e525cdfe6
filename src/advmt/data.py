"""Synthetic motion corpus generation, CSV ingestion, and windowing.

The generator drives the default 17-joint skeleton through seeded
sinusoidal joint rotations via forward kinematics, so every sequence has
exactly constant bone lengths, which is what makes the bone-length loss
meaningfully testable downstream. Units are millimetres.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    CsvParseError,
    InsufficientFramesError,
    RateError,
    require_keys,
)
from .fileio import atomic_write, read_json_object
from .skeleton import MotionSequence, SkeletonTopology, forward_kinematics

# Rest-pose bone offsets (mm) for the default skeleton, keyed by child joint.
_REST_OFFSETS = {
    "spine": (0.0, 0.0, 150.0),
    "chest": (0.0, 0.0, 150.0),
    "neck": (0.0, 0.0, 120.0),
    "head": (0.0, 0.0, 120.0),
    "left_hip": (90.0, 0.0, -60.0),
    "left_knee": (0.0, 0.0, -400.0),
    "left_ankle": (0.0, 0.0, -400.0),
    "right_hip": (-90.0, 0.0, -60.0),
    "right_knee": (0.0, 0.0, -400.0),
    "right_ankle": (0.0, 0.0, -400.0),
    "left_shoulder": (170.0, 0.0, 40.0),
    "left_elbow": (0.0, 0.0, -280.0),
    "left_wrist": (0.0, 0.0, -250.0),
    "right_shoulder": (-170.0, 0.0, 40.0),
    "right_elbow": (0.0, 0.0, -280.0),
    "right_wrist": (0.0, 0.0, -250.0),
}

_X = (1.0, 0.0, 0.0)
_Y = (0.0, 1.0, 0.0)
_Z = (0.0, 0.0, 1.0)

# Per style: root velocity (mm/s) and rotation channels
# (joint, axis, [(amplitude_rad, frequency_hz, base_phase_rad), ...]).
_STYLES = {
    "walk": {
        "root_velocity": (0.0, 900.0, 0.0),
        "channels": [
            ("left_hip", _X, [(0.42, 0.7, 0.0)]),
            ("right_hip", _X, [(0.42, 0.7, math.pi)]),
            ("left_knee", _X, [(0.50, 0.7, -0.5 * math.pi), (0.12, 1.4, 0.0)]),
            ("right_knee", _X, [(0.50, 0.7, 0.5 * math.pi), (0.12, 1.4, math.pi)]),
            ("left_shoulder", _X, [(0.30, 0.7, math.pi)]),
            ("right_shoulder", _X, [(0.30, 0.7, 0.0)]),
            ("left_elbow", _X, [(0.18, 0.7, -0.5 * math.pi)]),
            ("right_elbow", _X, [(0.18, 0.7, 0.5 * math.pi)]),
            ("spine", _Z, [(0.08, 1.4, 0.0)]),
            ("chest", _Y, [(0.05, 0.7, 0.0), (0.02, 2.1, 0.0)]),
        ],
    },
    "wave_arms": {
        "root_velocity": (0.0, 0.0, 0.0),
        "channels": [
            ("left_shoulder", _Y, [(0.80, 0.55, 0.0), (0.15, 1.1, 0.0)]),
            ("right_shoulder", _Y, [(0.80, 0.55, math.pi)]),
            ("left_elbow", _Z, [(0.55, 1.1, 0.0), (0.10, 2.2, 0.3)]),
            ("right_elbow", _Z, [(0.55, 1.1, math.pi), (0.10, 2.2, -0.3)]),
            ("chest", _Y, [(0.06, 0.55, 0.0)]),
        ],
    },
    "idle_sway": {
        "root_velocity": (0.0, 0.0, 0.0),
        "channels": [
            ("pelvis", _Z, [(0.03, 0.13, 0.0)]),
            ("spine", _Y, [(0.07, 0.25, 0.0), (0.02, 0.5, 0.0)]),
            ("chest", _Z, [(0.05, 0.21, 0.0)]),
            ("neck", _X, [(0.04, 0.31, 0.0)]),
        ],
    },
}

STYLE_NAMES = tuple(sorted(_STYLES))

_ROOT_START = (0.0, 0.0, 930.0)


def rest_offsets(topo: SkeletonTopology) -> np.ndarray:
    """(N-1, 3) rest-pose offsets in bone order; topology joints must be known."""
    offsets = []
    for _, child in topo.bones:
        name = topo.joint_names[child]
        if name not in _REST_OFFSETS:
            raise ConfigurationError(f"no rest offset defined for joint {name!r}")
        offsets.append(_REST_OFFSETS[name])
    return np.asarray(offsets, dtype=np.float64)


def generate_gait(
    seed: int,
    topo: SkeletonTopology,
    n_frames: int,
    fps: int = 25,
    style: str = "walk",
    amplitude_scale: float = 1.0,
) -> MotionSequence:
    """Deterministic synthetic motion: seeded phase jitter on style sinusoids.

    Joint rotations are sums of 1-3 sinusoids with style-dependent
    frequencies; the root translates at constant velocity for ``walk`` and
    stays put otherwise. Bone lengths are constant across frames by
    construction (rigid forward kinematics).
    """
    if style not in _STYLES:
        raise ConfigurationError(f"unknown style {style!r}; expected one of {STYLE_NAMES}")
    if n_frames < 1:
        raise ConfigurationError(f"n_frames must be >= 1, got {n_frames}")
    spec = _STYLES[style]
    rng = np.random.default_rng(seed)
    offsets = rest_offsets(topo)

    n = topo.joint_count
    axes = np.tile(np.array(_Z, dtype=np.float64), (n, 1))
    angles = np.zeros((n_frames, n))
    t = np.arange(n_frames) / float(fps)
    for joint_name, axis, harmonics in spec["channels"]:
        j = topo.index_of(joint_name)
        axes[j] = axis
        jitter = rng.uniform(-math.pi, math.pi)
        for amp, freq, phase in harmonics:
            angles[:, j] += amplitude_scale * amp * np.sin(
                2.0 * math.pi * freq * t + phase + jitter
            )

    velocity = np.asarray(spec["root_velocity"], dtype=np.float64)
    root_path = np.asarray(_ROOT_START) + np.outer(t, velocity)

    frames = forward_kinematics(root_path, offsets, angles, topo, axes=axes)
    return MotionSequence(frames=frames, fps=fps, action_label=style)


def downsample(seq: MotionSequence, target_fps: int) -> MotionSequence:
    """Integer decimation keeping every (fps/target_fps)-th frame from frame 0."""
    if target_fps <= 0 or seq.fps % target_fps != 0:
        raise RateError(
            f"cannot decimate {seq.fps} fps to {target_fps} fps: non-integer factor"
        )
    factor = seq.fps // target_fps
    return MotionSequence(
        frames=seq.frames[::factor].copy(), fps=target_fps, action_label=seq.action_label
    )


@dataclass(frozen=True)
class WindowedSample:
    """An observed history and the ground-truth future that follows it."""

    input: np.ndarray  # (T, N, 3)
    target: np.ndarray  # (L, N, 3)
    action: Optional[str] = None


def window(
    seq: MotionSequence, t_frames: int, l_frames: int, stride: int = 5
) -> List[WindowedSample]:
    """Contiguous (history, future) pairs starting at 0, stride, 2*stride, ..."""
    if t_frames < 1 or l_frames < 1 or stride < 1:
        raise ConfigurationError("t_frames, l_frames, and stride must be positive")
    total = t_frames + l_frames
    if seq.n_frames < total:
        raise InsufficientFramesError(
            f"sequence has {seq.n_frames} frames; need at least {total}"
        )
    samples = []
    for start in range(0, seq.n_frames - total + 1, stride):
        samples.append(
            WindowedSample(
                input=seq.frames[start : start + t_frames],
                target=seq.frames[start + t_frames : start + total],
                action=seq.action_label,
            )
        )
    return samples


# -- CSV interchange -----------------------------------------------------------
#
# Format (bit-exact contract): first line `# fps=<int> joints=<name,name,...>`,
# then one row of 3N comma-separated floats per frame in joint order x,y,z.
# Loaders also accept an optional leading frame-index column. Rows and columns
# in error messages are 1-based; row 1 is the first data line.


def save_csv(seq: MotionSequence, path, joint_names: Sequence[str]):
    if len(joint_names) != seq.joint_count:
        raise CsvParseError(
            f"{len(joint_names)} joint names for {seq.joint_count}-joint sequence"
        )
    flat = seq.frames.reshape(seq.n_frames, -1)
    row_format = ",".join(["%.17g"] * flat.shape[1]) + "\n"
    with atomic_write(path) as fh:
        fh.write(f"# fps={seq.fps} joints={','.join(joint_names)}\n")
        fh.writelines(row_format % tuple(row) for row in flat.tolist())


def _cell_error(path, r: int, line: str, width: int) -> CsvParseError:
    """The error for the first cell of data row ``r`` that is not a finite
    number (the row must have one)."""
    cells = line.split(",")
    offset = len(cells) - width
    for c, cell in enumerate(cells[offset:], start=1 + offset):
        try:
            value = float(cell)
        except ValueError:
            return CsvParseError(f"{path}: row {r}, column {c}: {cell!r} is not a number")
        if not math.isfinite(value):
            return CsvParseError(f"{path}: row {r}, column {c}: non-finite value {cell}")


def _refuse_non_finite(path, rows: list, sources: list, width: int) -> np.ndarray:
    """``rows`` as an array, or the error for the first non-finite value in
    file order; ``sources`` holds each row's (row number, line)."""
    values = np.array(rows)
    finite = np.isfinite(values)
    if not finite.all():
        raise _cell_error(path, *sources[int(np.argmin(finite.all(axis=1)))], width)
    return values


def load_csv(path, topo: SkeletonTopology) -> MotionSequence:
    """Parse a motion CSV; errors carry 1-based row/column coordinates.

    Each cell goes through ``float``; finiteness is checked once over the
    parsed array, and an error reports the first bad cell in file order.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise CsvParseError(f"{path}: missing `# fps=... joints=...` header line")
        fields = header[1:].split()
        meta = {}
        for item in fields:
            if "=" in item:
                key, _, value = item.partition("=")
                meta[key] = value
        if "fps" not in meta:
            raise CsvParseError(f"{path}: header does not declare fps")
        try:
            fps = int(meta["fps"])
        except ValueError:
            raise CsvParseError(f"{path}: fps {meta['fps']!r} is not an integer") from None
        if "joints" not in meta:
            raise CsvParseError(f"{path}: header does not declare joint order")
        names = tuple(meta["joints"].split(","))
        if names != topo.joint_names:
            raise CsvParseError(
                f"{path}: joint order {names} does not match topology {topo.joint_names}"
            )

        n = topo.joint_count
        width = 3 * n
        rows, sources = [], []
        for r, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) not in (width, width + 1):  # width + 1: leading frame-index column
                _refuse_non_finite(path, rows, sources, width)
                raise CsvParseError(
                    f"{path}: row {r} has {len(cells)} columns, expected {width}"
                    f" (or {width + 1} with a frame index)"
                )
            try:
                rows.append(np.fromiter(map(float, cells[len(cells) - width:]), float, width))
            except ValueError:
                _refuse_non_finite(path, rows, sources, width)
                raise _cell_error(path, r, line, width) from None
            sources.append((r, line))
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    frames = _refuse_non_finite(path, rows, sources, width).reshape(len(rows), n, 3)
    return MotionSequence(frames=frames, fps=fps)


# -- corpus --------------------------------------------------------------------


@dataclass
class Corpus:
    """Sequences belonging to one split."""

    sequences: List[MotionSequence]
    split: str

    def action_counts(self) -> dict:
        counts: dict = {}
        for seq in self.sequences:
            counts[seq.action_label] = counts.get(seq.action_label, 0) + 1
        return counts


@dataclass
class CorpusSet:
    """Train and test splits plus the topology they were generated for."""

    train: Corpus
    test: Optional[Corpus]
    topology: SkeletonTopology


@dataclass
class CorpusConfig:
    """Generator settings; train seeds 0-99 and test seeds 100-119 by default,
    mimicking a subject-level split."""

    n_train: int = 100
    n_test: int = 20
    n_frames: int = 80
    fps: int = 25
    styles: tuple = ("walk",)
    train_seed_base: int = 0
    test_seed_base: int = 100
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.n_train < 1:
            raise ConfigurationError("n_train must be >= 1")
        if self.n_test < 0:
            raise ConfigurationError("n_test must be >= 0")
        if self.n_frames < 1:
            raise ConfigurationError("n_frames must be >= 1")
        if self.fps < 1:
            raise ConfigurationError("fps must be >= 1")
        if not math.isfinite(self.amplitude_scale):
            raise ConfigurationError(f"amplitude_scale must be finite, got {self.amplitude_scale}")
        self.styles = tuple(self.styles)
        if not self.styles:
            raise ConfigurationError("styles must be non-empty")
        for s in self.styles:
            if s not in _STYLES:
                raise ConfigurationError(f"unknown style {s!r}; expected one of {STYLE_NAMES}")
        train_last = self.train_seed_base + self.n_train - 1
        if train_last >= self.test_seed_base:
            raise ConfigurationError(
                "train seed range overlaps test seeds; splits must not share sequences"
            )


def generate_corpus(cfg: CorpusConfig, topo: SkeletonTopology) -> CorpusSet:
    """Deterministic corpus: sequence i of a split uses seed base+i and style i mod len(styles)."""

    def make(split, base, count):
        seqs = []
        for i in range(count):
            style = cfg.styles[i % len(cfg.styles)]
            seqs.append(
                generate_gait(
                    seed=base + i,
                    topo=topo,
                    n_frames=cfg.n_frames,
                    fps=cfg.fps,
                    style=style,
                    amplitude_scale=cfg.amplitude_scale,
                )
            )
        return Corpus(sequences=seqs, split=split)

    train = make("train", cfg.train_seed_base, cfg.n_train)
    test = make("test", cfg.test_seed_base, cfg.n_test) if cfg.n_test else None
    return CorpusSet(train=train, test=test, topology=topo)


def write_corpus(corpus_set: CorpusSet, out_dir) -> str:
    """Write CSV sequences, skeleton JSON, and the corpus manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    topo = corpus_set.topology
    topo_path = os.path.join(out_dir, "skeleton.json")
    topo.to_json(topo_path)

    entries = []
    for corpus in (corpus_set.train, corpus_set.test):
        if corpus is None:
            continue
        split_dir = os.path.join(out_dir, corpus.split)
        os.makedirs(split_dir, exist_ok=True)
        for i, seq in enumerate(corpus.sequences):
            action = seq.action_label or "motion"
            rel = os.path.join(corpus.split, f"{action}_{i:04d}.csv")
            save_csv(seq, os.path.join(out_dir, rel), topo.joint_names)
            entries.append({"path": rel, "split": corpus.split, "action": seq.action_label})

    manifest = {"topology": "skeleton.json", "sequences": entries}
    manifest_path = os.path.join(out_dir, "manifest.json")
    with atomic_write(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def csv_cell(text, where: str):
    """``text`` if it is None (no label) or a string that fits one cell of a report
    CSV; otherwise a ``ConfigurationError`` that ``where`` opens."""
    if text is not None and (not isinstance(text, str) or any(c in text for c in ",\r\n")):
        raise ConfigurationError(f"{where} must be text with no comma or newline, got {text!r:.60}")
    return text


def load_corpus(manifest_path) -> CorpusSet:
    base = os.path.dirname(os.path.abspath(manifest_path))
    text = (lambda v: isinstance(v, str)), "a string"  # a value check for ``require_keys``
    manifest = read_json_object(manifest_path, {
        "topology": text, "sequences": (lambda v: isinstance(v, list), "a JSON list")})
    topo = SkeletonTopology.from_json(os.path.join(base, manifest["topology"]))
    splits: dict = {"train": [], "test": []}
    fps = None
    for i, entry in enumerate(manifest["sequences"]):
        where = f"{manifest_path}: sequences[{i}]"
        require_keys(entry, {"path": text, "split": text}, where)
        action = csv_cell(entry.get("action"), f"{where}: 'action'")  # a label in each report
        seq = load_csv(os.path.join(base, entry["path"]), topo)
        seq = MotionSequence(frames=seq.frames, fps=seq.fps, action_label=action)
        if entry["split"] not in splits:
            raise ConfigurationError(f"{manifest_path}: sequences[{i}] has unknown split "
                                     f"{entry['split']!r}")
        if fps is None:
            fps = seq.fps
        elif seq.fps != fps:
            raise ConfigurationError(
                f"{manifest_path}: {entry['path']} is at {seq.fps} fps, "
                f"the sequences before it at {fps} fps"
            )
        splits[entry["split"]].append(seq)
    if not splits["train"]:
        raise ConfigurationError(f"{manifest_path}: manifest has no train sequences")
    train = Corpus(sequences=splits["train"], split="train")
    test = Corpus(sequences=splits["test"], split="test") if splits["test"] else None
    return CorpusSet(train=train, test=test, topology=topo)
