"""Skeletal topology, forward kinematics, and frame-difference helpers.

Joint positions are millimetres throughout. A topology is a rooted tree
over joints; bones are its edges. All types are immutable after
construction and safe to share across readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .errors import InsufficientFramesError, TopologyError
from .fileio import atomic_write, read_json_object


@dataclass(frozen=True)
class SkeletonTopology:
    """Rooted kinematic tree: ``parent[i] < i`` for every non-root joint."""

    joint_names: tuple
    parent: tuple

    def __post_init__(self):
        names = tuple(self.joint_names)
        parent = tuple(self.parent)
        object.__setattr__(self, "joint_names", names)
        object.__setattr__(self, "parent", parent)
        n = len(names)
        if n < 1:
            raise TopologyError("topology needs at least one joint")
        if len(parent) != n:
            raise TopologyError(f"{n} joint names but {len(parent)} parent entries")
        if parent[0] is not None:
            raise TopologyError("joint 0 must be the root (parent None)")
        for i, p in enumerate(parent[1:], start=1):
            if p is None:
                raise TopologyError(f"joint {i} has no parent; only joint 0 may be the root")
            if not 0 <= p < i:
                raise TopologyError(f"parent[{i}] = {p} must satisfy 0 <= parent < {i}")
        if len(set(names)) != n:
            raise TopologyError("joint names must be unique")

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    @property
    def bones(self) -> tuple:
        """(parent, child) index pairs, one per non-root joint."""
        return tuple((p, c) for c, p in enumerate(self.parent) if p is not None)

    def index_of(self, name: str) -> int:
        try:
            return self.joint_names.index(name)
        except ValueError:
            raise TopologyError(f"topology has no joint named {name!r}") from None

    @classmethod
    def from_json(cls, path) -> "SkeletonTopology":
        raw = read_json_object(path, {
            "joint_names": (lambda v: isinstance(v, list) and all(
                isinstance(n, str) for n in v), "a list of strings"),
            "parent": (lambda v: isinstance(v, list) and all(
                p is None or type(p) is int for p in v), "a list of joint indices or null")})
        return cls(joint_names=tuple(raw["joint_names"]), parent=tuple(raw["parent"]))

    def to_json(self, path):
        payload = {"joint_names": list(self.joint_names), "parent": list(self.parent)}
        with atomic_write(path) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def default_17(cls) -> "SkeletonTopology":
        """The 17-joint desk skeleton: torso/head chain plus two legs and two arms."""
        raw = json.loads(
            resources.files("advmt.assets").joinpath("default_skeleton.json").read_text()
        )
        return cls(joint_names=tuple(raw["joint_names"]), parent=tuple(raw["parent"]))


@dataclass(frozen=True)
class Pose:
    """Joint positions for one frame, shape (N, 3), millimetres."""

    joints: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.joints, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise TopologyError(f"pose must be (N, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise TopologyError("pose contains non-finite coordinates")
        object.__setattr__(self, "joints", arr)

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True)
class MotionSequence:
    """frames (F, N, 3) in millimetres plus frame-rate metadata."""

    frames: np.ndarray
    fps: int = 25
    action_label: Optional[str] = None

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise TopologyError(f"frames must be (F, N, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InsufficientFramesError("a motion sequence needs at least one frame")
        if not np.isfinite(arr).all():
            raise TopologyError("motion sequence contains non-finite values")
        if self.fps <= 0:
            raise TopologyError(f"fps must be positive, got {self.fps}")
        object.__setattr__(self, "frames", arr)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1]


def bone_lengths(pose, topo: SkeletonTopology) -> np.ndarray:
    """(..., N, 3) joints -> (..., N-1) bone lengths, order matching ``topo.bones``."""
    joints = pose.joints if isinstance(pose, Pose) else np.asarray(pose, dtype=np.float64)
    if joints.shape[-2:] != (topo.joint_count, 3):
        raise TopologyError(
            f"joints {joints.shape} do not match (..., {topo.joint_count}, 3) for the topology"
        )
    bones = topo.bones
    parents = [p for p, _ in bones]
    children = [c for _, c in bones]
    return np.linalg.norm(joints[..., children, :] - joints[..., parents, :], axis=-1)


def rotation_about_axis(axis, angle) -> np.ndarray:
    """(..., 3, 3) rotation matrices for (...) ``angle`` radians about ``axis`` (Rodrigues)."""
    k = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(k)
    if norm == 0:
        raise TopologyError("rotation axis must be nonzero")
    k = k / norm
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    return np.eye(3) * np.cos(angle) + np.sin(angle) * kx + (1 - np.cos(angle)) * np.outer(k, k)


def forward_kinematics(
    root_pos,
    bone_offsets,
    joint_rotations,
    topo: SkeletonTopology,
    axes=None,
) -> np.ndarray:
    """Compose joint positions root-to-leaf: (..., 3) roots and (..., N)
    rotations -> (..., N, 3) joints, one pose per leading index.

    ``bone_offsets[b]`` is the child's offset in its parent's frame for bone
    ``topo.bones[b]``; ``joint_rotations[..., i]`` rotates joint i's subtree
    about ``axes[i]`` (default z). Rotations are rigid, so output bone
    lengths equal the offset norms exactly.
    """
    n = topo.joint_count
    root = np.asarray(root_pos, dtype=np.float64)
    offsets = np.asarray(bone_offsets, dtype=np.float64)
    angles = np.asarray(joint_rotations, dtype=np.float64)
    if offsets.shape != (n - 1, 3):
        raise TopologyError(f"expected {(n - 1, 3)} bone offsets, got {offsets.shape}")
    if angles.shape[-1:] != (n,):
        raise TopologyError(f"expected (..., {n}) joint rotations, got {angles.shape}")
    if root.shape != angles.shape[:-1] + (3,):
        raise TopologyError(f"roots {root.shape} do not match rotations {angles.shape}")
    if axes is None:
        axes = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    else:
        axes = np.asarray(axes, dtype=np.float64)
        if axes.shape != (n, 3):
            raise TopologyError(f"expected {(n, 3)} rotation axes, got {axes.shape}")

    positions = np.zeros(root.shape[:-1] + (n, 3))
    frames = [None] * n  # accumulated rotation per joint
    positions[..., 0, :] = root
    frames[0] = rotation_about_axis(axes[0], angles[..., 0])
    for b, (p, c) in enumerate(topo.bones):
        positions[..., c, :] = positions[..., p, :] + frames[p] @ offsets[b]
        frames[c] = frames[p] @ rotation_about_axis(axes[c], angles[..., c])
    return positions


def temporal_difference(seq) -> np.ndarray:
    """First-order frame differences x_t - x_{t-1}, shape (F-1, N, 3)."""
    frames = seq.frames if isinstance(seq, MotionSequence) else np.asarray(seq, dtype=np.float64)
    if frames.shape[0] < 2:
        raise InsufficientFramesError(
            f"temporal differences need at least 2 frames, got {frames.shape[0]}"
        )
    return frames[1:] - frames[:-1]
