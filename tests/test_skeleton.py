import math

import numpy as np
import pytest

from advmt.errors import InsufficientFramesError, TopologyError
from advmt.skeleton import (
    MotionSequence,
    Pose,
    SkeletonTopology,
    bone_lengths,
    forward_kinematics,
    rotation_about_axis,
    temporal_difference,
)


class TestTopology:
    def test_default_17(self, topo17):
        assert topo17.joint_count == 17
        assert len(topo17.bones) == 16
        assert topo17.parent[0] is None

    def test_parent_must_precede_child(self):
        with pytest.raises(TopologyError):
            SkeletonTopology(joint_names=("a", "b"), parent=(None, 5))

    def test_single_root_only(self):
        with pytest.raises(TopologyError):
            SkeletonTopology(joint_names=("a", "b"), parent=(None, None))

    def test_root_required_at_zero(self):
        with pytest.raises(TopologyError):
            SkeletonTopology(joint_names=("a", "b"), parent=(0, 0))

    def test_json_roundtrip(self, topo17, tmp_path):
        path = tmp_path / "topo.json"
        topo17.to_json(path)
        loaded = SkeletonTopology.from_json(path)
        assert loaded == topo17


class TestBoneLengths:
    def test_three_four_five(self):
        topo = SkeletonTopology(joint_names=("root", "child"), parent=(None, 0))
        pose = Pose(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        assert np.array_equal(bone_lengths(pose, topo), [5.0])

    def test_coincident_joints(self):
        topo = SkeletonTopology(joint_names=("root", "child"), parent=(None, 0))
        pose = Pose(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert np.array_equal(bone_lengths(pose, topo), [0.0])

    def test_matches_per_bone_loop(self, topo17, rng):
        joints = rng.uniform(-500, 500, size=(17, 3))
        expected = []
        for parent, child in topo17.bones:
            d = joints[child] - joints[parent]
            expected.append(math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2))
        got = bone_lengths(joints, topo17)
        assert np.abs(got - np.array(expected)).max() < 1e-12

    def test_joint_count_mismatch(self, topo17):
        with pytest.raises(TopologyError):
            bone_lengths(np.zeros((5, 3)), topo17)


class TestForwardKinematics:
    def test_identity_rotations_cumulative_offsets(self, chain3):
        offsets = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        joints = forward_kinematics([0, 0, 0], offsets, np.zeros(3), chain3)
        assert np.allclose(joints, [[0, 0, 0], [1, 0, 0], [1, 2, 0]], atol=1e-15)

    def test_root_quarter_turn(self):
        topo = SkeletonTopology(joint_names=("root", "child"), parent=(None, 0))
        joints = forward_kinematics([0, 0, 0], [[1.0, 0.0, 0.0]], [math.pi / 2, 0.0], topo)
        assert np.abs(joints[1] - np.array([0.0, 1.0, 0.0])).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rigidity(self, topo17, seed):
        r = np.random.default_rng(seed)
        offsets = r.uniform(-300, 300, size=(16, 3))
        angles = r.uniform(-math.pi, math.pi, size=17)
        axes = r.standard_normal((17, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        pose = forward_kinematics([10, 20, 30], offsets, angles, topo17, axes=axes)
        got = bone_lengths(pose, topo17)
        assert np.abs(got - np.linalg.norm(offsets, axis=1)).max() < 1e-9

    def test_size_validation(self, chain3):
        with pytest.raises(TopologyError):
            forward_kinematics([0, 0, 0], np.zeros((5, 3)), np.zeros(3), chain3)
        with pytest.raises(TopologyError, match=r"\(3,\).*\(4, 3\)"):
            forward_kinematics([0, 0, 0], np.zeros((2, 3)), np.zeros((4, 3)), chain3)

    def test_frames_in_one_call_match_per_frame_calls_bitwise(self, topo17, rng):
        frames = 30
        offsets = rng.uniform(-300, 300, size=(16, 3))
        angles = rng.uniform(-math.pi, math.pi, size=(frames, 17))
        roots = rng.uniform(-1000, 1000, size=(frames, 3))
        axes = rng.standard_normal((17, 3))
        joints = forward_kinematics(roots, offsets, angles, topo17, axes=axes)
        per_frame = np.stack([
            forward_kinematics(roots[f], offsets, angles[f], topo17, axes=axes)
            for f in range(frames)
        ])
        assert joints.shape == (frames, 17, 3)
        assert joints.tobytes() == per_frame.tobytes()
        rotations = rotation_about_axis(axes[3], angles[:, 3])
        assert rotations.tobytes() == np.stack(
            [rotation_about_axis(axes[3], a) for a in angles[:, 3]]
        ).tobytes()
        lengths = bone_lengths(joints.reshape(5, 6, 17, 3), topo17)
        assert lengths.shape == (5, 6, 16)
        assert lengths.reshape(frames, 16).tobytes() == np.stack(
            [bone_lengths(j, topo17) for j in joints]
        ).tobytes()

    def test_rotation_matrix_orthonormal(self, rng):
        axis = rng.standard_normal(3)
        r = rotation_about_axis(axis, 0.7)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestTemporalDifference:
    def test_constant_sequence_is_zero(self):
        seq = MotionSequence(frames=np.ones((4, 2, 3)), fps=25)
        assert np.array_equal(temporal_difference(seq), np.zeros((3, 2, 3)))

    def test_linear_motion_gives_velocity(self):
        v = np.array([1.0, -2.0, 0.5])
        frames = np.arange(5)[:, None, None] * v[None, None, :]
        out = temporal_difference(MotionSequence(frames=frames, fps=25))
        assert np.allclose(out, np.broadcast_to(v, (4, 1, 3)), atol=1e-15)

    def test_matches_elementwise_oracle(self, rng):
        frames = rng.standard_normal((5, 3, 3))
        out = temporal_difference(frames)
        for t in range(1, 5):
            assert np.abs(out[t - 1] - (frames[t] - frames[t - 1])).max() < 1e-12

    def test_too_short(self):
        with pytest.raises(InsufficientFramesError):
            temporal_difference(MotionSequence(frames=np.zeros((1, 2, 3)), fps=25))

    def test_cumsum_recovers_differences(self, rng):
        # integer-valued floats keep cumsum/re-difference free of rounding,
        # so recovery is exact (bitwise)
        diffs = rng.integers(-8, 9, size=(6, 2, 3)).astype(np.float64)
        rebuilt = np.concatenate([np.zeros((1, 2, 3)), np.cumsum(diffs, axis=0)])
        assert np.array_equal(temporal_difference(rebuilt), diffs)


class TestValidation:
    def test_pose_rejects_nan(self):
        with pytest.raises(TopologyError):
            Pose(np.array([[np.nan, 0.0, 0.0]]))

    def test_sequence_rejects_bad_fps(self):
        with pytest.raises(TopologyError):
            MotionSequence(frames=np.zeros((2, 2, 3)), fps=0)
