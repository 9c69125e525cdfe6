"""Composite training objective: position error + weighted bone-length
error + weighted adversarial velocity term.

``mpjpe`` and ``bone_loss`` double as evaluation metrics (plain floats on
numpy inputs) and as differentiable graph nodes on Tensor inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor
from .discriminator import generator_adversarial_loss
from .errors import ConfigurationError, ContractError, DimensionError, TopologyError
from .skeleton import Pose, SkeletonTopology
from .tensor import Tensor, as_tensor


@dataclass(frozen=True)
class LossWeights:
    lambda_bone: float = 0.1
    lambda_adv: float = 0.01
    RETIRED: ClassVar[dict] = {"loss_norm": "l2"}

    def __post_init__(self):
        for name in ("lambda_bone", "lambda_adv"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class LossBreakdown:
    mpjpe: float
    bone: float
    adversarial: float
    total: float


def _check_pose_arrays(pred, truth):
    if pred.shape != truth.shape:
        raise DimensionError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if pred.ndim < 3 or pred.shape[-1] != 3:
        raise DimensionError(f"expected (..., L, N, 3) pose arrays, got {pred.shape}")


def _joint_distances(diff: Tensor) -> Tensor:
    return (diff * diff).sum(axis=-1).sqrt()


def mpjpe(pred, truth):
    """Mean Euclidean joint error in mm over all frames and joints.

    Tensor input -> scalar Tensor (differentiable); array input -> float.
    """
    graph = isinstance(pred, Tensor)
    pred_t = as_tensor(pred)
    truth_t = as_tensor(truth)
    _check_pose_arrays(pred_t, truth_t)
    out = _joint_distances(pred_t - truth_t).mean()
    return out if graph else out.item()


def _bone_length_tensor(poses: Tensor, topo: SkeletonTopology) -> Tensor:
    bones = topo.bones
    parents = [p for p, _ in bones]
    children = [c for _, c in bones]
    diff = poses[..., children, :] - poses[..., parents, :]
    return _joint_distances(diff)


def bone_loss(pred, truth, topo: SkeletonTopology):
    """Mean absolute difference of bone lengths (mm) over frames and bones."""
    graph = isinstance(pred, Tensor)
    pred_t = as_tensor(pred)
    truth_t = as_tensor(truth)
    _check_pose_arrays(pred_t, truth_t)
    if pred_t.shape[-2] != topo.joint_count:
        raise TopologyError(
            f"poses have {pred_t.shape[-2]} joints, topology expects {topo.joint_count}"
        )
    out = (_bone_length_tensor(pred_t, topo) - _bone_length_tensor(truth_t, topo)).abs().mean()
    return out if graph else out.item()


def boundary_deltas(poses, last_observed) -> Tensor:
    """Differences of [last observed frame; future poses] along time."""
    last = last_observed.joints if isinstance(last_observed, Pose) else last_observed
    last_t = as_tensor(last)
    first = last_t.reshape(last_t.shape[:-2] + (1,) + last_t.shape[-2:])
    seq = tensor.concat([first, poses], axis=-3)  # (..., L+1, N, 3)
    return seq[..., 1:, :, :] - seq[..., :-1, :, :]


def total_loss(
    pred: Tensor,
    truth,
    topo: SkeletonTopology,
    disc,
    weights: LossWeights,
    last_observed,
) -> tuple:
    """Position + lambda_B * bone + lambda_D * adversarial, as one graph node.

    Returns (the loss node to backpropagate, its LossBreakdown of floats).

    Gradients flow into the prediction (and hence the encoder) only; the
    discriminator is used frozen. ``last_observed`` supplies the boundary
    frame so the first predicted velocity is well-defined.
    """
    if not isinstance(pred, Tensor):
        raise ContractError("total_loss needs a Tensor prediction to backpropagate through")
    position = mpjpe(pred, truth)
    bone = bone_loss(pred, truth, topo)
    total = position + weights.lambda_bone * bone

    if weights.lambda_adv > 0:
        if disc is None:
            raise ContractError("lambda_adv > 0 requires a discriminator")
        if last_observed is None:
            raise ContractError("lambda_adv > 0 requires the last observed pose")
        adv = generator_adversarial_loss(disc, boundary_deltas(pred, last_observed))
        total = total + weights.lambda_adv * adv
        adv_value = adv.item()
    else:
        adv_value = 0.0

    return total, LossBreakdown(mpjpe=position.item(), bone=bone.item(),
                                adversarial=adv_value, total=total.item())
