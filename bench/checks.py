"""Reference computations the workloads compare the program against.

Plain numpy, written apart from the program: nothing here imports
``advmt``. Poses are arrays of shape (..., N, 3) in millimetres; a
horizon is a 1-based index into the predicted frames.
"""

from __future__ import annotations

import numpy as np

HISTORY = 50  # observed frames per window (TrainConfig.history_frames default)
FUTURE = 25  # predicted frames per window (1000 ms at 25 fps)
STRIDE = 5  # window stride (TrainConfig.window_stride default)
HORIZONS = {160: 4, 1000: 25}  # ms -> 1-based predicted frame at 25 fps
REL_TOL = 1e-9  # batched vs per-window rollouts differ only in BLAS summation order


def windows(frames, history=HISTORY, future=FUTURE, stride=STRIDE):
    """(history, truth) pairs cut from one sequence, in start order."""
    out = []
    for start in range(0, len(frames) - history - future + 1, stride):
        out.append((frames[start : start + history],
                    frames[start + history : start + history + future]))
    return out


def joint_error(pred, truth, frame):
    """Mean Euclidean joint distance (mm) at the 1-based predicted ``frame``."""
    diff = np.asarray(pred)[..., frame - 1, :, :] - np.asarray(truth)[..., frame - 1, :, :]
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=-1))))


def zero_velocity(histories, future=FUTURE):
    """The last observed frame repeated ``future`` times, for each window."""
    last = np.asarray(histories)[:, -1:]
    return np.repeat(last, future, axis=1)


def rel_diff(value, reference) -> float:
    """Largest absolute difference, relative to the reference's largest magnitude."""
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if value.shape != reference.shape:
        return float("inf")
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    diff = float(np.max(np.abs(value - reference))) if reference.size else 0.0
    if not np.isfinite(diff):
        return float("inf")
    return diff / scale if scale > 0 else diff


class Checks:
    """Collects named pass/fail results; a run is correct when all pass."""

    def __init__(self):
        self.failures = []
        self.passed = 0

    def expect(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    def close(self, value, reference, tol, what):
        err = rel_diff(value, reference)
        return self.expect(err <= tol, f"{what}: relative difference {err:.3e} > {tol:.0e}")

    def bitwise(self, value, reference, what):
        value, reference = np.asarray(value), np.asarray(reference)
        same = value.shape == reference.shape and value.tobytes() == reference.tobytes()
        return self.expect(same, f"{what}: not bitwise equal")

    @property
    def correct(self):
        return not self.failures


def read_motion_csv(path):
    """Frames of a motion CSV as (F, N, 3), parsed without the program's loader."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: no header line")
        rows = [[float(cell) for cell in line.split(",")] for line in fh if line.strip()]
    arr = np.array(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] % 3:
        raise ValueError(f"{path}: rows are not 3N values wide")
    return arr.reshape(len(arr), arr.shape[1] // 3, 3)


# -- the workloads' checks ------------------------------------------------------


def check_train(c: Checks, preds, truths, histories, val_mpjpe) -> dict:
    """Per-window rollouts of the reloaded checkpoint reproduce fit's last
    validation errors and beat zero velocity; returns the errors by ms."""
    errors = {}
    zero = zero_velocity(histories)
    for ms, frame in HORIZONS.items():
        mine = joint_error(preds, truths, frame)
        c.close(mine, val_mpjpe.get(ms, np.nan), REL_TOL,
                f"train: {ms} ms MPJPE of encoder.ckpt vs fit's last val_mpjpe")
        baseline = joint_error(zero, truths, frame)
        c.expect(mine < baseline,
                 f"train: {ms} ms MPJPE {mine:.2f} mm does not beat zero velocity {baseline:.2f} mm")
        errors[ms] = mine
    return errors


def check_eval(c: Checks, cells, histories, truths, actions, preds):
    """Every per-action row of an evaluation report against our own errors.

    The zero-velocity rows hold no rollout, so they must agree to float64
    summation order; the model rows come from batched rollouts and are
    compared with per-window ones.
    """
    actions = np.asarray(actions)
    for system, pred, tol in (("zero_velocity", zero_velocity(histories), 1e-12),
                              ("model", preds, REL_TOL)):
        for action in sorted(set(actions.tolist())) + ["all"]:
            idx = np.ones(len(actions), bool) if action == "all" else actions == action
            for ms, frame in HORIZONS.items():
                got = cells.get(system, {}).get(action, {}).get(ms, np.nan)
                c.close(got, joint_error(pred[idx], truths[idx], frame), tol,
                        f"eval: {system}/{action}/{ms} ms")


def check_prefix(c: Checks, short, full):
    """A shorter rollout is the prefix of a longer one, bitwise."""
    c.bitwise(short, np.asarray(full)[: len(short)],
              f"rollout(h, {len(full)})[:{len(short)}] vs rollout(h, {len(short)})")


def check_forecast(c: Checks, frames, reference, what):
    """A forecast file holds FUTURE finite frames matching the reference rollout."""
    frames = np.asarray(frames)
    if c.expect(frames.shape == np.shape(reference) and bool(np.isfinite(frames).all()),
                f"{what}: not {len(reference)} finite frames"):
        c.close(frames, reference, REL_TOL, what)


def check_zero_head(c: Checks, frames, last_observed):
    """With a zeroed head every forecast frame is the last observed frame."""
    expected = np.repeat(np.asarray(last_observed)[None], FUTURE, axis=0)
    c.bitwise(frames, expected, "predict: zeroed head vs last observed frame repeated")
