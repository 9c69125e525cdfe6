"""Each workload check rejects a wrong output and accepts the right one.

    python3 -m pytest bench/test_checks.py
"""

import numpy as np
import pytest

import checks
from checks import FUTURE, HISTORY, HORIZONS


@pytest.fixture
def windows():
    """Four windows of 17 joints moving at different constant speeds."""
    rng = np.random.default_rng(0)
    start = rng.uniform(-800.0, 800.0, size=(4, 1, 17, 3))
    speed = rng.uniform(5.0, 40.0, size=(4, 1, 17, 3))
    steps = np.arange(HISTORY + FUTURE)[None, :, None, None]
    motion = start + speed * steps
    histories, truths = motion[:, :HISTORY], motion[:, HISTORY:]
    preds = truths + rng.normal(0.0, 20.0, size=truths.shape)
    return histories, truths, preds


def report_cells(histories, truths, preds, actions, frame_of=HORIZONS):
    """An evaluation report's cells computed with the given horizon frames."""
    actions = np.asarray(actions)
    cells = {}
    for system, pred in (("zero_velocity", checks.zero_velocity(histories)), ("model", preds)):
        rows = {}
        for action in sorted(set(actions.tolist())) + ["all"]:
            idx = np.ones(len(actions), bool) if action == "all" else actions == action
            rows[action] = {ms: checks.joint_error(pred[idx], truths[idx], frame_of[ms])
                            for ms in HORIZONS}
        cells[system] = rows
    return cells


def test_forecast_shifted_by_1mm_fails(windows):
    _, truths, preds = windows
    good = checks.Checks()
    checks.check_forecast(good, preds[0].copy(), preds[0], "forecast")
    assert good.correct
    bad = checks.Checks()
    checks.check_forecast(bad, preds[0] + 1.0, preds[0], "forecast")
    assert not bad.correct


def test_forecast_with_nan_or_missing_frames_fails(windows):
    _, _, preds = windows
    nan = preds[0].copy()
    nan[3, 2, 1] = np.nan
    for frames in (nan, preds[0][:-1]):
        c = checks.Checks()
        checks.check_forecast(c, frames, preds[0], "forecast")
        assert not c.correct


def test_train_mpjpe_at_wrong_frame_fails(windows):
    histories, truths, preds = windows
    right = {ms: checks.joint_error(preds, truths, f) for ms, f in HORIZONS.items()}
    good = checks.Checks()
    assert checks.check_train(good, preds, truths, histories, right) == right
    assert good.correct
    wrong = {**right, 1000: checks.joint_error(preds, truths, HORIZONS[1000] - 1)}
    bad = checks.Checks()
    checks.check_train(bad, preds, truths, histories, wrong)
    assert not bad.correct


def test_train_prediction_shifted_by_1mm_fails(windows):
    histories, truths, preds = windows
    right = {ms: checks.joint_error(preds, truths, f) for ms, f in HORIZONS.items()}
    bad = checks.Checks()
    checks.check_train(bad, preds + 1.0, truths, histories, right)
    assert not bad.correct


def test_train_model_no_better_than_zero_velocity_fails(windows):
    histories, truths, _ = windows
    zero = checks.zero_velocity(histories)
    errors = {ms: checks.joint_error(zero, truths, f) for ms, f in HORIZONS.items()}
    c = checks.Checks()
    checks.check_train(c, zero, truths, histories, errors)
    assert len(c.failures) == len(HORIZONS)


def test_eval_report_at_wrong_frame_fails(windows):
    histories, truths, preds = windows
    actions = ["walk", "walk", "idle_sway", "wave_arms"]
    good = checks.Checks()
    checks.check_eval(good, report_cells(histories, truths, preds, actions),
                      histories, truths, actions, preds)
    assert good.correct
    shifted = {ms: f - 1 for ms, f in HORIZONS.items()}
    bad = checks.Checks()
    checks.check_eval(bad, report_cells(histories, truths, preds, actions, shifted),
                      histories, truths, actions, preds)
    assert not bad.correct


def test_eval_model_rows_shifted_by_1mm_fail(windows):
    histories, truths, preds = windows
    actions = ["walk", "walk", "idle_sway", "wave_arms"]
    c = checks.Checks()
    checks.check_eval(c, report_cells(histories, truths, preds + 1.0, actions),
                      histories, truths, actions, preds)
    assert not c.correct
    assert all("model/" in failure for failure in c.failures)


def test_rollout_prefix_one_ulp_off_fails(windows):
    _, _, preds = windows
    good = checks.Checks()
    checks.check_prefix(good, preds[0][:10].copy(), preds[0])
    assert good.correct
    short = preds[0][:10].copy()
    short[9, 0, 0] = np.nextafter(short[9, 0, 0], np.inf)
    bad = checks.Checks()
    checks.check_prefix(bad, short, preds[0])
    assert not bad.correct


def test_zero_head_one_ulp_off_fails(windows):
    histories, _, _ = windows
    last = histories[0][-1]
    exact = np.repeat(last[None], FUTURE, axis=0)
    good = checks.Checks()
    checks.check_zero_head(good, exact.copy(), last)
    assert good.correct
    off = exact.copy()
    off[FUTURE - 1, 16, 2] = np.nextafter(off[FUTURE - 1, 16, 2], -np.inf)
    bad = checks.Checks()
    checks.check_zero_head(bad, off, last)
    assert not bad.correct


def test_motion_csv_round_trips_17_digits(tmp_path, windows):
    _, _, preds = windows
    path = tmp_path / "pred.csv"
    with open(path, "w") as fh:
        fh.write("# fps=25 joints=" + ",".join(f"j{i}" for i in range(17)) + "\n")
        for row in preds[0].reshape(FUTURE, -1):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    c = checks.Checks()
    c.bitwise(checks.read_motion_csv(path), preds[0], "csv round trip")
    assert c.correct
