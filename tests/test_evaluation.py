import sys
import threading
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from advmt import model as model_mod
from advmt import tensor
from advmt.data import Corpus, CorpusConfig, generate_corpus
from advmt.errors import ConfigurationError, HorizonError, ReportError
from advmt.evaluation import (
    EvalReport,
    HorizonSet,
    ablation_report,
    evaluate,
    horizon_frames,
    mean_velocity_magnitude,
    mpjpe_at_horizon,
    render_pose_strip,
    zero_velocity_baseline,
)
from advmt.losses import mpjpe
from advmt.model import ROLLOUT_CHUNK, EncoderConfig, _batched_rollout, init_encoder, rollout_graph
from advmt.skeleton import MotionSequence, temporal_difference
from advmt.tensor import Tensor, no_grad


class TestHorizonFrames:
    @pytest.mark.parametrize("ms,expected", [(1000, 25), (160, 4), (560, 14), (40, 1)])
    def test_at_25_fps(self, ms, expected):
        assert horizon_frames(ms, 25) == expected

    def test_non_integer_period_rejected(self):
        with pytest.raises(HorizonError):
            horizon_frames(1000, 30)

    def test_non_multiple_rejected(self):
        with pytest.raises(HorizonError):
            horizon_frames(167, 25)

    @pytest.mark.parametrize("ms", [0, -40, -7])
    def test_non_positive_rejected_as_such(self, ms):
        with pytest.raises(HorizonError, match=rf"^a horizon must be positive, got {ms} ms$"):
            horizon_frames(ms, 25)

    def test_repeated_horizon_rejected(self):
        with pytest.raises(HorizonError, match="^horizon 160 ms is given twice$"):
            HorizonSet(milliseconds=(160, 400, 160))

    def test_default_set_maps_within_span(self):
        assert HorizonSet().frames() == (4, 10, 14, 18, 22, 25)


class TestMpjpeAtHorizon:
    def test_zero_when_equal(self, rng):
        x = rng.standard_normal((25, 5, 3))
        for k in (1, 10, 25):
            assert mpjpe_at_horizon(x, x.copy(), k) == 0.0

    def test_uniform_offset(self, rng):
        truth = rng.standard_normal((10, 4, 3))
        pred = truth.copy()
        pred[4] += np.array([6.0, 8.0, 0.0])  # norm 10 at frame 5
        assert mpjpe_at_horizon(pred, truth, 5) == pytest.approx(10.0, abs=1e-12)
        assert mpjpe_at_horizon(pred, truth, 6) == 0.0

    def test_matches_loop_oracle(self, rng):
        pred = rng.standard_normal((6, 3, 3))
        truth = rng.standard_normal((6, 3, 3))
        k = 4
        total = 0.0
        for n in range(3):
            d = pred[k - 1, n] - truth[k - 1, n]
            total += np.sqrt((d ** 2).sum())
        assert abs(mpjpe_at_horizon(pred, truth, k) - total / 3) < 1e-12

    def test_out_of_range(self, rng):
        x = rng.standard_normal((5, 2, 3))
        with pytest.raises(HorizonError):
            mpjpe_at_horizon(x, x, 6)

    def test_slice_mean_consistency(self, rng):
        pred = rng.standard_normal((25, 4, 3))
        truth = rng.standard_normal((25, 4, 3))
        averaged = np.mean([mpjpe_at_horizon(pred, truth, k) for k in range(1, 26)])
        assert abs(averaged - mpjpe(pred, truth)) < 1e-12


class TestZeroVelocityBaseline:
    def test_constant_input_perfect(self):
        history = np.ones((10, 3, 3))
        future = np.ones((5, 3, 3))
        pred = zero_velocity_baseline(history, 5)
        assert mpjpe(pred, future) == 0.0

    def test_linear_motion_closed_form(self):
        v = np.array([3.0, 0.0, 4.0])  # speed 5 per frame
        frames = np.arange(20)[:, None, None] * v
        history, future = frames[:10], frames[10:]
        pred = zero_velocity_baseline(history, 10)
        for k in range(1, 11):
            assert mpjpe_at_horizon(pred, future, k) == pytest.approx(5.0 * k, rel=1e-12)

    def test_zero_velocity_by_definition(self, rng):
        pred = zero_velocity_baseline(rng.standard_normal((5, 2, 3)), 7)
        assert np.array_equal(temporal_difference(pred), np.zeros((6, 2, 3)))

    def test_batch_matches_per_window(self, rng):
        histories = rng.standard_normal((4, 5, 2, 3))
        pred = zero_velocity_baseline(histories, 7)
        assert pred.shape == (4, 7, 2, 3)
        for h, p in zip(histories, pred):
            assert np.array_equal(p, zero_velocity_baseline(h, 7))

    def test_rejects_pose_without_time_axis(self):
        with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
            zero_velocity_baseline(np.zeros((2, 3)), 7)


class TestMeanVelocity:
    def test_constant_prediction_is_zero(self):
        preds = np.ones((3, 25, 2, 3))
        assert mean_velocity_magnitude(preds, 15, 25) == 0.0

    def test_linear_motion(self):
        v = np.array([0.0, 2.0, 0.0])
        frames = np.arange(25)[:, None, None] * v
        preds = frames[None]
        assert mean_velocity_magnitude(preds, 15, 25) == pytest.approx(2.0)


def small_test_corpus(topo, n=3, frames=80):
    cs = generate_corpus(CorpusConfig(n_train=1, n_test=n, n_frames=frames), topo)
    return cs.test


class TestEvaluate:
    def test_baseline_only(self, topo17):
        corpus = small_test_corpus(topo17)
        report = evaluate(None, corpus, HorizonSet(), history_frames=50)
        assert report.systems() == ("zero_velocity",)
        assert set(report.actions()) == {"walk", "all"}
        for ms in report.horizons_ms:
            assert report.value("zero_velocity", "all", ms) > 0

    def test_baseline_as_model_reproduces_baseline_columns(self, topo17):
        # a "model" whose forward pass repeats the last observed frame is the
        # zero-velocity predictor, so its columns must equal the baseline's
        from advmt.model import EncoderConfig

        class FrozenPose:
            config = EncoderConfig(input_dim=51, history_len=50)

            def forward_window(self, x):
                return x[..., -1, :]

        corpus = small_test_corpus(topo17)
        report = evaluate(FrozenPose(), corpus, HorizonSet())
        for action in report.actions():
            for ms in report.horizons_ms:
                assert report.value("model", action, ms) == report.value(
                    "zero_velocity", action, ms
                )

    def test_baseline_cells_match_direct_computation(self, topo17):
        from advmt.data import window

        corpus = small_test_corpus(topo17)
        report = evaluate(None, corpus, HorizonSet(), history_frames=50)
        samples = [w for seq in corpus.sequences for w in window(seq, 50, 25, 5)]
        preds = np.stack([zero_velocity_baseline(s.input, 25) for s in samples])
        truths = np.stack([s.target for s in samples])
        assert report.value("zero_velocity", "all", 1000) == pytest.approx(
            mpjpe_at_horizon(preds, truths, 25), abs=1e-12
        )

    def test_window_order_invariance(self, topo17):
        corpus = small_test_corpus(topo17)
        shuffled = Corpus(sequences=list(reversed(corpus.sequences)), split="test")
        a = evaluate(None, corpus, HorizonSet(), history_frames=50)
        b = evaluate(None, shuffled, HorizonSet(), history_frames=50)
        for ms in a.horizons_ms:
            assert a.value("zero_velocity", "all", ms) == pytest.approx(
                b.value("zero_velocity", "all", ms), abs=1e-9
            )

    def test_empty_corpus_rejected(self, topo17):
        short = small_test_corpus(topo17, frames=40)
        with pytest.raises(ConfigurationError):
            evaluate(None, short, HorizonSet(), history_frames=50)

    def test_report_csv_roundtrip_and_determinism(self, topo17, tmp_path):
        corpus = small_test_corpus(topo17)
        report = evaluate(None, corpus, HorizonSet(), history_frames=50,
                          corpus_label="corpus-x")
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        report.to_csv(p1)
        report.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = EvalReport.from_csv(p1)
        assert loaded.horizons_ms == report.horizons_ms
        assert loaded.corpus == "corpus-x"
        for system in report.cells:
            for action in report.cells[system]:
                for ms, v in report.cells[system][action].items():
                    assert loaded.value(system, action, ms) == v


def tiny_encoder():
    return init_encoder(EncoderConfig(input_dim=6, num_layers=1, num_heads=2, model_dim=8,
                                      ff_dim=8, history_len=6), seed=0)


def serial_rollout(model, histories, l_frames):
    """The rollout one thread at a time in consecutive ``ROLLOUT_CHUNK`` chunks."""
    w, t, n, _ = histories.shape
    with no_grad():
        parts = [rollout_graph(model, Tensor(c.reshape(len(c), t, 3 * n)), l_frames).data
                 for c in (histories[i:i + ROLLOUT_CHUNK] for i in range(0, w, ROLLOUT_CHUNK))]
    return np.concatenate(parts).reshape(w, l_frames, n, 3)


def recording_rollout(monkeypatch):
    """Record (thread, windows, graph built) for every chunk ``_batched_rollout`` rolls out."""
    calls = []

    def recorded(model, window, l_frames):
        out = rollout_graph(model, window, l_frames)
        calls.append((threading.get_ident(), window.shape[0], out.requires_grad))
        return out

    monkeypatch.setattr(model_mod, "rollout_graph", recorded)
    return calls


class FailingPose:
    """Repeats the last frame, slowly, but raises on a chunk holding a window
    that starts at 999; the other threads are then still at work."""

    config = EncoderConfig(input_dim=6, history_len=6)

    def forward_window(self, x):
        time.sleep(0.01)
        if (x.data[:, 0, 0] == 999.0).any():
            raise ValueError("bad chunk")
        return x[..., -1, :]


class TestBatchedRollout:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("w", [1, 7, 8, 9, 17, 20, 72])
    def test_bytes_equal_serial_chunks(self, monkeypatch, rng, cpus, w):
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: cpus)
        calls = recording_rollout(monkeypatch)
        model = tiny_encoder()
        histories = rng.standard_normal((w, 6, 2, 3))
        out = _batched_rollout(model, histories, 5)
        assert out.tobytes() == serial_rollout(model, histories, 5).tobytes()
        assert len({ident for ident, _, _ in calls}) == min(cpus, w)
        assert sum(n for _, n, _ in calls) == w
        assert max(n for _, n, _ in calls) <= ROLLOUT_CHUNK

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch, rng):
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: 5)
        model = tiny_encoder()
        histories = rng.standard_normal((72, 6, 2, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _batched_rollout(model, histories, 5)
        finally:
            sys.setswitchinterval(interval)
        assert out.tobytes() == serial_rollout(model, histories, 5).tobytes()

    @pytest.mark.parametrize("bad", [0, 5], ids=["caller_chunk", "helper_chunk"])
    def test_error_in_one_chunk_is_raised_after_every_thread_ends(self, monkeypatch, rng, bad):
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: 2)
        histories = rng.standard_normal((20, 6, 2, 3))  # four chunks of 5: 0, 2 on the caller
        histories[bad, 0, 0, 0] = 999.0
        threads = threading.active_count()
        with pytest.raises(ValueError, match="bad chunk"):
            _batched_rollout(FailingPose(), histories, 3)
        assert threading.active_count() == threads
        assert tensor._grad_enabled is True

    def test_no_graph_with_grad_enabled(self, monkeypatch, rng):
        monkeypatch.setattr(model_mod, "_cpu_count", lambda: 2)
        calls = recording_rollout(monkeypatch)
        model = tiny_encoder()
        assert tensor._grad_enabled and all(p.requires_grad for p in model.parameters())
        out = _batched_rollout(model, rng.standard_normal((20, 6, 2, 3)), 3)
        assert isinstance(out, np.ndarray)
        assert len(calls) == 4 and not any(graph for _, _, graph in calls)
        assert tensor._grad_enabled is True


class TestAblation:
    def _report(self, values, horizons=(400, 1000)):
        cells = {"model": {"all": dict(zip(horizons, values))}}
        return EvalReport(horizons_ms=horizons, fps=25, cells=cells)

    def test_single_run_single_row(self, tmp_path):
        table = ablation_report([("full", self._report([10.0, 20.0]))])
        assert len(table.rows) == 1
        table.to_csv(tmp_path / "ab.csv")
        text = (tmp_path / "ab.csv").read_text().splitlines()
        assert text[0] == "variant,horizon_ms,mpjpe_mm"
        assert text[1] == "full,400,10"

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ReportError):
            ablation_report([
                ("a", self._report([1.0, 2.0])),
                ("b", self._report([1.0], horizons=(1000,))),
            ])

    def test_text_grid(self):
        table = ablation_report([
            ("baseline", self._report([44.2, 126.6])),
            ("full", self._report([33.2, 106.6])),
        ])
        text = table.to_text()
        assert "baseline" in text and "126.6" in text


class TestPoseStrip:
    def test_empty_is_valid_svg(self, topo17, tmp_path):
        path = tmp_path / "empty.svg"
        render_pose_strip([], topo17, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_stroke_count(self, topo17, tmp_path, rng):
        seqs = [
            MotionSequence(frames=rng.standard_normal((10, 17, 3)) * 100, fps=25),
            MotionSequence(frames=rng.standard_normal((10, 17, 3)) * 100, fps=25),
        ]
        path = tmp_path / "strip.svg"
        render_pose_strip(seqs, topo17, path, frame_step=5)
        root = ET.parse(path).getroot()
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(lines) == 16 * 2 * 2  # bones x rendered frames x sequences

    def test_distinct_colors(self, topo17, tmp_path, rng):
        seqs = [
            MotionSequence(frames=rng.standard_normal((5, 17, 3)) * 100, fps=25),
            MotionSequence(frames=rng.standard_normal((5, 17, 3)) * 100, fps=25),
        ]
        path = tmp_path / "strip.svg"
        render_pose_strip(seqs, topo17, path, frame_step=5)
        root = ET.parse(path).getroot()
        strokes = {e.get("stroke") for e in root.iter() if e.tag.endswith("line")}
        assert len(strokes) == 2
