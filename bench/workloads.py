"""The benchmark's three workloads: train, eval and predict.

Each workload sets up its inputs from the seed, runs its operation in
whole rounds until the run's seconds are used, then checks the program's
outputs against ``checks``. Timings of operations come from the
benchmark's own clock around public calls; with a tracer, operations
alternate between traced and untraced so the tracer's overhead can be
measured in the same process.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import time

import numpy as np

from advmt import cli, data, evaluation, model, training
from advmt.data import CorpusConfig
from advmt.model import EncoderConfig
from advmt.skeleton import MotionSequence, SkeletonTopology
from advmt.training import TrainConfig

import checks
from checks import FUTURE, HISTORY, HORIZONS

SETUP_REPEATS = 3
MIXED_STYLES = ("walk", "wave_arms", "idle_sway")
# Windows per second of ``fit`` on a 2-core x86-64 machine; sizes the train
# workload's epoch count so that fit takes about --seconds there, but never
# fewer than TRAIN_MIN_EPOCHS: after 3 epochs 6 of seeds 0-7 do not beat zero
# velocity at 160 ms, after 6 every seed tried does at 160 and 1000 ms.
TRAIN_WINDOWS_PER_S = 6.0
TRAIN_MIN_EPOCHS = 6


def corpus_config(seed, **kwargs) -> CorpusConfig:
    """Seed s generates train sequences from 1000 s and test ones from 1000 s + 500."""
    return CorpusConfig(train_seed_base=1000 * seed, test_seed_base=1000 * seed + 500, **kwargs)


class Run:
    """State shared by a workload and ``run.py``."""

    def __init__(self, workdir, seed, seconds, tracer):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.checks = checks.Checks()
        self.attempted = 0
        self.failed = 0
        self.setup_s = 0.0
        self.op_seconds = []  # untraced operation times
        self.traced_op_seconds = []
        self.work_seconds = 0.0  # time inside the operations that windows_per_s counts
        self.units = 0  # windows (train, eval) or requests (predict) in that time
        self.mpjpe = {}  # ms -> mm, the model's error on the test windows
        self.val_mpjpe = {}  # the same for a trained model, train only
        self.op_name = ""

    def setup(self, build):
        """Run ``build(directory)`` SETUP_REPEATS times; keep the last result."""
        times = []
        for i in range(SETUP_REPEATS):
            directory = os.path.join(self.workdir, f"setup{i}")
            start = time.perf_counter()
            state = build(directory)
            times.append(time.perf_counter() - start)
        self.setup_s = statistics.median(times)
        return state

    def trace_op(self, index) -> bool:
        """With a tracer, trace even-numbered operations and not odd ones."""
        traced = self.tracer is not None and index % 2 == 0
        if self.tracer is not None:
            self.tracer.enabled = traced
        return traced

    def record(self, seconds, traced):
        (self.traced_op_seconds if traced else self.op_seconds).append(seconds)

    def trace_all(self, on=True):
        if self.tracer is not None:
            self.tracer.enabled = on


def _frame_statistics(corpus):
    windows = evaluation.collect_windows(corpus, HISTORY, FUTURE, checks.STRIDE)
    return model.compute_frame_statistics(
        np.stack([w.input for w in windows]), np.stack([w.target for w in windows])
    )


def _initialised_encoder(seed, train_split, n_joints):
    encoder = model.EncoderModel(EncoderConfig(input_dim=3 * n_joints),
                                 np.random.default_rng(seed))
    encoder.set_frame_statistics(*_frame_statistics(train_split))
    return encoder


def _test_windows(corpus):
    pairs = [w for seq in corpus.sequences for w in checks.windows(seq.frames)]
    return np.stack([h for h, _ in pairs]), np.stack([t for _, t in pairs])


def _per_window_rollouts(encoder, histories):
    return np.stack([model.rollout(encoder, h, FUTURE) for h in histories])


# -- train ----------------------------------------------------------------------

TRAIN_CORPUS = dict(n_train=20, n_test=10, n_frames=80)  # criterion 7's ABLATION_CORPUS


def train(run: Run):
    """``fit`` with default models, weights and batch 8 on a walk corpus loaded from CSV."""
    run.op_name = "training step"
    topo = SkeletonTopology.default_17()
    cfg = corpus_config(run.seed, **TRAIN_CORPUS)

    def build(directory):
        corpus = data.generate_corpus(cfg, topo)
        return data.load_corpus(data.write_corpus(corpus, directory))

    corpus = run.setup(build)
    per_epoch = sum(len(checks.windows(s.frames)) for s in corpus.train.sequences)
    epochs = max(TRAIN_MIN_EPOCHS, round(run.seconds * TRAIN_WINDOWS_PER_S / per_epoch))
    train_cfg = TrainConfig(seed=run.seed, epochs=epochs)
    steps_per_epoch = math.ceil(per_epoch / train_cfg.batch_size)

    # Probes: time every step; with a tracer, trace whole epochs alternately
    # (validation included) and trace everything outside the steps.
    inner_step = training.Trainer.train_step
    inner_validate = training._validate
    steps = []

    def timed_step(trainer, batch):
        traced = run.trace_op(len(steps) // steps_per_epoch)
        start = time.perf_counter()
        result = inner_step(trainer, batch)
        steps.append(time.perf_counter() - start)
        run.record(steps[-1], traced)
        run.attempted += len(batch)
        return result

    def validate_then_trace(*args):
        result = inner_validate(*args)
        run.trace_all()  # the final checkpoint is traced whatever the last epoch was
        return result

    training.Trainer.train_step = timed_step
    training._validate = validate_then_trace
    out_dir = os.path.join(run.workdir, "fit")
    try:
        start = time.perf_counter()
        _, _, log = training.fit(corpus, train_cfg, out_dir=out_dir)
        run.work_seconds = time.perf_counter() - start
    finally:
        training.Trainer.train_step = inner_step
        training._validate = inner_validate
    run.units = run.attempted
    run.trace_all(False)

    encoder = model.load_checkpoint(os.path.join(out_dir, "encoder.ckpt"))
    histories, truths = _test_windows(corpus.test)
    run.val_mpjpe = checks.check_train(run.checks, _per_window_rollouts(encoder, histories),
                                   truths, histories, log.records[-1].val_mpjpe)
    return {"epochs": epochs, "train_windows_per_epoch": per_epoch, "steps": len(steps)}


# -- eval -----------------------------------------------------------------------

EVAL_CORPUS = dict(n_train=12, n_test=12, n_frames=100, styles=MIXED_STYLES)


def evaluate_workload(run: Run):
    """``evaluate`` on a checkpointed, initialised encoder over a mixed-style test split."""
    run.op_name = "evaluate call"
    topo = SkeletonTopology.default_17()
    cfg = corpus_config(run.seed, **EVAL_CORPUS)

    def build(directory):
        corpus = data.load_corpus(data.write_corpus(data.generate_corpus(cfg, topo), directory))
        encoder = _initialised_encoder(run.seed, corpus.train, topo.joint_count)
        path = os.path.join(directory, "encoder.ckpt")
        model.save_checkpoint(encoder, path)
        return corpus, model.load_checkpoint(path)

    corpus, encoder = run.setup(build)
    histories, truths = _test_windows(corpus.test)
    n_windows = len(histories)

    reports = []
    deadline = time.perf_counter() + run.seconds
    while not reports or time.perf_counter() < deadline or (run.tracer and len(reports) < 2):
        traced = run.trace_op(len(reports))
        start = time.perf_counter()
        reports.append(evaluation.evaluate(encoder, corpus.test))
        elapsed = time.perf_counter() - start
        run.record(elapsed, traced)
        run.work_seconds += elapsed
        run.attempted += n_windows
    run.units = run.attempted
    run.trace_all(False)

    report = reports[0]
    # every round forecasts the same windows, so every report is the same
    for other in reports[1:]:
        run.checks.expect(other.cells == report.cells, "eval: reports differ between rounds")

    actions = [seq.action_label for seq in corpus.test.sequences
               for _ in checks.windows(seq.frames)]
    preds = _per_window_rollouts(encoder, histories)
    checks.check_eval(run.checks, report.cells, histories, truths, actions, preds)
    checks.check_prefix(run.checks, model.rollout(encoder, histories[0], 10), preds[0])
    run.mpjpe = {ms: report.value("model", "all", ms) for ms in HORIZONS}
    return {"test_windows": n_windows, "rounds": len(reports)}


# -- predict --------------------------------------------------------------------

PREDICT_CORPUS = dict(n_train=12, n_test=6, n_frames=100, styles=MIXED_STYLES)


def predict(run: Run):
    """Sequential ``advmt predict`` requests through ``cli.main``, one caller."""
    run.op_name = "predict request"
    topo = SkeletonTopology.default_17()
    cfg = corpus_config(run.seed, **PREDICT_CORPUS)

    def build(directory):
        corpus = data.generate_corpus(cfg, topo)
        os.makedirs(directory, exist_ok=True)
        inputs = []
        for k, (history, _) in enumerate(w for s in corpus.test.sequences
                                         for w in checks.windows(s.frames)):
            path = os.path.join(directory, f"input_{k:03d}.csv")
            data.save_csv(MotionSequence(frames=history, fps=cfg.fps), path, topo.joint_names)
            inputs.append(path)
        encoder = _initialised_encoder(run.seed, corpus.train, topo.joint_count)
        ckpt = os.path.join(directory, "encoder.ckpt")
        model.save_checkpoint(encoder, ckpt)
        for p in encoder.head.params():
            p.data = np.zeros_like(p.data)
        zero_ckpt = os.path.join(directory, "encoder_zero_head.ckpt")
        model.save_checkpoint(encoder, zero_ckpt)
        return corpus, inputs, ckpt, zero_ckpt

    corpus, inputs, ckpt, zero_ckpt = run.setup(build)
    histories, truths = _test_windows(corpus.test)
    out_dir = os.path.join(run.workdir, "predictions")
    os.makedirs(out_dir)

    def request(input_path, checkpoint, out_path):
        argv = ["predict", "--checkpoint", checkpoint, "--input", input_path,
                "--frames", str(FUTURE), "--out", out_path]
        return cli.main(argv)

    outputs = []  # (input index, output path)
    deadline = time.perf_counter() + run.seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # whole rounds over every input, so each round is the same work
        while not outputs or time.perf_counter() < deadline:
            for k, path in enumerate(inputs):
                out_path = os.path.join(out_dir, f"pred_{len(outputs):05d}.csv")
                traced = run.trace_op(len(outputs))
                start = time.perf_counter()
                if traced:
                    run.tracer.begin("cli.request")
                code = request(path, ckpt, out_path)
                if traced:
                    run.tracer.end()
                elapsed = time.perf_counter() - start
                run.record(elapsed, traced)
                run.work_seconds += elapsed
                run.attempted += 1
                if code != 0:
                    run.failed += 1
                outputs.append((k, out_path))
        run.trace_all(False)
        zero_out = os.path.join(out_dir, "pred_zero_head.csv")
        zero_code = request(inputs[0], zero_ckpt, zero_out)
    run.units = len(outputs)
    run.attempted += 1
    if zero_code != 0:
        run.failed += 1

    reference = _per_window_rollouts(model.load_checkpoint(ckpt), histories)
    first = {}
    for k, out_path in outputs:
        if os.path.exists(out_path):  # a missing output is already counted in failed
            frames = checks.read_motion_csv(out_path)
            checks.check_forecast(run.checks, frames, reference[k], f"predict: {out_path}")
            first.setdefault(k, frames)
    if os.path.exists(zero_out):
        checks.check_zero_head(run.checks, checks.read_motion_csv(zero_out), histories[0][-1])
    if run.checks.expect(len(first) == len(inputs), "predict: some inputs have no forecast"):
        preds = np.stack([first[k] for k in range(len(inputs))])
        run.mpjpe = {ms: checks.joint_error(preds, truths, f) for ms, f in HORIZONS.items()}
    return {"distinct_inputs": len(inputs), "requests": len(outputs)}


WORKLOADS = {"train": train, "eval": evaluate_workload, "predict": predict}
