"""The tracer's span arithmetic, and its attribution of a real train step.

    python3 -m pytest bench/test_tracer.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracer as tracing  # noqa: E402

PHASES = ("training.rollout_forward", "training.disc_update", "training.loss",
          "training.enc_backward", "training.optimizer")


def test_self_time_excludes_children_and_hidden_time(monkeypatch):
    now = iter([0.0, 1.0, 3.0, 10.0])  # parent opens, child opens, child closes, parent closes
    monkeypatch.setattr(tracing, "_clock", lambda: next(now))
    t = tracing.Tracer()
    t.begin("parent")
    t.begin("child")
    t.hide(0.5)  # tracer work inside both spans
    t.end()
    t.end()
    assert t.total["child"] == pytest.approx(1.5)
    assert t.total["parent"] == pytest.approx(9.5)
    assert t.self_time["parent"] == pytest.approx(8.0)
    assert [(s[1], s[2]) for s in t.spans] == [(0, "child"), (-1, "parent")]


def test_train_step_phases_account_for_the_step():
    from advmt.data import CorpusConfig, generate_corpus, window
    from advmt.discriminator import DiscriminatorConfig, DiscriminatorModel
    from advmt.model import EncoderConfig, EncoderModel
    from advmt.skeleton import SkeletonTopology
    from advmt.training import TrainConfig, Trainer

    t = tracing.Tracer()
    tracing.instrument(t)
    topo = SkeletonTopology.default_17()
    seq = generate_corpus(CorpusConfig(n_train=1, n_test=0, n_frames=12), topo).train.sequences[0]
    batch = window(seq, 8, 4, 2)[:2]
    rng = np.random.default_rng(0)
    enc = EncoderModel(EncoderConfig(input_dim=51, num_layers=1, num_heads=2, model_dim=8,
                                     ff_dim=8, history_len=8), rng)
    disc = DiscriminatorModel(DiscriminatorConfig(input_dim=51), rng)
    Trainer(enc, disc, topo, TrainConfig(history_frames=8, predict_frames=4)).train_step(batch)

    assert t.calls["training.step"] == 1
    phases = sum(t.total[p] for p in PHASES)
    assert phases + t.self_time["training.step"] == pytest.approx(t.total["training.step"])
    assert all(t.total[p] > 0 for p in PHASES)
    assert t.calls["model.forward_window_grad"] == 4
    assert t.calls["discriminator.forward"] == 3  # real, fake, and the frozen generator term
    assert t.calls["tensor.backward"] == 2
    assert t.counts["tensor.graph_nodes"] > 0 and t.counts["tensor.matmul"] > 0
