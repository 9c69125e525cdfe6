"""The benchmark under bench/ wraps program functions by name, so renaming
one of them must fail this fast test rather than only the traced benchmark."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_finds_every_hook():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.instrument(tracer.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_tests_pass():
    """The benchmark's own tests, among them the attribution of a real train
    step, so that a program change which breaks them fails here. In a
    subprocess, because ``tracer.instrument`` patches ``advmt`` for the rest
    of its process."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train", "eval", "predict"])
def test_benchmark_workload_runs_once(tmp_path, workload):
    """One short traced run of each benchmark workload, as the benchmark runs it:
    through ``fit``, ``evaluate``, ``model.rollout`` and ``cli.main`` with every
    hook wrapped. The hook test above only installs the wrappers, so a moved
    name would otherwise fail only in the benchmark itself. ``src/`` and
    ``bench/`` are copied, so the run writes nothing into the checkout. Seed 0
    is fixed; the ``train`` check's known failing seeds are a separate matter."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part, ignore=skip)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), result.stderr[-4000:]


def test_each_layer_call_enters_attention_once(monkeypatch):
    """The tracer times ``EncoderLayer.attention`` as the attention half and
    the rest of ``EncoderLayer.__call__`` as the feed-forward half, so one
    forward pass must enter ``attention`` once per layer, inside that
    layer's ``__call__``."""
    import numpy as np

    from advmt.model import EncoderConfig, EncoderLayer, EncoderModel
    from advmt.tensor import Tensor

    enc = EncoderModel(EncoderConfig(input_dim=6, num_layers=3, num_heads=2, model_dim=8,
                                     ff_dim=8, history_len=5), np.random.default_rng(0))
    inside, entered = [], []
    call, attention = EncoderLayer.__call__, EncoderLayer.attention

    def counted_call(self, *args, **kwargs):
        inside.append(self)
        try:
            return call(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_attention(self, *args, **kwargs):
        entered.append((self, list(inside)))
        return attention(self, *args, **kwargs)

    monkeypatch.setattr(EncoderLayer, "__call__", counted_call)
    monkeypatch.setattr(EncoderLayer, "attention", counted_attention)
    enc.forward_window(Tensor(np.ones((2, 5, 6)), requires_grad=True))
    assert entered == [(layer, [layer]) for layer in enc.layers]
