"""The benchmark under bench/ wraps program functions by name, so renaming
one of them must fail this fast test rather than only the traced benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_finds_every_hook():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.instrument(tracer.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
