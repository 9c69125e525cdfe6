"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload {train,eval,predict} --seed N --seconds S --trace {0,1}

The program is imported from the ``src`` directory next to ``bench/``.
With ``--trace 0`` the result holds the end-to-end metrics, measured with
nothing wrapped. With ``--trace 1`` the program's layers are wrapped by
``tracer.instrument`` and the result holds the per-module metrics,
including the tracer's own overhead. Work files go to ``.bench_work/`` and
are removed at the end; the result and, when traced, every span go to
``.bench_out/``. See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# One BLAS thread: the workload process is the only thread generating load.
# It must be fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(run, peak_rss_mb):
    ms = [1e3 * s for s in run.op_seconds]
    return {
        "setup_s": (run.setup_s, "s"),
        "windows_per_s": (run.units / run.work_seconds, "windows/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (_percentile(ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(run, tracer):
    t = tracer
    ops = len(run.traced_op_seconds)

    def per_op(value):
        return value / ops if ops else 0.0

    def per_step(label):
        steps = t.calls["training.step"]
        return 1e3 * t.total[label] / steps if steps else 0.0

    windows = ("model.forward_window_grad", "model.forward_window_nograd")
    window_calls = sum(t.calls[w] for w in windows)
    untraced = statistics.median(run.op_seconds) if run.op_seconds else 0.0
    overhead = (100.0 * (statistics.median(run.traced_op_seconds) / untraced - 1.0)
                if untraced and run.traced_op_seconds else 0.0)
    metrics = {
        "data.generate_ms": t.ms_per_call("data.generate"),
        "data.frames_generated": (t.counts["data.frames_generated"] / t.calls["data.generate"]
                                  if t.calls["data.generate"] else 0.0),
        "data.write_ms": t.ms_per_call("data.write"),
        "data.load_ms": t.ms_per_call("data.load"),
        "data.load_csv_ms": t.ms_per_call("data.load_csv"),
        "data.save_csv_ms": t.ms_per_call("data.save_csv"),
        "checkpoint.save_ms": t.ms_per_call("checkpoint.save"),
        "checkpoint.load_ms": t.ms_per_call("checkpoint.load"),
        "model.rollout_grad_ms": t.ms_per_call("model.rollout_grad"),
        "model.rollout_nograd_ms": t.ms_per_call("model.rollout_nograd"),
        "model.forward_window_grad_ms": t.ms_per_call("model.forward_window_grad"),
        "model.forward_window_nograd_ms": t.ms_per_call("model.forward_window_nograd"),
        "model.forward_window_grad_calls": per_op(t.calls["model.forward_window_grad"]),
        "model.forward_window_nograd_calls": per_op(t.calls["model.forward_window_nograd"]),
        "model.attention_ms": t.self_ms_per_call("model.attention"),
        "model.feedforward_ms": t.self_ms_per_call("model.encoder_layer"),
        "model.embed_head_ms": (1e3 * sum(t.self_time[w] for w in windows) / window_calls
                                if window_calls else 0.0),
        "discriminator.forward_ms": t.ms_per_call("discriminator.forward"),
        "discriminator.forward_calls": per_op(t.calls["discriminator.forward"]),
        "losses.total_loss_ms": t.ms_per_call("losses.total_loss"),
        "tensor.backward_ms": per_op(1e3 * t.total["tensor.backward"]),
        "tensor.graph_nodes_per_step": (t.counts["tensor.graph_nodes"]
                                        / t.counts["tensor.encoder_backwards"]
                                        if t.counts["tensor.encoder_backwards"] else 0.0),
        "tensor.matmul_calls_per_step": per_op(t.counts["tensor.matmul"]),
        "training.step_ms": t.ms_per_call("training.step"),
        "training.rollout_forward_ms": per_step("training.rollout_forward"),
        "training.disc_update_ms": per_step("training.disc_update"),
        "training.loss_ms": per_step("training.loss"),
        "training.enc_backward_ms": per_step("training.enc_backward"),
        "training.optimizer_ms": per_step("training.optimizer"),
        "training.untraced_ms": t.self_ms_per_call("training.step"),
        "training.validate_ms": t.ms_per_call("training.validate"),
        "training.val_mpjpe_160ms_mm": run.val_mpjpe.get(160, 0.0),
        "training.val_mpjpe_1000ms_mm": run.val_mpjpe.get(1000, 0.0),
        "training.checkpoint_ms": (1e3 * t.total["training.checkpoint"] / t.calls["training.fit"]
                                   if t.calls["training.fit"] else 0.0),
        "evaluation.rollout_ms": (1e3 * t.total["evaluation.rollout"]
                                  / t.calls["evaluation.evaluate"]
                                  if t.calls["evaluation.evaluate"] else 0.0),
        "evaluation.scoring_ms": t.self_ms_per_call("evaluation.evaluate"),
        "cli.predict_other_ms": t.self_ms_per_call("cli.request"),
        "trace.overhead_pct": overhead,
    }
    units = {name: ("count" if name.endswith(("_calls", "_generated", "_per_step")) else
                    "%" if name.endswith("_pct") else
                    "mm" if name.endswith("_mm") else "ms") for name in metrics}
    return {name: (value, units[name]) for name, value in metrics.items()}


def _blas_version(np):
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "advmt", "__init__.py")):
        print(f"error: no program source at {src}/advmt; bench/ must sit next to src/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import resource

    import numpy as np

    import advmt
    import tracer as tracing
    import workloads

    if not os.path.abspath(advmt.__file__).startswith(src + os.sep):
        print(f"error: advmt was imported from {advmt.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run with the same pid
    os.makedirs(workdir)
    os.makedirs(out_dir, exist_ok=True)
    run = workloads.Run(workdir, args.seed, args.seconds, tracer)
    try:
        details = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = per_layer(run, tracer) if tracer else end_to_end(run, peak_rss_mb)
    result = {
        "correct": run.checks.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": _cpu_count(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "operation": run.op_name,
        "untraced_operations": len(run.op_seconds),
        "traced_operations": len(run.traced_op_seconds),
        "mpjpe_mm": run.val_mpjpe or run.mpjpe,
        "checks_passed": run.checks.passed,
        "check_failures": run.checks.failures,
        **details,
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "result": result, "operation_seconds": run.op_seconds,
                   "traced_operation_seconds": run.traced_op_seconds}, fh, indent=2)
        fh.write("\n")
    if tracer:
        tracer.write_spans(stem + "-spans.jsonl")
    for failure in run.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
