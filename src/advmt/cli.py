"""Command-line entry point: generate / validate / train / eval / predict /
gradcheck.

Exit codes: 0 ok, 1 check failure, 2 usage or config error, 3 training
divergence. Every run directory gets a manifest written before any long
computation and a lock file so concurrent runs cannot share it.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import platform
import shutil
import subprocess
import sys

import numpy as np

from . import __version__
from . import discriminator as disc_mod
from . import model as model_mod
from .data import (
    CorpusConfig,
    csv_cell,
    generate_corpus,
    load_corpus,
    load_csv,
    save_csv,
    write_corpus,
)
from .errors import AdvmtError, DivergenceError, build_config
from .evaluation import (
    DEFAULT_HORIZONS_MS,
    HorizonSet,
    ablation_report,
    collect_windows,
    evaluate,
    render_pose_strip,
)
from .fileio import atomic_write, read_json_object
from .gradcheck import run_suite
from .losses import LossWeights
from .skeleton import MotionSequence, SkeletonTopology, bone_lengths
from .training import TrainConfig, fit

LOCK_NAME = ".advmt.lock"


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _build_id() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        if rev.returncode == 0:
            return f"{__version__}+{rev.stdout.strip()}"
    except OSError:
        pass
    return __version__


def _seed(value, source: str) -> int:
    """``value``, refused, naming its ``source``, unless it is a non-negative int (not a bool)."""
    if type(value) is not int or value < 0:
        raise AdvmtError(f"{source}: a seed must be a non-negative integer, got {value!r}")
    return value


def _resolve_seed(flag_seed, cfg_seed) -> int:
    """The flag's seed, else the config's, else ``ADVMT_SEED``'s, else 0."""
    if flag_seed is not None:
        return _seed(flag_seed, "--seed")
    if cfg_seed is not None:
        return _seed(cfg_seed, "config key 'seed'")
    env = os.environ.get("ADVMT_SEED")
    if env is None:
        return 0
    return _seed(int(env) if env.isdecimal() else env, "ADVMT_SEED")


def _pid_running(pid: int) -> bool:
    """Whether a process ``pid`` exists on this host; one that cannot be signalled counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass
    return True


def _lock_conflict(out_dir, lock_path) -> str:
    """Why ``lock_path`` blocks a run in ``out_dir``: its owner, and whether the owner is gone.
    A lock that cannot be read or names no owner is held all the same."""
    try:
        with open(lock_path) as fh:
            owner = json.load(fh)
        pid, host, started = owner["pid"], owner["host"], owner["started_at"]
        if type(pid) is not int or pid < 1:
            raise ValueError(pid)
    except (OSError, ValueError, TypeError, KeyError):
        return f"{out_dir} is locked by another run (its lock {lock_path} names no owner)"
    message = f"{out_dir} is locked by pid {pid} on host {host}, started at {started}"
    if host == platform.node() and not _pid_running(pid):
        message += (f"; no process {pid} runs on this host, so the lock is stale: "
                    f"remove {os.path.abspath(lock_path)} to clear it")
    return message


class RunDirectory:
    """Lock + manifest handling for commands that own an output directory.

    The lock file holds its owner's pid, host and start time as JSON, so a
    refused run can name the owner and tell a stale lock from a held one."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.lock_path = os.path.join(out_dir, LOCK_NAME)

    def __enter__(self):
        os.makedirs(self.out_dir, exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise AdvmtError(_lock_conflict(self.out_dir, self.lock_path)) from None
        try:
            with open(fd, "w") as fh:
                json.dump({"pid": os.getpid(), "host": platform.node(),
                           "started_at": _now()}, fh, sort_keys=True)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        try:
            os.remove(self.lock_path)
        except FileNotFoundError:
            pass
        return False

    def write_manifest(self, command, config, seed, config_path=None):
        manifest = {
            "command": command,
            "config_path": config_path,
            "config": config,
            "seed": seed,
            "build": _build_id(),
            "out_dir": os.path.abspath(self.out_dir),
            "started_at": _now(),
            "argv": sys.argv[1:],
        }
        with atomic_write(os.path.join(self.out_dir, "run_manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _flags(args, cls) -> dict:
    """The given flags that set fields of ``cls``, by name: each flag's ``dest`` is its field."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return {key: value for key, value in values.items() if value is not None}


# -- generate -------------------------------------------------------------------


def cmd_generate(args) -> int:
    raw = read_json_object(args.config) if args.config else {}
    where = f"{args.config}: " if args.config else ""
    topo_path = raw.pop("topology", None)  # a key of the file, not a CorpusConfig field
    if not isinstance(topo_path, (str, type(None))):
        raise AdvmtError(f"{where}corpus config: 'topology' must be a string, got {topo_path!r}")
    seed = _resolve_seed(args.seed, raw.pop("seed", None))
    cfg = build_config(CorpusConfig, raw, f"{where}corpus config",
                       overrides=_flags(args, CorpusConfig))
    if seed:
        cfg.train_seed_base += seed
        cfg.test_seed_base += seed
    topo = SkeletonTopology.from_json(topo_path) if topo_path else SkeletonTopology.default_17()

    with RunDirectory(args.out) as run:
        run.write_manifest("generate", dataclasses.asdict(cfg), seed, args.config)
        try:
            corpus_set = generate_corpus(cfg, topo)
            manifest_path = write_corpus(corpus_set, args.out)
        except Exception:
            for name in ("manifest.json", "skeleton.json", "train", "test"):
                target = os.path.join(args.out, name)
                if os.path.isdir(target):
                    shutil.rmtree(target, ignore_errors=True)
                elif os.path.exists(target):
                    os.remove(target)
            raise
    n_test = len(corpus_set.test.sequences) if corpus_set.test else 0
    print(f"wrote {len(corpus_set.train.sequences)} train / {n_test} test sequences "
          f"to {manifest_path}")
    return 0


# -- validate -------------------------------------------------------------------


def cmd_validate(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):  # a NaN tolerance would pass everything
        raise AdvmtError(f"--tol must be finite and >= 0, got {args.tol}")
    corpus_set = load_corpus(args.data)
    topo = corpus_set.topology
    problems = []
    for corpus in (corpus_set.train, corpus_set.test):
        if corpus is None:
            continue
        for i, seq in enumerate(corpus.sequences):
            lengths = bone_lengths(seq.frames, topo)
            worst = float(np.abs(lengths[1:] - lengths[0]).max(initial=0.0))
            if worst > args.tol:
                problems.append(
                    f"{corpus.split}[{i}]: bone length drift {worst:.3e} mm exceeds {args.tol:.1e}"
                )
    n_test = len(corpus_set.test.sequences) if corpus_set.test else 0
    print(f"checked {len(corpus_set.train.sequences)} train / {n_test} test sequences")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1
    print("all sequences pass bone-length constancy")
    return 0


# -- train ----------------------------------------------------------------------


def cmd_train(args) -> int:
    raw = read_json_object(args.config) if args.config else {}
    where = f"{args.config}: " if args.config else ""
    enc_raw, disc_raw = raw.pop("encoder", {}), raw.pop("discriminator", {})
    raw["weights"] = build_config(LossWeights, raw.pop("weights", {}), f"{where}weights",
                                  overrides=_flags(args, LossWeights))
    raw["seed"] = _resolve_seed(args.seed, raw.pop("seed", None))
    cfg = build_config(TrainConfig, raw, f"{where}train config",
                       overrides=_flags(args, TrainConfig))

    corpus_set = load_corpus(args.data)
    flat = 3 * corpus_set.topology.joint_count
    enc_cfg = build_config(model_mod.EncoderConfig, enc_raw, f"{where}encoder config",
                           defaults={"input_dim": flat, "history_len": cfg.history_frames})
    disc_cfg = build_config(disc_mod.DiscriminatorConfig, disc_raw,
                            f"{where}discriminator config", defaults={"input_dim": flat})

    with RunDirectory(args.out) as run:
        run.write_manifest("train", dataclasses.asdict(cfg), cfg.seed, args.config)
        try:
            _, _, log = fit(corpus_set, cfg, out_dir=args.out,
                            encoder_config=enc_cfg, disc_config=disc_cfg)
        except DivergenceError as exc:
            print(f"training diverged: {exc}", file=sys.stderr)
            return 3
    last = log.records[-1]
    val = " ".join(f"{ms}ms={v:.1f}" for ms, v in sorted(last.val_mpjpe.items()))
    print(f"epoch {last.epoch}: train mpjpe {last.mpjpe:.2f} mm"
          + (f", val mpjpe {val}" if val else ""))
    print(f"checkpoints and trainlog.csv written to {args.out}")
    return 0


# -- eval -----------------------------------------------------------------------


def _sequence_of(frames, fps, action):
    return MotionSequence(frames=frames, fps=fps, action_label=action)


def cmd_eval(args) -> int:
    if args.render < 0:
        raise AdvmtError(f"--render must be >= 0, got {args.render}")
    csv_cell(args.label, "--label")  # labels are cells of ablation.csv
    variants = []  # (label, checkpoint, encoder) per --ablate, all read before any output
    for item in args.ablate or ():
        label, _, ckpt = item.partition("=")
        if not ckpt:
            raise AdvmtError(f"--ablate expects label=checkpoint, got {item!r}")
        variants.append((csv_cell(label, "--ablate label"), ckpt,
                         model_mod.load_checkpoint(ckpt)))
    corpus_set = load_corpus(args.data)
    if corpus_set.test is None:
        raise AdvmtError(f"{args.data}: corpus has no test split to evaluate")
    fps = corpus_set.test.sequences[0].fps
    try:
        horizons = HorizonSet([int(m) for m in args.horizons.split(",")], fps)
    except ValueError as exc:  # a HorizonError, or int() naming the entry
        raise AdvmtError(f"--horizons: {exc}") from None

    model = None
    checkpoint_label = ""
    if not args.baseline_only:
        if not args.checkpoint:
            raise AdvmtError("--checkpoint is required unless --baseline-only is given")
        model = model_mod.load_checkpoint(args.checkpoint)
        checkpoint_label = os.path.basename(args.checkpoint)
        if args.history_frames not in (None, model.config.history_len):
            raise AdvmtError(f"--history-frames {args.history_frames} does not match the "
                             f"{model.config.history_len}-frame history of {args.checkpoint}")
        if variants and not args.label:  # the file name labels the model's ablation.csv rows
            csv_cell(checkpoint_label, "--checkpoint file name (the ablation label unless "
                                       "--label is given)")
    # evaluate windows each model by its own history length, and every row of an
    # ablation table must come from the same windows
    tabled = [(args.checkpoint, model)] if variants and model is not None else []
    tabled += [(ckpt, variant) for _, ckpt, variant in variants]
    for ckpt, variant in tabled[1:]:
        t, first_t = variant.config.history_len, tabled[0][1].config.history_len
        if t != first_t:
            raise AdvmtError(f"{ckpt} has a {t}-frame history, but {tabled[0][0]} has {first_t}: "
                             "every checkpoint of an ablation table must share one history length")

    report = evaluate(
        model, corpus_set.test, horizons,
        history_frames=args.history_frames, stride=args.stride,
        corpus_label=os.path.basename(args.data), checkpoint_label=checkpoint_label,
    )

    with RunDirectory(args.out) as run:
        run.write_manifest("eval", {"horizons_ms": list(horizons.milliseconds),
                                    "stride": args.stride,
                                    "checkpoint": args.checkpoint,
                                    "baseline_only": args.baseline_only}, 0)
        report_path = os.path.join(args.out, "report.csv")
        report.to_csv(report_path)
        print(f"wrote {report_path}")

        if args.ablate:
            runs = []
            if model is not None:
                label = args.label or checkpoint_label or "model"
                runs.append((label, report))
            runs += [(label, evaluate(variant, corpus_set.test, horizons, stride=args.stride))
                     for label, _, variant in variants]
            table = ablation_report(runs)
            table.to_csv(os.path.join(args.out, "ablation.csv"))
            print(table.to_text())

        if args.render and model is not None:
            t = model.config.history_len
            l = max(horizons.frames())
            samples = collect_windows(corpus_set.test, t, l, args.stride)[: args.render]
            preds = model_mod.rollout(model, np.stack([s.input for s in samples]), l)
            for k, (sample, pred) in enumerate(zip(samples, preds)):
                render_pose_strip(
                    [_sequence_of(sample.target, fps, "truth"),
                     _sequence_of(pred, fps, "prediction")],
                    corpus_set.topology, os.path.join(args.out, f"strip_{k:03d}.svg"),
                    drop_axis=args.drop_axis,
                )
            print(f"rendered {len(samples)} pose strips")
    return 0


# -- predict --------------------------------------------------------------------


def cmd_predict(args) -> int:
    if args.frames < 1:
        raise AdvmtError(f"--frames must be >= 1, got {args.frames}")
    topo = (SkeletonTopology.from_json(args.skeleton) if args.skeleton
            else SkeletonTopology.default_17())
    model = model_mod.load_checkpoint(args.checkpoint)
    seq = load_csv(args.input, topo)
    t = model.config.history_len
    if seq.n_frames < t:
        raise AdvmtError(f"{args.input}: {seq.n_frames} frames < history length {t}")
    history = seq.frames[-t:]
    pred = model_mod.rollout(model, history, args.frames)
    save_csv(_sequence_of(pred, seq.fps, "prediction"), args.out, topo.joint_names)
    print(f"wrote {args.frames} predicted frames to {args.out}")
    return 0


# -- gradcheck ------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=_seed(args.seed, "--seed"), instances=args.instances)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.op:<24} worst rel err {r.worst:.3e}  (tol {r.tolerance:.0e})  {status}")
        if not r.passed:
            failed.append(r.op)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advmt",
        description="Adversarially trained transformer motion forecaster",
    )
    parser.add_argument("--version", action="version", version=f"advmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic motion corpus")
    p.add_argument("--config", help="JSON corpus config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--frames", dest="n_frames", type=int)
    p.add_argument("--fps", type=int)
    p.add_argument("--styles", type=lambda s: s.split(","), help="comma-separated style names")
    p.add_argument("--amplitude-scale", dest="amplitude_scale", type=float)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("validate", help="check a corpus for bone-length constancy")
    p.add_argument("--data", required=True, help="corpus manifest.json")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("train", help="train encoder and discriminator")
    p.add_argument("--config", help="JSON train config")
    p.add_argument("--data", required=True, help="corpus manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr-encoder", dest="lr_encoder", type=float)
    p.add_argument("--lr-disc", dest="lr_disc", type=float)
    p.add_argument("--lambda-bone", dest="lambda_bone", type=float)
    p.add_argument("--lambda-adv", dest="lambda_adv", type=float)
    p.add_argument("--disc-steps", dest="disc_steps_per_gen_step", type=int)
    p.add_argument("--grad-clip", dest="grad_clip_norm", type=float)
    p.add_argument("--history-frames", dest="history_frames", type=int)
    p.add_argument("--predict-frames", dest="predict_frames", type=int)
    p.add_argument("--stride", dest="window_stride", type=int)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="per-horizon MPJPE report vs the zero-velocity baseline")
    p.add_argument("--checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizons", default=",".join(str(m) for m in DEFAULT_HORIZONS_MS))
    p.add_argument("--stride", type=int, default=5)
    p.add_argument("--baseline-only", dest="baseline_only", action="store_true")
    p.add_argument("--history-frames", dest="history_frames", type=int,
                   help="required with --baseline-only")
    p.add_argument("--label", help="variant label for the ablation table")
    p.add_argument("--ablate", action="append",
                   help="label=checkpoint; repeatable, builds the ablation grid")
    p.add_argument("--render", type=int, default=0, help="render N test windows as SVG strips")
    p.add_argument("--drop-axis", dest="drop_axis", default="y", choices=("x", "y", "z"))
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="roll out a forecast from a motion CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="motion CSV with at least T frames")
    p.add_argument("--frames", type=int, default=25)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--skeleton", help="topology JSON (default: built-in 17-joint)")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward rule")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--instances", type=int, default=10)
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AdvmtError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
