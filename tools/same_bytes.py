"""Run the same ``advmt`` commands on two source trees and compare what they write.

    python tools/same_bytes.py PARENT CHANGE

PARENT and CHANGE are directories that each hold ``src/advmt``: a checkout, or
a commit unpacked with ``git archive REV | tar -x -C DIR``. Each tree runs
``COMMANDS`` in its own temporary directory, with ``OPENBLAS_NUM_THREADS=1``
and that tree's ``src`` as ``PYTHONPATH``. Compared are:

- every file the commands write, by sha256;
- each command's exit code, stdout and stderr, with the temporary directory
  masked;
- each ``run_manifest.json`` by its ``command``, ``config``, ``config_path``
  and ``seed`` keys only, since the others hold the host, build, clock and argv;
- each ``trainlog.csv`` without its ``seconds`` column, which is wall time.

It prints one line per compared item and exits 1 if any item differs, else 0.
One tree takes about 16 s on a 2-core x86-64 machine.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

DATA = "corpus/manifest.json"
COMMANDS = (  # (name, advmt argv), run in this order in the tree's directory
    ("generate", ["generate", "--out", "corpus", "--n-train", "8", "--n-test", "4",
                  "--frames", "90", "--styles", "walk,wave_arms,idle_sway", "--seed", "3"]),
    ("validate", ["validate", "--data", DATA]),
    ("train full", ["train", "--data", DATA, "--out", "full", "--seed", "3", "--epochs", "2"]),
    ("train mpjpe_only", ["train", "--data", DATA, "--out", "mpjpe_only", "--seed", "3",
                          "--epochs", "2", "--lambda-bone", "0", "--lambda-adv", "0",
                          "--disc-steps", "0"]),
    ("eval", ["eval", "--checkpoint", "full/encoder.ckpt", "--data", DATA, "--out", "eval",
              "--render", "2", "--label", "full", "--ablate", "mo=mpjpe_only/encoder.ckpt"]),
    ("predict", ["predict", "--checkpoint", "full/encoder.ckpt",
                 "--input", "corpus/test/walk_0000.csv", "--out", "predict.csv"]),
    ("predict one frame", ["predict", "--checkpoint", "full/encoder.ckpt",  # one slide only
                           "--input", "corpus/test/walk_0000.csv", "--frames", "1",
                           "--out", "predict1.csv"]),
    ("gradcheck", ["gradcheck", "--instances", "2"]),
)
MANIFEST_KEYS = ("command", "config", "config_path", "seed")


def run_tree(tree, work) -> dict:
    """Run ``COMMANDS`` in the directory ``work`` with ``tree``'s ``src``: name -> the
    command's exit code, stdout and stderr as one text, with ``work`` masked."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    logs = {}
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "advmt", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=600)
        text = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        logs[name] = text.replace(work, "<work>")
    return logs


def _compared(path) -> bytes:
    """The part of the file at ``path`` that two trees must agree on."""
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name == "run_manifest.json":
        manifest = json.loads(data)
        kept = {key: manifest.get(key) for key in MANIFEST_KEYS}
        return json.dumps(kept, sort_keys=True).encode()
    if name == "trainlog.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        keep = [i for i, column in enumerate(rows[0]) if column != "seconds"]
        return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    return data


def _digests(work) -> dict:
    """Relative path -> sha256 of the compared part, for every file under ``work``."""
    digests = {}
    for root, _, names in os.walk(work):
        for name in names:
            path = os.path.join(root, name)
            digests[os.path.relpath(path, work)] = hashlib.sha256(_compared(path)).hexdigest()
    return digests


def compare(work_a, logs_a, work_b, logs_b) -> list:
    """``(item, same)`` for each command's log, then for each file that either run wrote;
    a file that only one run wrote differs."""
    items = [(f"{name}: exit code, stdout, stderr", logs_a[name] == logs_b[name])
             for name in logs_a]
    files_a, files_b = _digests(work_a), _digests(work_b)
    items += [(path, files_a.get(path) == files_b.get(path))
              for path in sorted(set(files_a) | set(files_b))]
    return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory holding the parent's src/advmt")
    parser.add_argument("change", help="directory holding the change's src/advmt")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "advmt")):
            parser.error(f"{tree} holds no src/advmt")
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = os.path.realpath(tmp)  # as the commands' own absolute paths spell it
        runs = []
        for side, tree in (("parent", args.parent), ("change", args.change)):
            work = os.path.join(tmp, side)
            os.mkdir(work)
            runs += [work, run_tree(tree, work)]
        items = compare(*runs)
    for item, same in items:
        print(f"{'same' if same else 'DIFF'}  {item}")
    differ = sum(not same for _, same in items)
    print(f"{len(items) - differ} of {len(items)} items the same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
