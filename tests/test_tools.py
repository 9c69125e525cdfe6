"""``tools/same_bytes.py``: two source trees run the same commands, and every
output is compared."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_bytes(parent, change):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "same_bytes.py"),
                           str(parent), str(change)], capture_output=True, text=True, timeout=900)


@pytest.mark.slow
def test_same_bytes_passes_one_tree_and_names_one_changed_byte(tmp_path):
    """The checkout against itself: its two runs differ in manifest clocks, work
    directories and trainlog seconds, and nothing else. A copy whose
    ``ablation.csv`` header starts with ``V`` for ``v`` differs in that file alone."""
    same = same_bytes(ROOT, ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert len(lines) > 30 and all(line.startswith("same  ") for line in lines[:-1])
    assert "same  eval/ablation.csv" in lines and "same  full/trainlog.csv" in lines

    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    evaluation = tmp_path / "src" / "advmt" / "evaluation.py"
    text = evaluation.read_text()
    assert text.count('"variant,horizon_ms,mpjpe_mm\\n"') == 1
    evaluation.write_text(text.replace('"variant,horizon_ms', '"Variant,horizon_ms'))
    differ = same_bytes(ROOT, tmp_path)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    assert [line for line in differ.stdout.splitlines()
            if not line.startswith("same  ")][:-1] == ["DIFF  eval/ablation.csv"]
