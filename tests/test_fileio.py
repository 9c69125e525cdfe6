import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from advmt import checkpoint
from advmt.evaluation import render_pose_strip
from advmt.fileio import atomic_write
from advmt.skeleton import MotionSequence
from advmt.tensor import Tensor


class Crash(Exception):
    pass


class TestAtomicWrite:
    def test_replaces_bytes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["f.csv"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        with atomic_write(tmp_path / "a") as fh:
            fh.write("x")
        with open(tmp_path / "b", "w") as fh:
            fh.write("x")
        assert os.stat(tmp_path / "a").st_mode == os.stat(tmp_path / "b").st_mode

    @pytest.mark.parametrize("existed", [True, False])
    def test_raise_partway_keeps_old_bytes(self, tmp_path, existed):
        path = tmp_path / "f.bin"
        if existed:
            path.write_bytes(b"old bytes")
        with pytest.raises(Crash):
            with atomic_write(path, "wb") as fh:
                fh.write(b"half of the new")
                fh.flush()
                raise Crash
        assert os.listdir(tmp_path) == (["f.bin"] if existed else [])
        if existed:
            assert path.read_bytes() == b"old bytes"

    def test_checkpoint_save_that_raises_keeps_old_checkpoint(self, tmp_path):
        class Unreadable:
            @property
            def data(self):
                raise Crash

        path = tmp_path / "encoder.ckpt"
        params = [Tensor(np.arange(4.0))]
        checkpoint.save(path, "encoder", {"a": 1}, params)
        old = path.read_bytes()
        with pytest.raises(Crash):  # the first parameter is written, the second raises
            checkpoint.save(path, "encoder", {"a": 2}, params + [Unreadable()])
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["encoder.ckpt"]

    def test_pose_strip_write_that_raises_keeps_old_strip(self, tmp_path, topo17, rng,
                                                          monkeypatch):
        path = tmp_path / "strip.svg"
        render_pose_strip([MotionSequence(frames=rng.standard_normal((10, 17, 3)), fps=25)],
                          topo17, path)
        old = path.read_bytes()
        write = ET.ElementTree.write

        def write_then_raise(self, fh, **kwargs):  # the whole new strip, then a crash
            write(self, fh, **kwargs)
            fh.flush()
            raise Crash

        monkeypatch.setattr(ET.ElementTree, "write", write_then_raise)
        with pytest.raises(Crash):
            render_pose_strip([MotionSequence(frames=rng.standard_normal((10, 17, 3)), fps=25)],
                              topo17, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["strip.svg"]
