import struct

import numpy as np
import pytest

from advmt.skeleton import SkeletonTopology


@pytest.fixture
def topo17():
    return SkeletonTopology.default_17()


@pytest.fixture
def chain3():
    return SkeletonTopology(joint_names=("root", "mid", "tip"), parent=(None, 0, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=["[1, 2]", '"x"', "7"], ids=["list", "string", "number"])
def non_object_checkpoint(request, tmp_path):
    """A checkpoint file whose config block is valid JSON but not an object."""
    from advmt import checkpoint

    block = request.param.encode()
    path = tmp_path / "config.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION, len(block)) + block)
    return path
