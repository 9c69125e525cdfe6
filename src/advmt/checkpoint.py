"""Versioned binary checkpoint format shared by encoder and discriminator.

Layout: magic ``MTCK`` | uint32 LE version | uint32 LE config length |
JSON config (utf-8, sorted keys, includes a ``kind`` tag) | parameters as
little-endian float64 in the model's canonical order.

Version 2 encoder checkpoints follow the parameters with the encoder's
normalization statistics, each 3N little-endian float64 values: the mean
and std of root-relative train frames, then the RMS of train
frame-to-frame displacements. Discriminator checkpoints hold parameters
only and read the same under versions 1 and 2; version 1 encoder
checkpoints predate the statistics and are refused by the encoder loader.
"""

from __future__ import annotations

import json
import struct
from typing import List

import numpy as np

from .errors import CheckpointError, ConfigurationError, build_config, require_keys
from .fileio import atomic_write
from .tensor import Tensor

MAGIC = b"MTCK"
VERSION = 2


def save(path, kind: str, config: dict, params: List[Tensor]):
    payload = dict(config)
    payload["kind"] = kind
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load(path, expected_kind: str, config_cls) -> tuple:
    """Returns (version, ``config_cls`` built from the config block, flat float64 values)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, blob_len = struct.unpack("<II", raw[4:12])
    if not 1 <= version <= VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 12 + blob_len:
        raise CheckpointError(f"{path}: truncated config block")
    try:
        config = json.loads(raw[12 : 12 + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt config block: {exc}") from None
    try:
        kind = require_keys(config, (), "config block").pop("kind", None)
        if kind != expected_kind:
            raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expected_kind!r}")
        config = build_config(config_cls, config, f"{expected_kind} config")
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    body = raw[12 + blob_len :]
    if len(body) % 8:
        raise CheckpointError(f"{path}: truncated parameter block")
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return version, config, flat


def fill_params(path, params: List[Tensor], flat: np.ndarray):
    """Copy a flat parameter vector into tensors in canonical order; every value must be finite."""
    expected = sum(p.size for p in params)
    if flat.size != expected:
        raise CheckpointError(
            f"{path}: checkpoint holds {flat.size} parameter values, model needs {expected}"
        )
    bad = np.count_nonzero(~np.isfinite(flat))
    if bad:
        raise CheckpointError(f"{path}: checkpoint holds {bad} non-finite parameter values")
    cursor = 0
    for p in params:
        p.data = flat[cursor : cursor + p.size].reshape(p.shape).copy()
        cursor += p.size
