"""Atomic file writes, where a reader of the path finds its old bytes or
its new ones, never a half-written file; and the one reader of JSON-object
files (configs, corpus manifests, skeletons)."""

from __future__ import annotations

import contextlib
import json
import os

from .errors import ConfigurationError, require_keys


def read_json_object(path, keys=()) -> dict:
    """The JSON object in file ``path``, as ``require_keys`` accepts it with
    ``keys``. A missing file, invalid JSON or a refused object raises
    ``ConfigurationError`` naming ``path``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON: {exc}") from None
    return require_keys(raw, keys, str(path))


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file opened with ``mode`` ("w" or "wb") on a new temp file in
    ``path``'s directory. A clean exit moves it over ``path`` with
    ``os.replace``; an exception removes it and re-raises, so ``path``
    keeps its old bytes, or stays absent. The temp file is created with the
    permissions ``open`` would give a new file. There is no fsync: this
    guards against a crash or kill of the process, not of the machine.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
