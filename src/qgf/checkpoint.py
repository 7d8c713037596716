"""Model persistence: a manifest plus one raw float32 array file per tensor.

A checkpoint is a directory holding `manifest.json` (format version, model
kind, config, seed, iteration count, tensor shapes) and one little-endian
single-precision row-major `.bin` per named tensor. Arrays come back as
float64 whose values are exactly the stored float32s, so a reloaded model's
forward pass is bitwise reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import Float32RangeError, IoError, ShapeMismatchError, VersionMismatchError

FORMAT_VERSION = 1
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ModelCheckpoint:
    """Everything needed to rebuild a trained model."""

    model: str
    config: dict
    seed: int
    iterations: int
    arrays: dict[str, np.ndarray]
    version: int = FORMAT_VERSION
    extras: dict = field(default_factory=dict)


# manifest keys load_checkpoint needs, with their JSON types
_MANIFEST_KEYS = {"model": str, "config": dict, "seed": int, "iterations": int,
                  "tensors": dict}


def _require_type(value, kind: type, what: str, path: Path) -> None:
    # exact type, as json.loads builds it, so true/false never passes as an int
    if type(value) is not kind:
        found = "missing" if value is None else f"a {type(value).__name__}"
        raise IoError(f"{what} in {path}/manifest.json must be a {kind.__name__}, found {found}")


def read_config(ckpt: ModelCheckpoint, key: str, cls: type):
    """Rebuild the config dataclass ``cls`` from ``ckpt.config[key]``, which must
    be an object holding exactly ``cls``'s fields, each of its default's exact type."""
    value = ckpt.config.get(key)
    if type(value) is not dict:
        found = "missing" if value is None else f"a {type(value).__name__}"
        raise IoError(f"checkpoint config {key!r} must be an object, found {found}")
    fields = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    if set(value) != set(fields):
        raise IoError(f"checkpoint config {key!r}: missing fields {sorted(set(fields) - set(value))}, "
                      f"unknown fields {sorted(set(value) - set(fields))}")
    for name, kind in fields.items():
        if type(value[name]) is not kind:
            raise IoError(f"checkpoint config {key!r} field {name!r} must be a {kind.__name__}, "
                          f"found a {type(value[name]).__name__}")
    return cls(**value)


def _bin_name(tensor_name: str) -> str:
    return tensor_name.replace("/", "_") + ".bin"


def _refuse_unreadable(arrays: dict[str, np.ndarray]) -> None:
    """Refuse what would not read back as written: two names sharing one file, and
    values a float32 cannot hold (overflow, inf, nan)."""
    owners: dict[str, str] = {}
    for name, arr in arrays.items():
        fname = _bin_name(name)
        if fname in owners:
            raise IoError(f"tensors {owners[fname]!r} and {name!r} would both be saved as {fname}")
        owners[fname] = name
        flat = np.asarray(arr, dtype=np.float64).reshape(-1)
        bad = np.flatnonzero(~(np.abs(flat) <= _FLOAT32_MAX))
        if bad.size:
            raise Float32RangeError(name, int(bad[0]), float(flat[bad[0]]))


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path, overwrite: bool = False) -> Path:
    """Write the checkpoint directory atomically: stage it in full, then swap
    it in, so a failed write leaves any previous checkpoint in place. Tensors
    that would not read back as written are refused before anything is written."""
    path = Path(path)
    _refuse_unreadable(ckpt.arrays)
    if path.exists() and not overwrite:
        raise IoError(f"refusing to overwrite existing checkpoint {path}")
    staging = path.with_name(path.name + f".staging{os.getpid()}")
    retired = path.with_name(path.name + f".retired{os.getpid()}")
    try:
        staging.mkdir(parents=True)
        tensors = {}
        for name, arr in ckpt.arrays.items():
            fname = _bin_name(name)
            data = np.ascontiguousarray(arr, dtype="<f4")
            (staging / fname).write_bytes(data.tobytes())
            tensors[name] = {"shape": list(arr.shape), "file": fname}
        manifest = {
            "format_version": ckpt.version,
            "model": ckpt.model,
            "config": ckpt.config,
            "seed": ckpt.seed,
            "iterations": ckpt.iterations,
            "tensors": tensors,
            "extras": ckpt.extras,
        }
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if path.exists():
            os.replace(path, retired)
        os.replace(staging, path)
    except OSError as exc:
        shutil.rmtree(staging, ignore_errors=True)
        if retired.exists() and not path.exists():
            os.replace(retired, path)
        raise IoError(f"cannot write checkpoint at {path}: {exc}") from exc
    shutil.rmtree(retired, ignore_errors=True)
    return path


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    """Read a checkpoint directory back, validating version and shapes."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise IoError(f"cannot read {manifest_path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IoError(f"corrupt manifest in {path}: {exc}") from exc
    _require_type(manifest, dict, "the manifest", path)

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"checkpoint format {version!r}, reader supports {FORMAT_VERSION}")

    for key, kind in _MANIFEST_KEYS.items():
        _require_type(manifest.get(key), kind, f"manifest key {key!r}", path)
    extras = manifest.get("extras", {})
    _require_type(extras, dict, "manifest key 'extras'", path)
    arrays = {}
    for name, meta in manifest["tensors"].items():
        what = f"tensor {name!r}"
        _require_type(meta, dict, what, path)
        shape = meta.get("shape")
        if type(shape) is not list or any(type(d) is not int or d < 0 for d in shape):
            raise IoError(f"{what} in {path}: shape {shape!r} is not a list of "
                          "non-negative integers")
        fname = meta.get("file")
        _require_type(fname, str, f"{what} file", path)
        if fname in ("", ".", "..") or Path(fname).name != fname or "\0" in fname:
            raise IoError(f"{what} in {path}: file {fname!r} is not a plain file name "
                          "inside the checkpoint")
        shape = tuple(shape)
        bin_path = path / fname
        try:
            raw = bin_path.read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read {bin_path}: {exc}") from exc
        expected = math.prod(shape) * 4  # exact: an int64 product can wrap to a small size
        if len(raw) != expected:
            raise ShapeMismatchError(
                f"tensor {name}: {len(raw)} bytes on disk, shape {shape} needs {expected}")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    return ModelCheckpoint(model=manifest["model"], config=manifest["config"],
                           seed=manifest["seed"], iterations=manifest["iterations"],
                           arrays=arrays, version=version, extras=extras)
