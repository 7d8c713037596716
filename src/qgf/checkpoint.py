"""Model persistence: a manifest plus one float64 `.npy` file per tensor.

A checkpoint is a directory holding `manifest.json` (format version, model
kind, config, seed, iteration count, and each named tensor's file and that
file's sha256) and one NumPy `.npy` file (NEP 1) per tensor, named by position:
`0.npy`, `1.npy`, ... The loader checks each file's bytes against its digest
before it parses them, and never unpickles, so a changed file is refused naming
it and a reloaded model is the saved one bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoError, NonFiniteTensorError, VersionMismatchError

FORMAT_VERSION = 2
_DTYPE = np.dtype("<f8")  # float64, little-endian on any host


@dataclass(frozen=True)
class ModelCheckpoint:
    """Everything needed to rebuild a trained model."""

    model: str
    config: dict
    seed: int
    iterations: int
    arrays: dict[str, np.ndarray]


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


def check_replaceable(path: str | Path, overwrite: bool) -> None:
    """Raise IoError unless a checkpoint may be saved at ``path``: nothing is there, or
    ``overwrite`` is set and it is a checkpoint (a directory holding manifest.json) or an
    empty directory."""
    path = Path(path)
    try:
        refused = path.exists() and not (overwrite and path.is_dir() and (
            (path / "manifest.json").is_file() or not any(path.iterdir())))
    except OSError as exc:
        raise IoError(f"cannot write checkpoint at {path}: {exc}") from exc
    if refused:
        raise IoError(f"refusing to replace {path}: overwrite replaces only a checkpoint "
                      "or an empty directory")


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path, overwrite: bool = False) -> Path:
    """Write the checkpoint directory atomically: stage it in full, then swap it in, so a
    failed write leaves any previous checkpoint in place. ``overwrite`` replaces only what
    ``check_replaceable`` allows. A tensor holding inf or nan (a diverged last step) is
    refused before anything is written."""
    path = Path(path)
    for name, arr in ckpt.arrays.items():
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteTensorError(name, int(bad[0]), float(np.ravel(arr)[bad[0]]))
    check_replaceable(path, overwrite)
    staging = path.with_name(path.name + f".staging{os.getpid()}")
    retired = path.with_name(path.name + f".retired{os.getpid()}")
    try:
        staging.mkdir(parents=True)
        tensors = {}
        # number the files in the manifest's (sorted) order, so a reloaded checkpoint saves alike
        for i, name in enumerate(sorted(ckpt.arrays)):
            buf = io.BytesIO()
            np.save(buf, np.asarray(ckpt.arrays[name], dtype=_DTYPE), allow_pickle=False)
            raw = buf.getvalue()
            (staging / f"{i}.npy").write_bytes(raw)
            tensors[name] = {"file": f"{i}.npy", "sha256": hashlib.sha256(raw).hexdigest()}
        manifest = {
            "format_version": FORMAT_VERSION,
            "model": ckpt.model,
            "config": ckpt.config,
            "seed": ckpt.seed,
            "iterations": ckpt.iterations,
            "tensors": tensors,
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
    """Read a checkpoint directory back, validating its version, its manifest's
    schema and every tensor file against its sha256."""
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
        raise VersionMismatchError(f"checkpoint format {version!r}, reader supports "
                                   f"{FORMAT_VERSION}; retrain an older checkpoint")

    for key, kind in _MANIFEST_KEYS.items():
        _require_type(manifest.get(key), kind, f"manifest key {key!r}", path)
    arrays = {}
    for name, meta in manifest["tensors"].items():
        what = f"tensor {name!r}"
        _require_type(meta, dict, what, path)
        fname, digest = meta.get("file"), meta.get("sha256")
        _require_type(fname, str, f"{what} file", path)
        _require_type(digest, str, f"{what} sha256", path)
        if fname in ("", ".", "..") or Path(fname).name != fname or "\0" in fname:
            raise IoError(f"{what} in {path}: file {fname!r} is not a plain file name "
                          "inside the checkpoint")
        file = path / fname
        try:
            raw = file.read_bytes()
        except OSError as exc:
            raise IoError(f"{what}: cannot read {file}: {exc}") from exc
        if hashlib.sha256(raw).hexdigest() != digest:
            raise IoError(f"{what}: {file} does not match its sha256 in the manifest")
        try:
            # the reader np.load uses for a .npy; with pickles off an object array is refused
            arr = np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise IoError(f"{what}: {file} is not a readable .npy file: {exc}") from exc
        if arr.dtype != _DTYPE:
            raise IoError(f"{what}: {file} holds {arr.dtype}, not float64")
        arrays[name] = arr
    return ModelCheckpoint(model=manifest["model"], config=manifest["config"],
                           seed=manifest["seed"], iterations=manifest["iterations"],
                           arrays=arrays)
