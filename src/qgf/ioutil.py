"""Small file helpers: atomic writes, content digests and float cells."""

from __future__ import annotations

import hashlib
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import IoError, RowParseError


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise IoError(f"cannot digest {path}: {exc}") from exc
    return digest.hexdigest()


def quote_cell(cell: str) -> str:
    """``repr`` of a cell for an error message: past 40 characters, only its first
    40 and its length, so one huge cell cannot flood an error line."""
    return repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}... ({len(cell)} characters)"


def parse_floats(cells: list[str], line: int, where: str = "") -> list[float]:
    """``float`` of every cell on file line ``line``; a bad cell raises RowParseError,
    after ``where``, quoting the cell through quote_cell."""
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            raise RowParseError(
                line, f"{where}could not convert string to float: {quote_cell(cell)}") from None
    return values


def read_floats(lines: list[str], width: int, usecols: Sequence[int]) -> np.ndarray | None:
    """Columns ``usecols`` of ``lines``, each ``width`` comma-separated cells, as one
    float64 table converted by numpy's C reader, which gives every cell the bits
    ``float`` gives it. None when that cannot be vouched for: no lines, a line of
    another width, a cell numpy refuses (``float`` also reads ``1_000`` and other
    digits), a non-finite value, or a ``\\x1f`` (numpy strips it as padding, ``float``
    refuses it). The caller's per-line loop then reads the table or names its bad line."""
    if not lines or any(line.count(",") != width - 1 or "\x1f" in line for line in lines):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None
    return table if np.isfinite(table).all() else None
