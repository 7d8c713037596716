"""Seeded fuzz of the files the CLI reads.

Each case takes one well-formed input file, breaks it in one place and runs one
subcommand on it in process. Whatever the damage, the run must end in exit 0,
2, 3 or 4; a nonzero exit prints exactly one JSON line on stderr, and no run
ends in a traceback or prints a numpy warning (the warning filter turns one
into an exception, which fails the test).
"""

import json

import numpy as np
import pytest

from conftest import fixtures_dir, noisy_sine_batch
from qgf import cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ_SEED = 20261019
FUZZ_CASES = 300

_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e300", "", "text"]
_TRAIN = ["--epochs", 2, "--batch", 6, "--hidden", 4]
BAD = object()  # where the broken file goes in a command line

# subcommand -> (its command line, the input file it breaks)
COMMANDS = {
    "train-rnn-ae": (["train", "--model", "rnn-ae", "--data", BAD, "--latent", 2, *_TRAIN],
                     "seqs.csv"),
    "train-lstm-vae": (["train", "--model", "lstm-vae", "--data", BAD, "--latent", 2, *_TRAIN],
                       "seqs.csv"),
    "train-gan": (["train", "--model", "gan", "--data", BAD, "--noise-dim", 2, *_TRAIN],
                  "seqs.csv"),
    "evaluate": (["evaluate", "--real", BAD, "--generated", "seqs.csv"], "seqs.csv"),
    "ingest": (["ingest", "--input", BAD], "TST.csv"),
    "indicators": (["indicators", "--input", BAD], "TST.csv"),
    "label": (["label", "--input", BAD, "--horizon", 2], "TST.csv"),
    "select-features": (["select", "--features", BAD, "--labels", "labels.csv", "--keep", 14],
                        "features.csv"),
    "select-labels": (["select", "--features", "features.csv", "--labels", BAD, "--keep", 14],
                      "labels.csv"),
    "reduce": (["reduce", "--features", BAD, "--components", 2], "features.csv"),
}


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _mutate(text: str, rng: np.random.Generator) -> bytes:
    """One damage: a bad cell, a cell dropped or added, a row duplicated or filled
    with huge values, the file truncated, or one bit flipped."""
    raw = text.encode()
    kind = int(rng.integers(7))
    if kind == 5:
        return raw[:int(rng.integers(len(raw)))]
    if kind == 6:
        flipped = bytearray(raw)
        flipped[int(rng.integers(len(raw)))] ^= 1 << int(rng.integers(8))
        return bytes(flipped)
    lines = text.rstrip("\n").split("\n")
    i = int(rng.integers(len(lines)))
    if kind == 4:
        lines.insert(i, lines[i])
    else:
        cells = lines[i].split(",")
        j = int(rng.integers(len(cells)))
        if kind == 0:
            cells[j] = _CELLS[int(rng.integers(len(_CELLS)))]
        elif kind == 1:
            del cells[j]
        elif kind == 2:
            cells.insert(j, "1")
        else:
            huge = ("1e300", "1e154")[int(rng.integers(2))]
            cells = [huge if _is_number(c) else c for c in cells]
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """The well-formed files, in a working directory of their own."""
    monkeypatch.chdir(tmp_path)
    rows = noisy_sine_batch(np.random.default_rng(1), 6, 64)
    seqs = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    ohlcv = (fixtures_dir() / "TST.csv").read_text()
    (tmp_path / "seqs.csv").write_text(seqs)
    (tmp_path / "TST.csv").write_text(ohlcv)
    assert cli.main(["indicators", "--input", "TST.csv", "--out", "features.csv",
                     "--quiet"]) == 0
    assert cli.main(["label", "--input", "TST.csv", "--horizon", "1", "--out", "labels.csv",
                     "--quiet"]) == 0
    return {name: (tmp_path / name).read_text()
            for name in ("seqs.csv", "TST.csv", "features.csv", "labels.csv")}


def test_every_broken_input_ends_in_a_known_exit_with_one_error_line(inputs, capsys):
    rng = np.random.default_rng(FUZZ_SEED)
    names = sorted(COMMANDS)
    for case in range(FUZZ_CASES):
        name = names[int(rng.integers(len(names)))]
        argv, source = COMMANDS[name]
        with open("bad.csv", "wb") as f:
            f.write(_mutate(inputs[source], rng))
        argv = ["bad.csv" if a is BAD else str(a) for a in argv]
        code = cli.main([*argv, "--out", f"{name}.out", "--quiet"])
        err = capsys.readouterr().err
        where = f"case {case}: {name}"
        assert code in (0, 2, 3, 4), where
        if code == 0:
            assert err == "", where
        else:
            assert err.endswith("\n") and err.count("\n") == 1, f"{where}: {err!r}"
            assert set(json.loads(err)) == {"error", "message"}, where
