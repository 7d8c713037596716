"""The workloads: seeded inputs, the qgf commands they run, and output checks.

Each workload is a closed loop with one client: the commands of a cycle run
one after another, each starting when the previous one returns, and cycles
repeat until the run's time is up. Inputs are synthetic and derive from the
workload seed alone; qgf sees them only as files.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from frechet_ref import frechet_1d


class CheckFailed(Exception):
    """A command exited 0 but its output is wrong."""


@dataclass
class Command:
    argv: list[str]
    group: str                 # the user-facing rate this command counts towards
    items: int = 0             # units of that rate the command completes
    iterations: int = 0        # training iterations, for per-iteration layer figures
    check: Callable[[], None] | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    setup: list[Command]       # untimed: warm-up or checkpoint-making commands
    cycle: list[Command]       # timed, in this order, every cycle


# --- seeded inputs -----------------------------------------------------------------

def _write_rows(path: Path, rows: np.ndarray) -> Path:
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    return path


def price_windows(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """Geometric random-walk price paths, one per row."""
    vol = rng.uniform(0.005, 0.03, (count, 1))
    return 100.0 * np.exp(np.cumsum(rng.standard_normal((count, length)) * vol, axis=1))


def write_ohlcv(path: Path, rng: np.random.Generator, bars: int) -> Path:
    """Valid daily OHLCV bars in the Yahoo csv layout qgf ingests."""
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, bars)))
    open_ = close * np.exp(rng.normal(0.0, 0.01, bars))
    high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 0.006, bars)))
    low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 0.006, bars)))
    volume = rng.integers(1_000, 100_000, bars)
    day0 = dt.date(2000, 1, 3)
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i in range(bars):
        lines.append(f"{(day0 + dt.timedelta(days=i)).isoformat()},{open_[i]:.17g},"
                     f"{high[i]:.17g},{low[i]:.17g},{close[i]:.17g},{close[i]:.17g},{volume[i]}")
    path.write_text("\n".join(lines) + "\n")
    return path


# --- output checks -------------------------------------------------------------------

def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _same_each_cycle(state: dict, key: str, value) -> None:
    """Same seed, same flags: every cycle must reproduce the first one's output."""
    first = state.setdefault(key, value)
    _require(first == value, f"{key} changed between cycles: {first!r} -> {value!r}")


def check_train(qgf, out: Path, model: str, state: dict) -> None:
    text = (out / "history.csv").read_text()
    rows = [line.split(",")[1:] for line in text.splitlines()[1:]]
    _require(bool(rows) and all(math.isfinite(float(v)) for r in rows for v in r),
             f"{out}/history.csv has non-finite losses")
    _same_each_cycle(state, f"history_digest.{model}", hashlib.sha256(text.encode()).hexdigest())
    ckpt = qgf.checkpoint.load_checkpoint(out)
    _require(ckpt.model == model, f"{out} reloads as {ckpt.model!r}, not {model!r}")
    _require(all(np.isfinite(a).all() for a in ckpt.arrays.values()),
             f"{out} reloads with non-finite weights")


def check_sequences(path: Path, count: int, length: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    _require(data.shape == (count, length), f"{path} is {data.shape}, not {(count, length)}")
    _require(bool(np.isfinite(data).all()), f"{path} holds non-finite values")
    return data


def check_frechet_pair(qgf, work: Path, real: Path, fake: Path, row: int) -> None:
    """One pair through ``qgf evaluate`` against the benchmark's own DP."""
    a = np.loadtxt(real, delimiter=",", ndmin=2)[row]
    b = np.loadtxt(fake, delimiter=",", ndmin=2)[row]
    pair_real = _write_rows(work / "pair_real.csv", a[None, :])
    pair_fake = _write_rows(work / "pair_fake.csv", b[None, :])
    report = work / "pair_report.json"
    rc = qgf.cli.main(["evaluate", "--real", str(pair_real), "--generated", str(pair_fake),
                       "--out", str(report), "--quiet"])
    _require(rc == 0, f"single-pair evaluate exited {rc}")
    got = json.loads(report.read_text())["frechet"]
    want = frechet_1d(a, b)
    _require(got == want, f"pair {row}: qgf frechet {got!r} != reference {want!r}")


# --- workloads ---------------------------------------------------------------------------

DESK_GAN = ["--hidden", "16", "--noise-dim", "4", "--dropout", "0.1"]


def train_desk(qgf, work: Path, seed: int, state: dict) -> Plan:
    rng = np.random.default_rng([seed, 1])
    data = _write_rows(work / "windows.csv", price_windows(rng, 96, 64))
    s = ["--seed", str(seed), "--quiet"]
    gan_iters, vae_iters, batch = 4, 12, 32

    def gan(iters: int, out: Path, check: bool) -> Command:
        return Command(["train", "--model", "gan", "--data", str(data), "--epochs", str(iters),
                        "--batch", str(batch), "--lr", "1e-4", *DESK_GAN, "--out", str(out), *s],
                       "gan_train_samples_per_s", batch * iters, iters,
                       (lambda: check_train(qgf, out, "gan", state)) if check else None)

    vae_out = work / "vae"
    vae = Command(["train", "--model", "lstm-vae", "--data", str(data), "--epochs", str(vae_iters),
                   "--batch", str(batch), "--lr", "1e-3", "--hidden", "16", "--latent", "4",
                   "--out", str(vae_out), *s],
                  "vae_train_samples_per_s", batch * vae_iters, vae_iters,
                  lambda: check_train(qgf, vae_out, "lstm-vae", state))
    return Plan(setup=[gan(1, work / "warmup", False)],
                cycle=[gan(gan_iters, work / "gan", True), vae])


def train_long(qgf, work: Path, seed: int, state: dict) -> Plan:
    rng = np.random.default_rng([seed, 2])
    data = _write_rows(work / "windows.csv", price_windows(rng, 64, 256))
    s = ["--seed", str(seed), "--quiet"]
    batch = 32

    def gan(batch_: int, out: Path, check: bool) -> Command:
        return Command(["train", "--model", "gan", "--data", str(data), "--epochs", "1",
                        "--batch", str(batch_), "--lr", "1e-4", "--hidden", "90",
                        "--out", str(out), *s],
                       "gan_train_samples_per_s", batch_, 1,
                       (lambda: check_train(qgf, out, "gan", state)) if check else None)

    return Plan(setup=[gan(2, work / "warmup", False)], cycle=[gan(batch, work / "gan", True)])


def score(qgf, work: Path, seed: int, state: dict) -> Plan:
    rng = np.random.default_rng([seed, 3])
    pairs, length = 16, 256
    real = _write_rows(work / "real.csv", price_windows(rng, pairs, length))
    s = ["--seed", str(seed), "--quiet"]
    ckpt, fake, report = work / "ckpt", work / "fake.csv", work / "report.json"
    pair_row = int(rng.integers(pairs))

    def check_generate() -> None:
        check_sequences(fake, pairs, length)

    def check_evaluate() -> None:
        frechet = json.loads(report.read_text())["frechet"]
        _require(math.isfinite(frechet), "evaluate reported a non-finite frechet")
        _require((work / "overlay.svg").stat().st_size > 0, "evaluate wrote no plot")
        if "frechet" not in state:
            check_frechet_pair(qgf, work, real, fake, pair_row)
        _same_each_cycle(state, "frechet", frechet)

    setup = Command(["train", "--model", "gan", "--data", str(real), "--epochs", "1",
                     "--batch", "8", "--lr", "1e-4", *DESK_GAN, "--out", str(ckpt), *s],
                    "setup", check=lambda: check_train(qgf, ckpt, "gan", state))
    generate = Command(["generate", "--ckpt", str(ckpt), "--count", str(pairs),
                        "--out", str(fake), *s],
                       "generate_seqs_per_s", pairs, check=check_generate)
    evaluate = Command(["evaluate", "--real", str(real), "--generated", str(fake),
                        "--pairing", "paired", "--plot", str(work / "overlay.svg"),
                        "--out", str(report), *s],
                       "evaluate_pairs_per_s", pairs, check=check_evaluate)
    return Plan(setup=[setup], cycle=[generate, evaluate])


def _prep_chain(work: Path, raw: Path, symbol: str, bars: int, seed: int,
                state: dict) -> list[Command]:
    s = ["--seed", str(seed), "--quiet"]
    data, feats = work / f"{symbol}.csv", work / f"{symbol}_features.csv"
    labels, rfe = work / f"{symbol}_labels.csv", work / f"{symbol}_rfe.json"
    pcs = work / f"{symbol}_pc.csv"
    horizon, keep = 5, 10

    def check_ingest() -> None:
        extras = json.loads(data.with_suffix(".manifest.json").read_text())["extras"]
        _require(extras["bars"] == bars, f"ingest kept {extras['bars']} of {bars} bars")

    def check_label() -> None:
        rows = labels.read_text().splitlines()[1:]
        _require(len(rows) == bars - horizon, f"{len(rows)} labels for {bars} bars")

    def check_select() -> None:
        survivors = json.loads(rfe.read_text())["survivors"]
        _require(len(survivors) == keep, f"RFE kept {len(survivors)} columns, not {keep}")
        _same_each_cycle(state, f"rfe_survivors.{symbol}", ",".join(survivors))

    def check_reduce() -> None:
        explained = json.loads(pcs.with_suffix(".manifest.json").read_text())["extras"]["explained"]
        _require(all(0.0 <= v <= 1.0 for v in explained), f"PCA explained {explained}")

    g = "prep_bars_per_s"
    return [
        Command(["ingest", "--input", str(raw), "--symbol", symbol, "--out", str(data), *s],
                g, bars, check=check_ingest),
        Command(["indicators", "--input", str(data), "--label-horizon", str(horizon),
                 "--out", str(feats), *s], g),
        Command(["label", "--input", str(data), "--horizon", str(horizon),
                 "--out", str(labels), *s], g, check=check_label),
        Command(["select", "--features", str(feats), "--labels", str(labels), "--keep", str(keep),
                 "--out", str(rfe), *s], g, check=check_select),
        Command(["reduce", "--features", str(feats), "--components", "3", "--out", str(pcs), *s],
                g, check=check_reduce),
    ]


def prep(qgf, work: Path, seed: int, state: dict) -> Plan:
    rng = np.random.default_rng([seed, 4])
    symbols, bars = 2, 1250
    warm = write_ohlcv(work / "WARM_raw.csv", rng, 300)
    cycle = []
    for k in range(symbols):
        symbol = f"SYM{k}"
        raw = write_ohlcv(work / f"{symbol}_raw.csv", rng, bars)
        cycle += _prep_chain(work, raw, symbol, bars, seed, state)
    return Plan(setup=_prep_chain(work, warm, "WARM", 300, seed, state), cycle=cycle)


def data(qgf, work: Path, seed: int, state: dict) -> Plan:
    """Scoring then data preparation: every layer the training workloads bypass."""
    parts = [score(qgf, work, seed, state), prep(qgf, work, seed, state)]
    return Plan(setup=[c for p in parts for c in p.setup], cycle=[c for p in parts for c in p.cycle])


WORKLOADS = {"train-desk": train_desk, "train-long": train_long, "data": data}
