import datetime as dt
import os
from pathlib import Path

import numpy as np
import pytest

from qgf.market_data import PriceSeries


def fixtures_dir() -> Path:
    return Path(os.environ.get("QGF_FIXTURES", Path(__file__).parent / "fixtures"))


@pytest.fixture
def fixtures() -> Path:
    return fixtures_dir()


def make_series(rng: np.random.Generator, length: int, symbol: str = "TST",
                start: dt.date = dt.date(2015, 1, 2), flat_run: tuple[int, int] | None = None,
                base: float = 100.0) -> PriceSeries:
    """Random valid OHLCV bars; ``flat_run`` = (start, count) pins a span of
    identical flat bars, at the last close, to exercise degenerate windows."""
    columns = np.empty((6, length))  # open, high, low, close, adj close, volume
    close = base
    for i in range(length):
        if flat_run is not None and flat_run[0] <= i < flat_run[0] + flat_run[1]:
            columns[:, i] = close, close, close, close, close, 5000
            continue
        open_ = close * float(np.exp(rng.normal(0, 0.01)))
        close = open_ * float(np.exp(rng.normal(0, 0.02)))
        high = max(open_, close) * float(np.exp(abs(rng.normal(0, 0.006))))
        low = min(open_, close) * float(np.exp(-abs(rng.normal(0, 0.006))))
        columns[:, i] = open_, high, low, close, close, int(rng.integers(1_000, 100_000))
    return PriceSeries(symbol, daily_dates(length, start), *columns)


def daily_dates(length: int, start: dt.date = dt.date(2015, 1, 2)) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=i) for i in range(length))


def make_flat_series(length: int, price: float = 10.0, volume: int = 100) -> PriceSeries:
    flat = np.full(length, price)
    return PriceSeries("FLT", daily_dates(length), flat, flat, flat, flat, flat,
                       np.full(length, volume))


def noisy_sine_batch(rng: np.random.Generator, count: int, length: int,
                     noise: float = 0.1) -> np.ndarray:
    t = np.arange(length)
    rows = [np.sin(2 * np.pi * (t / 16 + rng.random())) + rng.normal(0, noise, length)
            for _ in range(count)]
    return np.stack(rows)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
