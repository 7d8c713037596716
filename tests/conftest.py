import datetime as dt
import math
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


def awkward_cells(rng: np.random.Generator, count: int, positive: bool = False) -> list[str]:
    """``count`` seeded cells spelling finite floats the ways a table reader must read
    as ``float`` does: ``.17g``, ``repr`` and 25-digit forms of values drawn from every
    exponent, subnormals included, the float64 maximum, ``+3``, ``-0``, ``1E5``, each
    cell possibly padded with spaces or tabs. ``positive`` keeps cells above zero."""
    fixed = ["+3", "-0", "1E5", "5e-324", "2.2250738585072009e-308",
             "1.7976931348623157e308", "-1.7976931348623157e+308", ".5", "1.", "0"]
    pads = ["", " ", "\t", "  \t "]
    cells: list[str] = []
    while len(cells) < count:
        bits = rng.integers(1, 2**52) if rng.random() < 0.2 else rng.integers(-2**63, 2**63 - 1)
        value = float(np.int64(bits).view(np.float64))  # one in five subnormal
        if not math.isfinite(value):
            continue
        digits = "".join(map(str, rng.integers(0, 10, 25)))
        spelling = [f"{value:.17g}", repr(value), f"{value:.24e}",
                    f"{digits[0]}.{digits[1:]}e{int(rng.integers(-330, 308))}",
                    fixed[int(rng.integers(len(fixed)))]][int(rng.integers(5))]
        cell = pads[int(rng.integers(4))] + spelling + pads[int(rng.integers(4))]
        if not positive or float(cell) > 0:
            cells.append(cell)
    return cells


def float_bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, so -0.0 and 0.0 compare unequal."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def per_line_path_taken(*args, **kwargs):
    """Stands in for a per-line cell reader that a table must not need."""
    raise AssertionError("a row was read line by line")
