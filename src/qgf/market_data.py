"""OHLCV ingestion, validation, sliding windows, and binary trend labels."""

from __future__ import annotations

import csv
import datetime as dt
import io
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateDateError,
    HorizonOutOfRangeError,
    HttpStatusError,
    InvariantViolationError,
    MalformedHeaderError,
    NetworkError,
    RowParseError,
    SeriesTooShortError,
    UrlTemplateError,
)

CSV_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]


@dataclass(frozen=True, slots=True)
class Bar:
    """One interval of trade: calendar date, OHLC prices, adjusted close, volume."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: int

    def __post_init__(self):
        prices = (self.open, self.high, self.low, self.close, self.adj_close)
        if not all(np.isfinite(p) and p > 0 for p in prices):
            raise InvariantViolationError("prices must be finite and positive")
        if self.low > min(self.open, self.close):
            raise InvariantViolationError("low exceeds open or close")
        if self.high < max(self.open, self.close):
            raise InvariantViolationError("high below open or close")
        if self.low > self.high:
            raise InvariantViolationError("low exceeds high")
        if self.volume < 0:
            raise InvariantViolationError("negative volume")


@dataclass(frozen=True, slots=True)
class PriceSeries:
    """Date-ordered bars for one symbol."""

    symbol: str
    bars: tuple[Bar, ...]
    adj_close_imputed: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.bars) < 1:
            raise SeriesTooShortError("a series needs at least one bar")
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date == prev.date:
                raise DuplicateDateError(f"duplicate date {cur.date}")
            if cur.date < prev.date:
                raise InvariantViolationError("bars out of date order")

    def __len__(self) -> int:
        return len(self.bars)

    def dates(self) -> list[dt.date]:
        return [b.date for b in self.bars]

    def opens(self) -> np.ndarray:
        return np.array([b.open for b in self.bars])

    def highs(self) -> np.ndarray:
        return np.array([b.high for b in self.bars])

    def lows(self) -> np.ndarray:
        return np.array([b.low for b in self.bars])

    def closes(self) -> np.ndarray:
        return np.array([b.close for b in self.bars])

    def volumes(self) -> np.ndarray:
        return np.array([float(b.volume) for b in self.bars])


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """Sliding-window shape: length (default 14 intervals) and stride."""

    window_len: int = 14
    stride: int = 1

    def __post_init__(self):
        if self.window_len < 2:
            raise InvariantViolationError("window_len must be >= 2")
        if self.stride < 1:
            raise InvariantViolationError("stride must be >= 1")


@dataclass(frozen=True, slots=True)
class LabelSeries:
    """Binary up/down labels; labels[i] describes bar i + horizon_n of the source."""

    horizon_n: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.horizon_n <= 10:
            raise HorizonOutOfRangeError(f"horizon must be in [1, 10], got {self.horizon_n}")
        if any(v not in (0, 1) for v in self.labels):
            raise InvariantViolationError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.labels)

    def as_array(self) -> np.ndarray:
        return np.array(self.labels, dtype=np.int64)


def parse_csv(text: str, symbol: str) -> PriceSeries:
    """Parse Yahoo-format OHLCV rows into a validated, date-sorted series.

    A missing ``Adj Close`` column is tolerated: the close is copied in and
    the series is flagged ``adj_close_imputed``.
    """
    reader = csv.DictReader(io.StringIO(text))
    fields = reader.fieldnames
    if fields is None:
        raise MalformedHeaderError("empty input, no header row")
    fields = [f.strip() for f in fields]
    required = [c for c in CSV_HEADER if c != "Adj Close"]
    if [c for c in fields if c != "Adj Close"] != required:
        raise MalformedHeaderError(f"expected columns {CSV_HEADER}, got {fields}")
    has_adj = "Adj Close" in fields

    bars = []
    for line_no, row in enumerate(reader, start=2):
        try:
            date = dt.date.fromisoformat(row["Date"].strip())
            open_ = float(row["Open"])
            high = float(row["High"])
            low = float(row["Low"])
            close = float(row["Close"])
            adj = float(row["Adj Close"]) if has_adj else close
            volume = int(float(row["Volume"]))
        except (TypeError, ValueError, KeyError) as exc:
            raise RowParseError(line_no, str(exc)) from exc
        try:
            bars.append(Bar(date, open_, high, low, close, adj, volume))
        except InvariantViolationError as exc:
            raise InvariantViolationError(str(exc), line=line_no) from exc

    bars.sort(key=lambda b: b.date)
    return PriceSeries(symbol=symbol, bars=tuple(bars), adj_close_imputed=not has_adj)


def serialize_csv(series: PriceSeries) -> str:
    """Inverse of parse_csv for valid series (modulo float formatting)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for b in series.bars:
        writer.writerow([b.date.isoformat(), repr(b.open), repr(b.high), repr(b.low),
                         repr(b.close), repr(b.adj_close), b.volume])
    return out.getvalue()


def fetch_csv(url_template: str, symbol: str, timeout: float = 30.0) -> str:
    """Fetch the CSV body for ``symbol`` from a `{symbol}` URL template."""
    if "{symbol}" not in url_template:
        raise UrlTemplateError("url template must contain {symbol}")
    url = url_template.replace("{symbol}", symbol)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = getattr(resp, "status", None)  # None for file:// responses
            if status is not None and status != 200:
                raise HttpStatusError(status)
            return resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        raise HttpStatusError(exc.code) from exc
    except urllib.error.URLError as exc:
        raise NetworkError(str(exc.reason)) from exc
    except OSError as exc:
        raise NetworkError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise NetworkError(f"{url}: body is not UTF-8: {exc}") from exc


def sliding_windows(series: PriceSeries, spec: WindowSpec) -> list[range]:
    """Contiguous index ranges [i, i+window_len) stepping by stride.

    Count is floor((L - window_len) / stride) + 1; each window drops the
    oldest bar and takes up the next.
    """
    length = len(series)
    if length < spec.window_len:
        raise SeriesTooShortError(
            f"series of {length} bars cannot fill a window of {spec.window_len}")
    count = (length - spec.window_len) // spec.stride + 1
    return [range(i * spec.stride, i * spec.stride + spec.window_len) for i in range(count)]


def label_trend(series: PriceSeries, n: int) -> LabelSeries:
    """1 where close rose versus n bars earlier, else 0 (ties count as 0)."""
    if not 1 <= n <= 10:
        raise HorizonOutOfRangeError(f"horizon must be in [1, 10], got {n}")
    if len(series) <= n:
        raise SeriesTooShortError(f"need more than {n} bars, got {len(series)}")
    closes = series.closes()
    labels = tuple(int(closes[i] > closes[i - n]) for i in range(n, len(closes)))
    return LabelSeries(horizon_n=n, labels=labels)
