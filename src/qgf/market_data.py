"""OHLCV ingestion, validation, sliding windows, and binary trend labels."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

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
from .ioutil import parse_floats, quote_cell, read_floats

FETCH_TIMEOUT = 30.0  # seconds
CSV_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]
COLUMNS = ("open", "high", "low", "close", "adj_close", "volume")
# what every bar must satisfy, in the order a bar's first broken rule is reported
_RULES = ("prices must be finite and positive", "low exceeds open or close",
          "high below open or close", "low exceeds high", "volume must be finite and non-negative")


def _validate(table: np.ndarray, line_nos: list[int] | None = None) -> None:
    """Truncate the volume row of a (COLUMNS, bars) table toward zero, then raise for
    the first bar that breaks a rule, naming its file line if ``line_nos`` is given."""
    o, h, lo, c, _, v = table
    v[:] = np.trunc(v)
    broken = np.stack([~(np.isfinite(table[:5]) & (table[:5] > 0)).all(axis=0),
                       lo > np.minimum(o, c), h < np.maximum(o, c), lo > h,
                       ~(np.isfinite(v) & (v >= 0))])
    bad = np.flatnonzero(broken.any(axis=0))
    if bad.size:
        i, rule = int(bad[0]), _RULES[broken[:, bad[0]].argmax()]
        if line_nos:
            raise InvariantViolationError(rule, line=line_nos[i])
        raise InvariantViolationError(f"bar {i}: {rule}")


@dataclass(frozen=True, slots=True, eq=False)
class PriceSeries:
    """Date-ordered OHLCV bars for one symbol, one column per field: ``dates`` a
    tuple of ``dt.date``, every other field a read-only float64 copy of the column
    passed in, one value per date, with ``volume`` truncated toward zero."""

    symbol: str
    dates: tuple[dt.date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    adj_close: np.ndarray
    volume: np.ndarray
    adj_close_imputed: bool = False

    def __post_init__(self):
        dates = tuple(self.dates)
        if not dates:
            raise SeriesTooShortError("a series needs at least one bar")
        columns = [np.asarray(getattr(self, name)) for name in COLUMNS]
        if any(col.shape != (len(dates),) for col in columns):
            raise InvariantViolationError(f"every column needs one value per date ({len(dates)})")
        table = np.array(columns, dtype=np.float64)
        _validate(table)
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise DuplicateDateError(f"duplicate date {cur}")
            if cur < prev:
                raise InvariantViolationError("bars out of date order")
        table.flags.writeable = False
        for name, value in zip(("dates", *COLUMNS), (dates, *table)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.dates)


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


def parse_csv(text: str, symbol: str) -> PriceSeries:
    """Parse Yahoo-format OHLCV rows, split on commas and never quoted, into a
    validated, date-sorted series; blank lines are skipped, and every row is parsed
    before any bar is checked. A missing ``Adj Close`` column is filled from the
    close and flags the series ``adj_close_imputed``. The price and volume columns
    are converted in one pass; only rows that pass refuses are read line by line,
    which accepts what ``float`` accepts and names the first bad line."""
    lines = text.splitlines() or [""]
    fields = [f.strip() for f in lines[0].split(",")]
    if [c for c in fields if c != "Adj Close"] != [c for c in CSV_HEADER if c != "Adj Close"]:
        raise MalformedHeaderError(f"expected columns {CSV_HEADER}, got {fields}")
    at = [fields.index(c if c in fields else "Close") for c in CSV_HEADER]  # no Adj Close: Close
    line_nos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    body = [lines[n - 1] for n in line_nos]
    table, dates = read_floats(body, len(fields), at[1:]), None
    if table is not None:
        try:  # Date is the first column
            dates = [dt.date.fromisoformat(line.split(",", 1)[0].strip()) for line in body]
        except ValueError:
            pass
    if dates is None:
        dates, rows = [], []
        for line_no, line in zip(line_nos, body):
            cells = line.split(",")
            if len(cells) != len(fields):
                raise RowParseError(line_no, f"{len(cells)} fields, expected {len(fields)}")
            date, *values = (cells[i] for i in at)
            try:
                dates.append(dt.date.fromisoformat(date.strip()))
            except ValueError:
                raise RowParseError(
                    line_no, f"Invalid isoformat string: {quote_cell(date)}") from None
            rows.append(parse_floats(values, line_no))
        table = np.array(rows, dtype=np.float64).reshape(-1, len(COLUMNS))
    table = table.T
    _validate(table, line_nos)
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PriceSeries(symbol, tuple(dates[i] for i in order), *table[:, order],
                       adj_close_imputed="Adj Close" not in fields)


def serialize_csv(series: PriceSeries) -> str:
    """Inverse of parse_csv: prices as ``repr`` floats, volume as an integer, one
    row formatted per call (``str`` of a date is its ISO form)."""
    rows = zip(series.dates, *(getattr(series, name).tolist() for name in COLUMNS))
    body = ("%s,%r,%r,%r,%r,%r,%d" % row for row in rows)
    return "\n".join([",".join(CSV_HEADER), *body]) + "\n"


def fetch_csv(url_template: str, symbol: str) -> str:
    """Fetch the CSV body for ``symbol`` from a `{symbol}` URL template, waiting at most
    FETCH_TIMEOUT seconds for the server."""
    if "{symbol}" not in url_template:
        raise UrlTemplateError("url template must contain {symbol}")
    url = url_template.replace("{symbol}", symbol)
    import urllib.error  # here, not at the top: urllib.request adds ~40 ms to every import of qgf
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT) as resp:
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
    close = series.close
    return LabelSeries(horizon_n=n, labels=tuple((close[n:] > close[:-n]).astype(int).tolist()))
