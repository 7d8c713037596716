import datetime as dt
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import qgf
from conftest import (
    awkward_cells,
    daily_dates,
    float_bits,
    make_flat_series,
    make_series,
    per_line_path_taken,
)
from qgf.errors import (
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
from qgf.market_data import (
    COLUMNS,
    LabelSeries,
    PriceSeries,
    WindowSpec,
    fetch_csv,
    label_trend,
    parse_csv,
    serialize_csv,
    sliding_windows,
)

GOOD_CSV = """Date,Open,High,Low,Close,Adj Close,Volume
2020-01-02,100.0,101.0,99.5,100.5,100.5,12000
2020-01-03,100.5,102.0,100.0,101.5,101.5,8000
2020-01-06,101.5,101.5,99.0,99.5,99.5,15000
"""


GOOD_BAR = (10, 11, 9, 10.5, 10.5, 100)  # open, high, low, close, adj close, volume


def _series(dates, *bars):
    return PriceSeries("X", dates, *np.array(bars, dtype=np.float64).reshape(-1, 6).T)


# one bar per rule, and a bar breaking several rules reports the first of them
BAD_BARS = [
    ((10, 11, 10.2, 10.5, 10.5, 100), "low exceeds open or close"),
    ((10, 10.4, 9, 10.5, 10.5, 100), "high below open or close"),
    ((-1, 11, 9, 10.5, 10.5, 100), "prices must be finite and positive"),
    ((10, 11, 9, 10.5, float("nan"), 100), "prices must be finite and positive"),
    ((10, 11, 9, 10.5, 10.5, -5), "volume must be finite and non-negative"),
    ((10, 11, 9, 10.5, 10.5, float("inf")), "volume must be finite and non-negative"),
    ((10, 11, 9, 10.5, 10.5, float("nan")), "volume must be finite and non-negative"),
    ((10, 9, 11, 10.5, 10.5, -5), "low exceeds open or close"),
]


def test_bar_invariants():
    dates = daily_dates(3)
    _series(dates, GOOD_BAR, GOOD_BAR, GOOD_BAR)
    for bar, rule in BAD_BARS:
        with pytest.raises(InvariantViolationError) as err:
            _series(dates, GOOD_BAR, bar, GOOD_BAR)
        assert str(err.value) == f"bar 1: {rule}", bar


def test_series_columns_are_read_only_copies_and_volume_is_truncated():
    volume = np.array([100.9, -0.5])
    close = np.array([10.5, 10.5])
    series = PriceSeries("X", daily_dates(2), [10, 10], [11, 11], [9, 9], close, close, volume)
    close[0] = 99.0
    assert series.close[0] == 10.5
    assert series.volume.tolist() == [100.0, 0.0]
    for name in COLUMNS:
        assert getattr(series, name).dtype == np.float64
        with pytest.raises(ValueError):
            getattr(series, name)[0] = 1.0
    with pytest.raises(InvariantViolationError, match="one value per date"):
        PriceSeries("X", daily_dates(2), [10], [11], [9], [10.5], [10.5], [1])


def test_series_rejects_duplicate_and_unsorted_dates():
    d = dt.date(2020, 1, 2)
    with pytest.raises(DuplicateDateError):
        _series((d, d), GOOD_BAR, GOOD_BAR)
    with pytest.raises(InvariantViolationError):
        _series((d, d - dt.timedelta(days=1)), GOOD_BAR, GOOD_BAR)
    with pytest.raises(SeriesTooShortError):
        _series(())


def test_parse_csv_happy_path():
    series = parse_csv(GOOD_CSV, "TST")
    assert len(series) == 3
    assert series.symbol == "TST"
    assert series.dates[0] == dt.date(2020, 1, 2)
    assert not series.adj_close_imputed
    assert np.array_equal(series.close, [100.5, 101.5, 99.5])
    assert series.volume.dtype == np.float64


def test_parse_csv_sorts_rows_by_date():
    lines = GOOD_CSV.strip().split("\n")
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
    assert serialize_csv(parse_csv(shuffled, "TST")) == GOOD_CSV


def test_parse_csv_missing_adj_close_is_imputed():
    text = "Date,Open,High,Low,Close,Volume\n2020-01-02,10,11,9,10.5,100\n"
    series = parse_csv(text, "TST")
    assert series.adj_close_imputed
    assert series.adj_close[0] == 10.5


def test_parse_csv_header_errors():
    with pytest.raises(MalformedHeaderError):
        parse_csv("", "TST")
    with pytest.raises(MalformedHeaderError):
        parse_csv("Date,Open,High,Close,Volume\n", "TST")
    with pytest.raises(MalformedHeaderError):
        parse_csv("a,b,c\n1,2,3\n", "TST")


def test_parse_csv_row_errors_carry_line_numbers():
    bad = GOOD_CSV + "2020-01-07,not_a_number,1,1,1,1,1\n"
    with pytest.raises(RowParseError) as err:
        parse_csv(bad, "TST")
    assert err.value.line == 5

    bad = GOOD_CSV + "2020-01-07,10.0,9.0,9.5,10.5,10.5,100\n"  # high < close
    with pytest.raises(InvariantViolationError) as err2:
        parse_csv(bad, "TST")
    assert err2.value.line == 5


def test_parse_csv_parses_every_row_before_checking_bars():
    bad_bar = GOOD_CSV.replace("2020-01-03,100.5,102.0", "2020-01-03,100.5,99.0")  # high < close
    with pytest.raises(InvariantViolationError) as err:
        parse_csv(bad_bar, "TST")
    assert str(err.value) == "line 3: high below open or close"
    with pytest.raises(RowParseError) as err:
        parse_csv(bad_bar + "2020-01-07,x,1,1,1,1,1\n", "TST")
    assert err.value.line == 5


@pytest.mark.parametrize("row,detail", [
    ("2020-01-07,10,11,9,10.5,10.5,100,7", "8 fields, expected 7"),
    ("2020-01-07,10,11,9,10.5", "5 fields, expected 7"),
    ('2020-01-07,"10",11,9,10.5,10.5,100', "could not convert string to float: '\"10\"'"),
    ("2020-01-07,10,11,9,10.5,10.5,1e400", "volume must be finite and non-negative"),
    ("2020-01-07,10,11,9,10.5,10.5,nan", "volume must be finite and non-negative"),
], ids=["extra-field", "short-row", "quoted", "huge-volume", "nan-volume"])
def test_parse_csv_refuses_rows_it_cannot_read(row, detail):
    with pytest.raises((RowParseError, InvariantViolationError)) as err:
        parse_csv(GOOD_CSV + "\n" + row + "\n", "TST")  # the blank line still counts
    assert str(err.value) == f"line 6: {detail}"


def test_parse_csv_quotes_a_bounded_part_of_a_huge_cell():
    for row in ("2020-01-07," + "x" * 100_000 + ",1,1,1,1,1", "x" * 100_000 + ",1,1,1,1,1,1"):
        with pytest.raises(RowParseError) as err:
            parse_csv(GOOD_CSV + row + "\n", "TST")
        message = str(err.value)
        assert message.startswith("line 5: ") and "(100000 characters)" in message
        assert len(message) < 200


def test_serialize_parse_round_trip(rng):
    series = make_series(rng, 40)
    text = serialize_csv(series)
    back = parse_csv(text, series.symbol)
    assert back.dates == series.dates
    for name in COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(series, name)), name
    assert serialize_csv(back) == text


def _awkward_ohlcv(bars):
    """Valid bars spelt with awkward cells: per bar, the lowest of five price cells is
    the low, the highest the high; the cells and the floats ``float`` reads from them."""
    rng = np.random.default_rng(2026)
    prices = awkward_cells(rng, 5 * bars, positive=True)
    volumes = awkward_cells(rng, bars, positive=True)
    lines, want = [_CSV_HEADER_LINE], []
    for i, date in enumerate(daily_dates(bars)):
        low, open_, close, adj, high = sorted(prices[5 * i:5 * i + 5], key=float)
        row = [open_, high, low, close, adj, volumes[i]]
        lines.append(",".join([date.isoformat(), *row]))
        want.append([float(c) for c in row])
    want = np.array(want)
    want[:, 5] = np.trunc(want[:, 5])
    return "\n".join(lines) + "\n", want


_CSV_HEADER_LINE = "Date,Open,High,Low,Close,Adj Close,Volume"


def test_parse_csv_gives_every_cell_the_bits_float_gives(monkeypatch):
    text, want = _awkward_ohlcv(300)
    monkeypatch.setattr(qgf.market_data, "parse_floats", per_line_path_taken)  # one pass
    series = parse_csv(text, "TST")
    got = np.stack([getattr(series, name) for name in COLUMNS], axis=1)
    assert np.array_equal(float_bits(got), float_bits(want))


@pytest.mark.parametrize("edit,bars", [
    (lambda t: t.replace("\n", "\r\n"), 3),
    (lambda t: t.replace("\n2020-01-03", "\n \t\n2020-01-03"), 3),
    (lambda t: t.replace("12000", "12_000"), 3),
    (lambda t: t.replace("8000", "٨٠٠٠"), 3),
    (lambda t: t.replace(",12000\n", ",12000\x0c2020-01-07,1,1,1,1,1,1\n"), 4),
], ids=["crlf", "whitespace-line", "underscore", "arabic-digits", "form-feed"])
def test_parse_csv_reads_what_float_and_splitlines_read(edit, bars):
    series = parse_csv(edit(GOOD_CSV), "TST")
    assert len(series) == bars
    assert series.volume[:2].tolist() == [12000, 8000]


@pytest.mark.parametrize("row,detail", [
    ("2020-01-07,10,11,9,10.5,10.5,100,", "8 fields, expected 7"),
    ("2020-01-07,10,11,9,10.5,10.5,\x1f100", "could not convert string to float: '\\x1f100'"),
    ("2020-01-07,10,inf,9,10.5,10.5,100", "prices must be finite and positive"),
    ("2020-01-07,10,1e999,9,10.5,10.5,100", "prices must be finite and positive"),
    ("2020-01-07 x,10,11,9,10.5,10.5,100", "Invalid isoformat string: '2020-01-07 x'"),
], ids=["trailing-comma", "unit-separator", "inf", "overflow", "bad-date"])
def test_parse_csv_names_the_line_the_one_pass_refuses(row, detail):
    with pytest.raises((RowParseError, InvariantViolationError)) as err:
        parse_csv(GOOD_CSV + row + "\n" + GOOD_CSV.splitlines()[1] + "\n", "TST")
    assert str(err.value) == f"line 5: {detail}"


def test_serialize_csv_writes_repr_cells_and_round_trips_awkward_values():
    text, want = _awkward_ohlcv(120)
    series = parse_csv(text, "TST")
    out = serialize_csv(series)
    rows = zip(series.dates, *(getattr(series, name).tolist() for name in COLUMNS))
    assert out == "\n".join([_CSV_HEADER_LINE, *(
        f"{d.isoformat()},{o!r},{h!r},{lo!r},{c!r},{a!r},{int(v)}"
        for d, o, h, lo, c, a, v in rows)]) + "\n"
    back = parse_csv(out, "TST")
    for name in COLUMNS:
        got, want = getattr(back, name), getattr(series, name)
        assert np.array_equal(float_bits(got), float_bits(want)), name
    assert serialize_csv(back) == out


def test_fetch_csv_reads_file_url(tmp_path):
    p = tmp_path / "TST.csv"
    p.write_text(GOOD_CSV)
    body = fetch_csv(f"file://{tmp_path}/{{symbol}}.csv", "TST")
    assert body == GOOD_CSV


def test_fetch_csv_refuses_a_body_that_is_not_utf8(tmp_path):
    (tmp_path / "TST.csv").write_bytes(GOOD_CSV.encode() + b"\xff\n")
    with pytest.raises(NetworkError, match="not UTF-8"):
        fetch_csv(f"file://{tmp_path}/{{symbol}}.csv", "TST")


def test_fetch_csv_template_must_reference_symbol():
    with pytest.raises(UrlTemplateError):
        fetch_csv("http://example.invalid/data.csv", "TST")


def test_importing_the_cli_leaves_urllib_request_unloaded():
    """fetch_csv imports urllib.request itself, so no command but a fetch pays for it."""
    src = os.path.dirname(os.path.dirname(qgf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = "import sys, qgf.cli; print('urllib.request' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_fetch_csv_maps_http_status_and_unreachable():
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(404)
            self.end_headers()

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        with pytest.raises(HttpStatusError) as err:
            fetch_csv(f"http://127.0.0.1:{port}/{{symbol}}.csv", "TST")
        assert err.value.code == 404
    finally:
        server.shutdown()

    with pytest.raises(NetworkError):
        fetch_csv("file:///nonexistent/{symbol}.csv", "TST")


def test_window_spec_validation():
    WindowSpec()
    with pytest.raises(InvariantViolationError):
        WindowSpec(window_len=1)
    with pytest.raises(InvariantViolationError):
        WindowSpec(stride=0)


def test_sliding_window_count_formula(rng):
    for _ in range(25):
        length = int(rng.integers(14, 80))
        stride = int(rng.integers(1, 5))
        series = make_series(rng, length)
        windows = sliding_windows(series, WindowSpec(window_len=14, stride=stride))
        assert len(windows) == (length - 14) // stride + 1
        for w in windows:
            assert len(w) == 14
        assert windows[0][0] == 0
        # consecutive windows advance by exactly the stride
        starts = [w[0] for w in windows]
        assert all(b - a == stride for a, b in zip(starts, starts[1:]))


def test_sliding_windows_thirty_bars_gives_seventeen(rng):
    series = make_series(rng, 30)
    assert len(sliding_windows(series, WindowSpec(window_len=14))) == 17


def test_sliding_windows_too_short(rng):
    with pytest.raises(SeriesTooShortError):
        sliding_windows(make_series(rng, 10), WindowSpec(window_len=14))


def test_label_trend_matches_direct_comparison(rng):
    series = make_series(rng, 50)
    closes = series.close
    for n in (1, 2, 5, 10):
        labels = label_trend(series, n)
        assert len(labels) == 50 - n
        assert labels.horizon_n == n
        for i, lab in enumerate(labels.labels):
            assert lab == int(closes[i + n] > closes[i])


def test_label_trend_tie_counts_as_zero():
    assert label_trend(make_flat_series(5), 1).labels == (0, 0, 0, 0)


def test_label_trend_horizon_bounds(rng):
    series = make_series(rng, 30)
    with pytest.raises(HorizonOutOfRangeError):
        label_trend(series, 0)
    with pytest.raises(HorizonOutOfRangeError):
        label_trend(series, 11)
    with pytest.raises(SeriesTooShortError):
        label_trend(make_series(rng, 3), 5)


def test_label_series_validation():
    with pytest.raises(InvariantViolationError):
        LabelSeries(horizon_n=1, labels=(0, 2))
    with pytest.raises(HorizonOutOfRangeError):
        LabelSeries(horizon_n=0, labels=(0,))
