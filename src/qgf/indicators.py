"""Fifteen technical indicators over a PriceSeries, plus the feature matrix.

Every indicator returns an array aligned to bar indices, NaN over its warmup
prefix. Degenerate cases follow midpoint/cap conventions instead of erroring
so a flat day never destroys a whole column:

  - flat rolling range: stochastic fractional term 50, Williams 0.5, AD 0.5
  - CCI with zero mean deviation: 0
  - RSI with no losses: 100 (checked before the no-gain rule); no gains: 0
  - AR/BR/VR zero (for VR: non-positive) denominator: capped at ``CAP``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvariantViolationError, SeriesTooShortError
from .market_data import LabelSeries, PriceSeries

FEATURE_ORDER = ("K", "D", "WMS%R", "CCI", "RSI", "MACD", "DIF", "MA10",
                 "MTM", "ROC", "PSY", "AR", "BR", "VR", "AD", "BIAS5")
CAP = 1e6
# the longest warmup of the feature matrix: BR and VR need 26 price changes
VALID_FROM = 26


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-bar indicator values: rows = bar index, cols = feature_names order.

    Rows before ``valid_from`` sit inside some indicator's warmup and hold
    NaN; at and after it every entry is finite. ``cap_flags`` lists the bar
    indices where a ratio hit its cap, per column.
    """

    feature_names: tuple[str, ...]
    values: np.ndarray
    valid_from: int
    cap_flags: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise InvariantViolationError(
                f"values {self.values.shape} do not match {len(self.feature_names)} feature names")
        if not 0 <= self.valid_from < self.values.shape[0]:
            raise InvariantViolationError("valid_from outside row range")
        if not np.isfinite(self.values[self.valid_from:]).all():
            raise InvariantViolationError("non-finite value in the defined region")

    def valid_rows(self) -> np.ndarray:
        return self.values[self.valid_from:]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]


def _require(series: PriceSeries, minimum: int, what: str) -> None:
    if len(series) < minimum:
        raise SeriesTooShortError(f"{what} needs at least {minimum} bars, got {len(series)}")


def _rolling_high_low(series: PriceSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-day rolling extremes; index i covers bars [i-n+1, i], NaN before."""
    length = len(series)
    hp = np.full(length, np.nan)
    lp = np.full(length, np.nan)
    hp[n - 1:] = sliding_window_view(series.high, n).max(axis=1)
    lp[n - 1:] = sliding_window_view(series.low, n).min(axis=1)
    return hp, lp


def stochastic_kd(series: PriceSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """K/D recursions from K = D = 50: K <- (2/3)K + (1/3)*100*(CP-LP)/(HP-LP),
    D <- (2/3)D + (1/3)K."""
    _require(series, n, "stochastic")
    close = series.close
    hp, lp = _rolling_high_low(series, n)
    length = len(series)
    k = np.full(length, np.nan)
    d = np.full(length, np.nan)
    k_prev = d_prev = 50.0
    for i in range(n - 1, length):
        span = hp[i] - lp[i]
        frac = 50.0 if span == 0 else 100.0 * (close[i] - lp[i]) / span
        k_prev = (2.0 / 3.0) * k_prev + (1.0 / 3.0) * frac
        d_prev = (2.0 / 3.0) * d_prev + (1.0 / 3.0) * k_prev
        k[i] = k_prev
        d[i] = d_prev
    return k, d


def williams_r(series: PriceSeries, n: int) -> np.ndarray:
    """(HP_n - CP)/(HP_n - LP_n), on [0, 1]; flat range reads 0.5."""
    _require(series, n, "williams %R")
    hp, lp = _rolling_high_low(series, n)
    span = hp - lp
    out = np.where(span == 0, 0.5, (hp - series.close) / np.where(span == 0, 1.0, span))
    out[:n - 1] = np.nan
    return out


def cci(series: PriceSeries, n: int) -> np.ndarray:
    """(TP - SMATP)/(0.015 * MD) with MD the n-day mean absolute deviation; MD=0 -> 0."""
    _require(series, n, "cci")
    tp = (series.high + series.low + series.close) / 3.0
    windows = sliding_window_view(tp, n)
    smatp = windows.mean(axis=1)
    md = np.abs(windows - smatp[:, None]).mean(axis=1)
    dev = tp[n - 1:] - smatp
    vals = np.where(md == 0, 0.0, dev / (0.015 * np.where(md == 0, 1.0, md)))
    out = np.full(len(series), np.nan)
    out[n - 1:] = vals
    return out


def rsi(series: PriceSeries, n: int) -> np.ndarray:
    """100 - 100/(1 + sum(gains)/sum(losses)) over the last n changes."""
    _require(series, n + 1, "rsi")
    changes = np.diff(series.close)
    gains = np.where(changes > 0, changes, 0.0)
    losses = np.where(changes < 0, -changes, 0.0)
    sum_g = sliding_window_view(gains, n).sum(axis=1)
    sum_l = sliding_window_view(losses, n).sum(axis=1)
    out = np.full(len(series), np.nan)
    for j in range(sum_g.size):
        if sum_l[j] == 0:
            out[j + n] = 100.0
        elif sum_g[j] == 0:
            out[j + n] = 0.0
        else:
            out[j + n] = 100.0 - 100.0 / (1.0 + sum_g[j] / sum_l[j])
    return out


def macd(series: PriceSeries) -> dict[str, np.ndarray]:
    """Demand-index smoothing chain: DI, EMA12, EMA26, DIF, MACD.

    DI = (HP + LP + 2 CP)/4; EMA12 and EMA26 are seeded with DI_0 and the
    MACD line with 0, so all five series are defined from the first bar.
    """
    di = (series.high + series.low + 2.0 * series.close) / 4.0
    length = len(series)
    ema12 = np.empty(length)
    ema26 = np.empty(length)
    line = np.empty(length)
    ema12[0] = ema26[0] = di[0]
    line[0] = 0.0
    for i in range(1, length):
        ema12[i] = (11.0 / 13.0) * ema12[i - 1] + (2.0 / 13.0) * di[i]
        ema26[i] = (25.0 / 27.0) * ema26[i - 1] + (2.0 / 27.0) * di[i]
        line[i] = 0.8 * line[i - 1] + 0.2 * (ema12[i] - ema26[i])
    return {"DI": di, "EMA12": ema12, "EMA26": ema26, "DIF": ema12 - ema26, "MACD": line}


def moving_average(series: PriceSeries, n: int) -> np.ndarray:
    """n-day simple moving average of closes."""
    _require(series, n, "moving average")
    out = np.full(len(series), np.nan)
    out[n - 1:] = sliding_window_view(series.close, n).mean(axis=1)
    return out


def momentum(series: PriceSeries, n: int) -> np.ndarray:
    """100 * (CP_i - CP_{i-n}) / CP_{i-n}: MTM, and ROC too, which the paper gives the
    same formula."""
    _require(series, n + 1, "momentum")
    closes = series.close
    out = np.full(len(series), np.nan)
    out[n:] = 100.0 * (closes[n:] - closes[:-n]) / closes[:-n]
    return out


def psy(series: PriceSeries, n: int) -> np.ndarray:
    """100 * (up-days among the previous n) / n."""
    _require(series, n + 1, "psy")
    ups = (np.diff(series.close) > 0).astype(np.float64)
    out = np.full(len(series), np.nan)
    out[n:] = 100.0 * sliding_window_view(ups, n).sum(axis=1) / n
    return out


def _capped_ratio(num: np.ndarray, den: np.ndarray, bad: np.ndarray,
                  start: int) -> tuple[np.ndarray, list[int]]:
    """num / den from bar ``start`` on, NaN before; ``CAP`` where ``bad``, whose bars
    come back flagged."""
    out = np.full(start + num.size, np.nan)
    out[start:] = np.where(bad, CAP, num / np.where(bad, 1.0, den))
    return out, (np.flatnonzero(bad) + start).tolist()


def _ar_with_flags(series: PriceSeries, n: int) -> tuple[np.ndarray, list[int]]:
    """sum(HP - OP) / sum(OP - LP) over the n-day window."""
    _require(series, n, "ar")
    up = sliding_window_view(series.high - series.open, n).sum(axis=1)
    down = sliding_window_view(series.open - series.low, n).sum(axis=1)
    return _capped_ratio(up, down, down == 0, n - 1)


def _br_with_flags(series: PriceSeries, n: int) -> tuple[np.ndarray, list[int]]:
    """sum(HP_j - CP_{j-1}) / sum(CP_{j-1} - LP_j) over the n-day window."""
    _require(series, n + 1, "br")
    highs, lows, closes = series.high, series.low, series.close
    up = sliding_window_view(highs[1:] - closes[:-1], n).sum(axis=1)
    down = sliding_window_view(closes[:-1] - lows[1:], n).sum(axis=1)
    return _capped_ratio(up, down, down == 0, n)


def volume_ratio(series: PriceSeries, n: int, convention: str = "printed") -> np.ndarray:
    return _vr_with_flags(series, n, convention)[0]


def _vr_with_flags(series: PriceSeries, n: int,
                   convention: str) -> tuple[np.ndarray, list[int]]:
    """100 * (TVU - TVF/2)/(TVD - TVF/2) over up/down/flat volume sums.

    The "printed" convention is the paper's formula; "standard" flips both
    minus signs to plus, adding the flat volume to both sides.
    """
    _require(series, n + 1, "vr")
    if convention not in ("printed", "standard"):
        raise InvariantViolationError(f"unknown vr convention {convention!r}")
    vols = series.volume[1:]
    change = np.diff(series.close)
    tvu = sliding_window_view(np.where(change > 0, vols, 0.0), n).sum(axis=1)
    tvd = sliding_window_view(np.where(change < 0, vols, 0.0), n).sum(axis=1)
    tvf = sliding_window_view(np.where(change == 0, vols, 0.0), n).sum(axis=1)
    sign = -1.0 if convention == "printed" else 1.0
    num = tvu + sign * tvf / 2.0
    den = tvd + sign * tvf / 2.0
    return _capped_ratio(100.0 * num, den, den <= 0, n)


def ad_oscillator(series: PriceSeries) -> np.ndarray:
    """(HP_i - CP_{i-1})/(HP_i - LP_i); flat bar reads 0.5."""
    _require(series, 2, "ad oscillator")
    highs, lows, closes = series.high, series.low, series.close
    span = highs[1:] - lows[1:]
    vals = np.where(span == 0, 0.5,
                    (highs[1:] - closes[:-1]) / np.where(span == 0, 1.0, span))
    out = np.full(len(series), np.nan)
    out[1:] = vals
    return out


def bias5(series: PriceSeries) -> np.ndarray:
    """(CP - MA5)/MA5 against the 5-day moving average."""
    _require(series, 5, "bias5")
    ma5 = moving_average(series, 5)
    return (series.close - ma5) / ma5


def build_feature_matrix(series: PriceSeries, vr_convention: str = "printed") -> FeatureMatrix:
    """All 16 feature columns in FEATURE_ORDER, aligned by bar index."""
    if len(series) <= VALID_FROM:
        raise SeriesTooShortError(
            f"need more than {VALID_FROM} bars for all warmups, got {len(series)}")

    k, d = stochastic_kd(series, 9)
    macd_rec = macd(series)
    ar_vals, ar_flags = _ar_with_flags(series, 26)
    br_vals, br_flags = _br_with_flags(series, 26)
    vr_vals, vr_flags = _vr_with_flags(series, 26, vr_convention)
    mtm = momentum(series, 10)
    columns = {
        "K": k, "D": d,
        "WMS%R": williams_r(series, 14),
        "CCI": cci(series, 14),
        "RSI": rsi(series, 14),
        "MACD": macd_rec["MACD"], "DIF": macd_rec["DIF"],
        "MA10": moving_average(series, 10),
        "MTM": mtm, "ROC": mtm,
        "PSY": psy(series, 12),
        "AR": ar_vals, "BR": br_vals, "VR": vr_vals,
        "AD": ad_oscillator(series),
        "BIAS5": bias5(series),
    }
    values = np.column_stack([columns[name] for name in FEATURE_ORDER])
    cap_flags = {name: tuple(idx) for name, idx in
                 (("AR", ar_flags), ("BR", br_flags), ("VR", vr_flags)) if idx}
    return FeatureMatrix(feature_names=FEATURE_ORDER, values=values,
                         valid_from=VALID_FROM, cap_flags=cap_flags)


def aligned_design_matrix(matrix: FeatureMatrix, labels: LabelSeries) -> tuple[np.ndarray, np.ndarray]:
    """Pair the features of day i with the trend label of day i + n.

    Returns (X, y) with one row per prediction: X holds rows
    ``valid_from .. L-n-1`` of the matrix and y the label each row predicts.
    """
    n = labels.horizon_n
    lab = labels.as_array()
    last_feature_row = matrix.values.shape[0] - n
    if last_feature_row <= matrix.valid_from:
        raise SeriesTooShortError("no feature rows survive warmup plus horizon")
    x = matrix.values[matrix.valid_from:last_feature_row]
    y = lab[matrix.valid_from:]
    return x, y
