"""Fifteen technical indicators over a PriceSeries, as one feature matrix.

Each indicator returns the bars where it is defined, and ``build_feature_matrix``
pads its warmup with NaN. Degenerate cases follow midpoint/cap conventions
instead of erroring so a flat day never destroys a whole column:

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
from .market_data import PriceSeries

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
        bad = np.argwhere(~np.isfinite(self.values[self.valid_from:]))
        if bad.size:
            bar, col = bad[0]
            raise InvariantViolationError(
                f"non-finite value in the defined region: column {self.feature_names[col]!r}, "
                f"bar {self.valid_from + bar}")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]


def _stochastic_kd(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """Rows K <- (2/3)K + (1/3)*100*(CP-LP)/(HP-LP) and D <- (2/3)D + (1/3)K, from 50,
    stepped on Python floats (the span guard also keeps ZeroDivisionError out)."""
    hp = sliding_window_view(high, n).max(axis=1)
    lp = sliding_window_view(low, n).min(axis=1)
    ks, ds = [], []
    k_prev = d_prev = 50.0
    for h, lo, c in zip(hp.tolist(), lp.tolist(), close[n - 1:].tolist()):
        span = h - lo
        frac = 50.0 if span == 0 else 100.0 * (c - lo) / span
        k_prev = (2.0 / 3.0) * k_prev + (1.0 / 3.0) * frac
        d_prev = (2.0 / 3.0) * d_prev + (1.0 / 3.0) * k_prev
        ks.append(k_prev)
        ds.append(d_prev)
    return np.array([ks, ds])


def _williams_r(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """(HP_n - CP)/(HP_n - LP_n), on [0, 1]; flat range reads 0.5."""
    hp = sliding_window_view(high, n).max(axis=1)
    span = hp - sliding_window_view(low, n).min(axis=1)
    return np.where(span == 0, 0.5, (hp - close[n - 1:]) / np.where(span == 0, 1.0, span))


def _cci(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """(TP - SMATP)/(0.015 * MD) with MD the n-day mean absolute deviation; MD=0 -> 0."""
    tp = (high + low + close) / 3.0
    windows = sliding_window_view(tp, n)
    smatp = windows.mean(axis=1)
    md = np.abs(windows - smatp[:, None]).mean(axis=1)
    return np.where(md == 0, 0.0, (tp[n - 1:] - smatp) / (0.015 * np.where(md == 0, 1.0, md)))


def _rsi(close: np.ndarray, n: int) -> np.ndarray:
    """100 - 100/(1 + sum(gains)/sum(losses)) over the last n changes."""
    changes = np.diff(close)
    sum_g = sliding_window_view(np.where(changes > 0, changes, 0.0), n).sum(axis=1)
    sum_l = sliding_window_view(np.where(changes < 0, -changes, 0.0), n).sum(axis=1)
    return np.where(sum_l == 0, 100.0,
                    np.where(sum_g == 0, 0.0, 100.0 - 100.0 / (1.0 + sum_g / sum_l)))


def _macd(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(MACD, DIF) of DI = (HP + LP + 2 CP)/4: DIF = EMA12 - EMA26, both seeded with DI_0,
    and MACD <- 0.8 MACD + 0.2 DIF from 0, so both are defined from the first bar.
    The recursions step Python floats."""
    di = ((high + low + 2.0 * close) / 4.0).tolist()
    ema12 = ema26 = di[0]
    line, dif = [0.0], [ema12 - ema26]
    for v in di[1:]:
        ema12 = (11.0 / 13.0) * ema12 + (2.0 / 13.0) * v
        ema26 = (25.0 / 27.0) * ema26 + (2.0 / 27.0) * v
        dif.append(ema12 - ema26)
        line.append(0.8 * line[-1] + 0.2 * dif[-1])
    return np.array(line), np.array(dif)


def _moving_average(close: np.ndarray, n: int) -> np.ndarray:
    """n-day simple moving average of closes."""
    return sliding_window_view(close, n).mean(axis=1)


def _momentum(close: np.ndarray, n: int) -> np.ndarray:
    """100 * (CP_i - CP_{i-n}) / CP_{i-n}: MTM, and ROC, which the paper defines the same."""
    return 100.0 * (close[n:] - close[:-n]) / close[:-n]


def _psy(close: np.ndarray, n: int) -> np.ndarray:
    """100 * (up-days among the previous n) / n."""
    return 100.0 * sliding_window_view(np.diff(close) > 0, n).sum(axis=1) / n


# AR, BR and VR return (numerator, denominator, capped); build_feature_matrix divides
def _ar(open_: np.ndarray, high: np.ndarray, low: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """sum(HP - OP) / sum(OP - LP) over the n-day window; capped where the sum is 0."""
    up = sliding_window_view(high - open_, n).sum(axis=1)
    down = sliding_window_view(open_ - low, n).sum(axis=1)
    return up, down, down == 0


def _br(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """sum(HP_j - CP_{j-1}) / sum(CP_{j-1} - LP_j) over the n-day window; capped at 0."""
    up = sliding_window_view(high[1:] - close[:-1], n).sum(axis=1)
    down = sliding_window_view(close[:-1] - low[1:], n).sum(axis=1)
    return up, down, down == 0


def _vr(close: np.ndarray, volume: np.ndarray, n: int, convention: str) -> tuple[np.ndarray, ...]:
    """100 * (TVU - TVF/2)/(TVD - TVF/2) over up/down/flat volume sums, capped at or below
    0; the "printed" convention is the paper's, "standard" adds TVF/2 on both sides."""
    vols = volume[1:]
    change = np.diff(close)
    tvu = sliding_window_view(np.where(change > 0, vols, 0.0), n).sum(axis=1)
    tvd = sliding_window_view(np.where(change < 0, vols, 0.0), n).sum(axis=1)
    tvf = sliding_window_view(np.where(change == 0, vols, 0.0), n).sum(axis=1)
    sign = -1.0 if convention == "printed" else 1.0
    den = tvd + sign * tvf / 2.0
    return 100.0 * (tvu + sign * tvf / 2.0), den, den <= 0


def _ad_oscillator(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> np.ndarray:
    """(HP_i - CP_{i-1})/(HP_i - LP_i); flat bar reads 0.5."""
    span = high[1:] - low[1:]
    return np.where(span == 0, 0.5, (high[1:] - close[:-1]) / np.where(span == 0, 1.0, span))


def _bias5(close: np.ndarray) -> np.ndarray:
    """(CP - MA5)/MA5 against the 5-day moving average."""
    ma5 = _moving_average(close, 5)
    return (close[4:] - ma5) / ma5


def build_feature_matrix(series: PriceSeries, vr_convention: str = "printed") -> FeatureMatrix:
    """All 16 feature columns in FEATURE_ORDER, aligned by bar index."""
    length = len(series)
    if length <= VALID_FROM:
        raise SeriesTooShortError(f"need more than {VALID_FROM} bars for all warmups, got {length}")
    if vr_convention not in ("printed", "standard"):
        raise InvariantViolationError(f"unknown vr convention {vr_convention!r}")
    high, low, close = series.high, series.low, series.close
    # no overflow warning: FeatureMatrix's finite check names the column and bar instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k, d = _stochastic_kd(high, low, close, 9)
        macd, dif = _macd(high, low, close)
        mtm = _momentum(close, 10)
        columns = {
            "K": k, "D": d, "WMS%R": _williams_r(high, low, close, 14),
            "CCI": _cci(high, low, close, 14), "RSI": _rsi(close, 14), "MACD": macd, "DIF": dif,
            "MA10": _moving_average(close, 10), "MTM": mtm, "ROC": mtm, "PSY": _psy(close, 12),
            "AD": _ad_oscillator(high, low, close), "BIAS5": _bias5(close),
        }
        cap_flags = {}
        for name, (num, den, capped) in (("AR", _ar(series.open, high, low, 26)),
                                         ("BR", _br(high, low, close, 26)),
                                         ("VR", _vr(close, series.volume, 26, vr_convention))):
            columns[name] = np.where(capped, CAP, num / np.where(capped, 1.0, den))
            flags = (np.flatnonzero(capped) + length - capped.size).tolist()
            if flags:
                cap_flags[name] = tuple(flags)
    values = np.full((length, len(FEATURE_ORDER)), np.nan)
    for j, name in enumerate(FEATURE_ORDER):
        values[length - columns[name].size:, j] = columns[name]
    return FeatureMatrix(FEATURE_ORDER, values, VALID_FROM, cap_flags)
