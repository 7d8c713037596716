import numpy as np
import pytest

from conftest import daily_dates, make_flat_series, make_series
from oracles import oracle_all_indicators
from qgf import indicators as ind
from qgf.errors import InvariantViolationError, SeriesTooShortError
from qgf.market_data import PriceSeries

# columns whose value is unchanged when every price is scaled by a constant
SCALE_INVARIANT = ("K", "D", "WMS%R", "RSI", "MTM", "ROC", "PSY", "AR", "BR",
                   "VR", "AD", "BIAS5")


def test_params_validation(rng):
    series = make_series(rng, 60)
    ind.build_feature_matrix(series, vr_convention="standard")
    with pytest.raises(InvariantViolationError):
        ind.build_feature_matrix(series, vr_convention="other")


@pytest.mark.parametrize("seed", range(12))
def test_all_columns_match_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    flat = (20, int(rng.integers(3, 8))) if seed % 3 == 0 else None
    series = make_series(rng, 60, flat_run=flat)
    matrix = ind.build_feature_matrix(series)
    expected = oracle_all_indicators(series)
    for name in ind.FEATURE_ORDER:
        got = matrix.column(name)
        want = np.asarray(expected[name])
        nan_mask = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan_mask), name
        np.testing.assert_allclose(got[~nan_mask], want[~nan_mask],
                                   rtol=0, atol=1e-9, err_msg=name)


def test_valid_from_and_warmup_boundaries(rng):
    series = make_series(rng, 60)
    matrix = ind.build_feature_matrix(series)
    assert matrix.valid_from == 26
    assert np.isfinite(matrix.values[matrix.valid_from:]).all()
    # the last NaN in each column sits exactly at its warmup boundary
    warmup = {"K": 8, "D": 8, "WMS%R": 13, "CCI": 13, "RSI": 14, "MACD": 0,
              "DIF": 0, "MA10": 9, "MTM": 10, "ROC": 10, "PSY": 12, "AR": 25,
              "BR": 26, "VR": 26, "AD": 1, "BIAS5": 4}
    for name, w in warmup.items():
        col = matrix.column(name)
        assert np.isnan(col[:w]).all(), name
        assert np.isfinite(col[w:]).all(), name


def test_momentum_equals_roc(rng):
    matrix = ind.build_feature_matrix(make_series(rng, 60))
    assert matrix.column("ROC").tobytes() == matrix.column("MTM").tobytes()


def test_scale_invariant_columns(rng):
    series = make_series(rng, 60)
    scaled = PriceSeries(series.symbol, series.dates, 3.0 * series.open, 3.0 * series.high,
                         3.0 * series.low, 3.0 * series.close, 3.0 * series.adj_close,
                         series.volume)
    m1 = ind.build_feature_matrix(series)
    m2 = ind.build_feature_matrix(scaled)
    for name in SCALE_INVARIANT:
        a, b = m1.column(name), m2.column(name)
        mask = np.isfinite(a)
        np.testing.assert_allclose(a[mask], b[mask], rtol=1e-9, err_msg=name)
    # price-denominated columns scale with the input instead
    for name in ("MA10", "MACD", "DIF"):
        a, b = m1.column(name), m2.column(name)
        mask = np.isfinite(a) & (np.abs(a) > 1e-9)
        np.testing.assert_allclose(b[mask], 3.0 * a[mask], rtol=1e-9, err_msg=name)


def test_flat_series_degenerate_values():
    series = make_flat_series(40)
    matrix = ind.build_feature_matrix(series)
    rows = slice(matrix.valid_from, None)
    # fractional stochastic term pinned at 50 decays K and D toward 50
    np.testing.assert_allclose(matrix.column("K")[rows], 50.0)
    np.testing.assert_allclose(matrix.column("D")[rows], 50.0)
    assert np.all(matrix.column("WMS%R")[rows] == 0.5)
    assert np.all(matrix.column("AD")[rows] == 0.5)
    assert np.all(matrix.column("CCI")[rows] == 0.0)
    assert np.all(matrix.column("RSI")[rows] == 100.0)  # no losses outranks no gains
    assert np.all(matrix.column("PSY")[rows] == 0.0)
    assert np.all(matrix.column("MTM")[rows] == 0.0)
    # flat bars zero both AR sums and the BR/VR denominators: capped
    assert np.all(matrix.column("AR")[rows] == 1e6)
    assert np.all(matrix.column("BR")[rows] == 1e6)
    assert np.all(matrix.column("VR")[rows] == 1e6)
    for name in ("AR", "BR", "VR"):
        flags = matrix.cap_flags[name]
        assert flags == tuple(np.flatnonzero(matrix.column(name) == 1e6)), name
        assert flags and all(type(i) is int for i in flags), name  # JSON-serializable


def test_cap_flags_absent_on_clean_series(rng):
    series = make_series(rng, 60)
    matrix = ind.build_feature_matrix(series)
    assert matrix.cap_flags == {}


def test_vr_conventions_differ_only_with_flat_volume(rng):
    series = make_series(rng, 60, flat_run=(30, 4))
    printed = ind.build_feature_matrix(series, vr_convention="printed")
    standard = ind.build_feature_matrix(series, vr_convention="standard")
    assert not np.array_equal(printed.column("VR"), standard.column("VR"), equal_nan=True)
    others = [j for j, name in enumerate(ind.FEATURE_ORDER) if name != "VR"]
    assert np.array_equal(printed.values[:, others], standard.values[:, others], equal_nan=True)


def test_macd_chain_seeds_and_smoothing(rng):
    matrix = ind.build_feature_matrix(make_series(rng, 30))
    line, dif = matrix.column("MACD"), matrix.column("DIF")
    assert line[0] == dif[0] == 0.0  # both EMAs start at DI_0, the MACD line at 0
    for i in range(1, 30):
        assert line[i] == pytest.approx(0.8 * line[i - 1] + 0.2 * dif[i])


def test_williams_bounded_and_rsi_range(rng):
    matrix = ind.build_feature_matrix(make_series(rng, 60))
    w = matrix.column("WMS%R")[13:]
    assert np.all((w >= 0.0) & (w <= 1.0))
    r = matrix.column("RSI")[14:]
    assert np.all((r >= 0.0) & (r <= 100.0))
    p = matrix.column("PSY")[12:]
    assert np.all((p >= 0.0) & (p <= 100.0))


def test_rsi_monotone_extremes():
    for step, want in ((1.0, 100.0), (-1.0, 0.0)):
        p = 100.0 + step * np.arange(30)
        series = PriceSeries("X", daily_dates(30), p, p, p, p, p, np.ones(30))
        assert np.all(ind.build_feature_matrix(series).column("RSI")[14:] == want)


def test_short_series_raises(rng):
    short = make_series(rng, 26)
    with pytest.raises(SeriesTooShortError):
        ind.build_feature_matrix(short)
    ind.build_feature_matrix(make_series(rng, 27))  # one past the warmup works


def test_feature_matrix_validates_shape_and_region():
    with pytest.raises(InvariantViolationError):
        ind.FeatureMatrix(feature_names=("a", "b"), values=np.ones((4, 3)), valid_from=0)
    bad = np.ones((4, 2))
    bad[3, 1] = np.nan
    with pytest.raises(InvariantViolationError):
        ind.FeatureMatrix(feature_names=("a", "b"), values=bad, valid_from=2)
    with pytest.raises(InvariantViolationError):
        ind.FeatureMatrix(feature_names=("a", "b"), values=np.ones((4, 2)), valid_from=4)

