import json
import tracemalloc

import numpy as np
import pytest

from oracles import oracle_frechet, oracle_frechet_dp, oracle_frechet_exhaustive
from qgf import metrics as mt
from qgf.errors import (
    DimensionMismatchError,
    EmptySequenceError,
    InvariantViolationError,
    LengthMismatchError,
    PairingMismatchError,
    ZeroReferenceError,
    ZeroVarianceError,
)


def test_f1_of_reported_rates():
    assert mt.f1_score(0.64, 0.66) == pytest.approx(0.65, abs=0.01)
    assert mt.f1_score(0.0, 0.0) == 0.0
    assert mt.f1_score(1.0, 1.0) == 1.0


def test_pearson_exact_on_identical_and_affine():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(2, 50)))
        if np.ptp(x) == 0:
            continue
        assert mt.pearson_r(x, x) == 1.0
        assert mt.pearson_r(x, 2.5 * x + 3.0) == pytest.approx(1.0)
        assert mt.pearson_r(x, -x) == -1.0


def test_pearson_errors():
    with pytest.raises(ZeroVarianceError):
        mt.pearson_r(np.ones(5), np.arange(5.0))
    with pytest.raises(LengthMismatchError):
        mt.pearson_r(np.ones(5), np.ones(4))
    with pytest.raises(LengthMismatchError):
        mt.pearson_r(np.ones(1), np.ones(1))


def test_prd_rmse_zero_on_identical_and_against_direct_formula(rng):
    x = rng.standard_normal(64)
    assert mt.prd(x, x) == 0.0
    assert mt.rmse(x, x) == 0.0
    y = x + rng.standard_normal(64) * 0.1
    assert mt.prd(x, y) == pytest.approx(
        100.0 * np.sqrt(((x - y) ** 2).sum() / (x * x).sum()))
    assert mt.rmse(x, y) == pytest.approx(np.sqrt(((x - y) ** 2).mean()))
    with pytest.raises(ZeroReferenceError):
        mt.prd(np.zeros(4), np.ones(4))
    with pytest.raises(LengthMismatchError):
        mt.rmse(np.ones(3), np.ones(4))


def test_frechet_textbook_and_identity(rng):
    p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    q = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    assert mt.frechet_distance(p, q) == 1.0
    x = rng.standard_normal(30)
    assert mt.frechet_distance(x, x) == 0.0
    # symmetric, and never below the endpoint distances
    a = rng.standard_normal((7, 2))
    b = rng.standard_normal((5, 2))
    d = mt.frechet_distance(a, b)
    assert d == mt.frechet_distance(b, a)
    assert d >= np.linalg.norm(a[0] - b[0]) - 1e-15
    assert d >= np.linalg.norm(a[-1] - b[-1]) - 1e-15


@pytest.mark.parametrize("trial", range(60))
def test_frechet_matches_exhaustive_enumeration(trial):
    rng = np.random.default_rng(1000 + trial)
    p = rng.standard_normal((int(rng.integers(1, 7)), 2))
    q = rng.standard_normal((int(rng.integers(1, 7)), 2))
    assert mt.frechet_distance(p, q) == oracle_frechet_exhaustive(p, q)


def test_frechet_matches_recursive_definition_on_longer_curves(rng):
    for _ in range(40):
        p = rng.standard_normal((int(rng.integers(1, 15)), 3))
        q = rng.standard_normal((int(rng.integers(1, 15)), 3))
        assert mt.frechet_distance(p, q) == pytest.approx(oracle_frechet(p, q), abs=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_frechet_equals_row_dp_on_unequal_lengths(dim):
    rng = np.random.default_rng(300 + dim)
    sizes = [(int(rng.integers(1, 60)), int(rng.integers(1, 60))) for _ in range(20)]
    sizes += [(1, 1), (1, 37), (41, 1), (400, 233), (157, 390)]
    for n, m in sizes:
        p = np.cumsum(rng.standard_normal((n, dim)), axis=0)
        q = np.cumsum(rng.standard_normal((m, dim)), axis=0)
        assert mt.frechet_distance(p, q) == oracle_frechet_dp(p, q), (n, m)


def test_frechet_equals_row_dp_on_integer_curves_with_ties():
    rng = np.random.default_rng(77)
    for dim in (1, 2, 3):
        for _ in range(40):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            p = rng.integers(-2, 3, size=(n, dim)).astype(float)
            q = rng.integers(-2, 3, size=(m, dim)).astype(float)
            assert mt.frechet_distance(p, q) == oracle_frechet_dp(p, q), (dim, n, m)


def test_frechet_is_symmetric_on_long_unequal_curves():
    rng = np.random.default_rng(5)
    for n, m, dim in [(3120, 1700, 1), (900, 2500, 2), (1, 2000, 3)]:
        p = np.cumsum(rng.standard_normal((n, dim)), axis=0)
        q = np.cumsum(rng.standard_normal((m, dim)), axis=0)
        assert mt.frechet_distance(p, q) == mt.frechet_distance(q, p)


def test_frechet_wavefront_batch_equals_each_pair_alone():
    rng = np.random.default_rng(13)
    for n, m in [(1, 1), (1, 9), (9, 1), (6, 11), (40, 3)]:
        p = np.cumsum(rng.standard_normal((4, n, 2)), axis=1)
        q = np.cumsum(rng.standard_normal((4, m, 2)), axis=1)
        got = mt._frechet_wavefront(p.transpose(1, 0, 2), q.transpose(1, 0, 2))
        assert got.tolist() == [oracle_frechet_dp(a, b) for a, b in zip(p, q)], (n, m)
        assert got.tolist() == [mt.frechet_distance(a, b) for a, b in zip(p, q)], (n, m)


def test_frechet_memory_is_linear_in_length():
    rng = np.random.default_rng(9)
    p = np.cumsum(rng.standard_normal(3120))
    q = np.cumsum(rng.standard_normal(3120))
    tracemalloc.start()
    try:
        mt.frechet_distance(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an n x m float64 distance matrix alone would be 78 MB
    assert peak < 2_000_000


def test_frechet_input_validation():
    with pytest.raises(EmptySequenceError):
        mt.frechet_distance(np.empty((0, 2)), np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        mt.frechet_distance(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatchError):
        mt.frechet_distance(np.ones((2, 2, 2)), np.ones((3, 2)))


def test_compare_sequences_paired(rng):
    real = [rng.standard_normal(32) for _ in range(4)]
    gen = [r + 0.01 * rng.standard_normal(32) for r in real]
    report = mt.compare_sequences(real, gen, pairing="paired")
    assert set(report.metrics) == {"prd", "rmse", "frechet", "pearson_r"}
    assert report.undefined_flags == ()
    assert report.metrics["pearson_r"] > 0.99
    assert report.metrics["frechet"] == pytest.approx(
        np.mean([mt.frechet_distance(a, b) for a, b in zip(real, gen)]))
    payload = json.loads(report.to_json())
    assert payload["pairing"] == "paired"
    assert payload["rmse"] == report.metrics["rmse"]


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("length", [1, 2, 256])
def test_compare_sequences_equals_the_mean_of_its_rows(n, length):
    rng = np.random.default_rng(100 * n + length)
    real = np.cumsum(rng.standard_normal((n, length)), axis=1)
    gen = np.cumsum(rng.standard_normal((n, length)), axis=1)
    report = mt.compare_sequences(real, gen, pairing="paired")
    rows = list(zip(real, gen))
    assert report.metrics["prd"] == float(np.mean([mt.prd(a, b) for a, b in rows]))
    assert report.metrics["rmse"] == float(np.mean([mt.rmse(a, b) for a, b in rows]))
    assert report.metrics["frechet"] == float(np.mean([oracle_frechet_dp(a, b) for a, b in rows]))
    if n * length > 1:
        assert report.metrics["pearson_r"] == mt.pearson_r(np.concatenate(real),
                                                           np.concatenate(gen))
    else:
        assert report.undefined_flags == ("pearson_r",)


def test_prd_and_rmse_give_one_value_per_row():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 5, 7))
    for metric in (mt.prd, mt.rmse):
        assert type(metric(x[0], y[0])) is float
        assert metric(x, y).tolist() == [metric(a, b) for a, b in zip(x, y)]
    with pytest.raises(ZeroReferenceError):  # one all-zero reference row is enough
        mt.prd(np.vstack([x[:2], np.zeros(7)]), y[:3])


def test_compare_sequences_concatenated(rng):
    real = [rng.standard_normal(16) for _ in range(3)]
    gen = [rng.standard_normal(16) for _ in range(3)]
    report = mt.compare_sequences(real, gen, pairing="concatenated")
    assert report.metrics["frechet"] == mt.frechet_distance(
        np.concatenate(real), np.concatenate(gen))


def test_compare_sequences_concatenated_at_scale_equals_row_dp():
    rng = np.random.default_rng(11)
    real = [np.cumsum(rng.standard_normal(64)) for _ in range(50)]
    gen = [np.cumsum(rng.standard_normal(64)) for _ in range(50)]
    report = mt.compare_sequences(real, gen, pairing="concatenated")
    assert report.metrics["frechet"] == oracle_frechet_dp(np.concatenate(real),
                                                          np.concatenate(gen))


def test_compare_sequences_flags_undefined_correlation():
    real = [np.ones(8)]
    gen = [np.zeros(8) + 0.5]
    report = mt.compare_sequences(real, gen)
    assert "pearson_r" in report.undefined_flags
    assert "pearson_r" not in report.metrics


def test_compare_sequences_errors():
    with pytest.raises(PairingMismatchError):  # the pairing is checked before the input
        mt.compare_sequences([], [], pairing="zipped")
    with pytest.raises(EmptySequenceError):
        mt.compare_sequences([], [])
    with pytest.raises(PairingMismatchError):
        mt.compare_sequences([np.ones(4)], [np.ones(4), np.ones(4)])
    with pytest.raises(PairingMismatchError):
        mt.compare_sequences([np.ones(4)], [np.ones(5)])
    with pytest.raises(DimensionMismatchError):
        mt.compare_sequences(np.ones(4), np.ones(4))
    for pairing in ("paired", "concatenated"):  # refused before any metric warns
        for shape in ((2, 0), (0, 3)):
            with pytest.raises(EmptySequenceError):
                mt.compare_sequences(np.ones(shape), np.ones(shape), pairing=pairing)
        with pytest.raises(PairingMismatchError):  # ragged rows, not a numpy ValueError
            mt.compare_sequences([np.ones(4), np.ones(0)], [np.ones(4), np.ones(0)],
                                 pairing=pairing)


def test_report_rejects_non_finite_metric():
    with pytest.raises(InvariantViolationError):
        mt.MetricsReport(real_id="a", generated_id="b", pairing="paired",
                         metrics={"rmse": float("nan")})
