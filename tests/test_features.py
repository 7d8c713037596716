import numpy as np
import pytest
from oracles import oracle_logistic_probe, oracle_pca_unscaled

from qgf import features as ft, gradcheck, nn
from qgf.errors import (
    DegenerateLabelsError,
    InvariantViolationError,
    LengthMismatchError,
    NumericError,
    RankTooHighError,
    ShapeMismatchError,
    TooFewFeaturesError,
)


def _informative_dataset(seed, n=500, noise_cols=9, margin=5.0):
    """One separating column among standard-normal noise columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, noise_cols + 1))
    x[:, 0] = (y * 2 - 1) * margin / 2.0 + rng.standard_normal(n)
    return x, y


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 5))
    y = rng.integers(0, 2, 40).astype(float)
    pset = nn.ParamSet()
    wb = pset.add("wb", np.append(rng.standard_normal(5) * 0.3, 0.2))  # w, then b

    def loss_and_grad():
        return ft.logistic_loss_and_grad(wb.data[:5], wb.data[5], x, y, l2=1e-3)

    _, gw, gb = loss_and_grad()
    numeric = gradcheck.finite_difference_gradients(lambda: loss_and_grad()[0], pset)["wb"]
    assert np.append(gw, gb) == pytest.approx(numeric, rel=1e-5)


def test_logistic_loss_is_stable_at_huge_logits():
    x = np.array([[1e4], [-1e4]])
    y = np.array([1.0, 0.0])
    loss, gw, gb = ft.logistic_loss_and_grad(np.array([1.0]), 0.0, x, y, l2=0.0)
    assert np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb)
    assert loss == pytest.approx(0.0, abs=1e-10)


def test_probe_separates_easy_data():
    x, y = _informative_dataset(seed=1)
    w, b, acc = ft.fit_logistic_probe(ft._standardize(x), y)
    assert acc > 0.95
    assert np.abs(w[0]) > np.abs(w[1:]).max()


@pytest.mark.parametrize("n, k, scale", [(500, 1, 1.0), (7, 4, 1.0), (3, 1, 1.0),
                                         (500, 10, 50.0), (9, 2, 50.0)])
def test_probe_equals_its_fresh_array_loop_bit_for_bit(n, k, scale):
    """At x * 50 exp overflows in the logistic from the first step: the probe must
    ignore that, not warn."""
    x, y = _informative_dataset(seed=n + k, n=n, noise_cols=k - 1)
    w, b, acc = ft.fit_logistic_probe(x * scale, y)
    w_ref, b_ref, acc_ref = oracle_logistic_probe(x * scale, y)
    assert np.array_equal(w, w_ref)
    assert b == b_ref
    assert acc == acc_ref


def test_rfe_keeps_the_informative_column():
    hits = 0
    for seed in range(6):
        x, y = _informative_dataset(seed)
        report = ft.rfe(x, y, keep=1)
        hits += report.survivors == ("f0",)
        assert len(report.eliminated) == 9
        assert len(report.accuracies) == 10
    assert hits == 6


def test_rfe_is_deterministic():
    x, y = _informative_dataset(seed=3)
    names = tuple(f"c{i}" for i in range(10))
    a = ft.rfe(x, y, keep=2, feature_names=names)
    b = ft.rfe(x, y, keep=2, feature_names=names)
    assert a == b
    assert set(a.survivors) | set(a.eliminated) == set(names)


def test_rfe_keep_all_eliminates_nothing():
    x, y = _informative_dataset(seed=4)
    report = ft.rfe(x, y, keep=10)
    assert report.eliminated == ()
    assert len(report.survivors) == 10
    assert len(report.accuracies) == 1


def test_rfe_validation():
    x, y = _informative_dataset(seed=5)
    with pytest.raises(TooFewFeaturesError):
        ft.rfe(x, y, keep=0)
    with pytest.raises(TooFewFeaturesError):
        ft.rfe(x, y, keep=11)
    with pytest.raises(DegenerateLabelsError):
        ft.rfe(x, np.zeros_like(y), keep=1)
    with pytest.raises(LengthMismatchError):
        ft.rfe(x, y[:-1], keep=1)
    with pytest.raises(LengthMismatchError):
        ft.rfe(x, y, keep=1, feature_names=("a", "b"))


def test_rfe_tie_breaks_toward_earlier_column():
    # duplicated zero-useless columns tie at |w|; the earlier one must go first
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, 200)
    sig = (y * 2 - 1) * 3.0 + rng.standard_normal(200)
    dup = rng.standard_normal(200)
    x = np.column_stack([dup, dup, sig])
    report = ft.rfe(x, y, keep=2)
    assert report.eliminated[0] == "f0"


def test_randomized_pca_rank2_exact_reconstruction(rng):
    basis = np.linalg.qr(rng.standard_normal((16, 2)))[0].T
    coords = rng.standard_normal((200, 2)) * np.array([5.0, 2.0])
    x = coords @ basis + rng.standard_normal(16) * 0.0 + 3.0
    model = ft.randomized_pca_fit(x, k=2, seed=1)
    recon = ft.pca_inverse_transform(model, ft.pca_transform(model, x))
    rel = np.linalg.norm(x - recon) / np.linalg.norm(x)
    assert rel <= 1e-6
    assert model.explained.shape == (2,)
    assert model.explained.sum() == pytest.approx(1.0)


def test_randomized_pca_matches_exact_svd_subspace(rng):
    for trial in range(10):
        # rebuild a centered matrix with a geometric spectrum so the top-k
        # subspace is well separated and the comparison is meaningful
        x = rng.standard_normal((20, 16))
        mu = x.mean(axis=0)
        u, _, vt_true = np.linalg.svd(x - mu, full_matrices=False)
        s_true = 10.0 * 0.5 ** np.arange(16)
        x = u @ np.diag(s_true) @ vt_true + mu
        k = int(rng.integers(1, 6))
        model = ft.randomized_pca_fit(x, k=k, seed=trial)
        xc = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        # same subspace: the cross-projection is orthogonal
        p = model.components @ vt[:k].T
        np.testing.assert_allclose(p @ p.T, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(model.explained, s[:k] ** 2 / (s ** 2).sum(),
                                   atol=1e-9)


@pytest.mark.parametrize("scale", [1e-90, 1e-3, 1.0, 7.0, 1e5, 1e90])
def test_pca_scaling_the_range_finder_changes_no_bit(rng, scale):
    x = (rng.standard_normal((300, 17)) * rng.uniform(0.1, 10.0, 17) + 4.0) * scale
    model = ft.randomized_pca_fit(x, k=4, seed=3)
    for got, want in zip((model.components, model.means, model.explained),
                         oracle_pca_unscaled(x, k=4, seed=3)):
        assert got.tobytes() == want.tobytes()


def test_pca_fits_a_column_whose_cube_overflows(rng):
    x = rng.standard_normal((1250, 17))
    x[:, 5] *= 1e102  # the unscaled power iteration reaches about 1e306 * 1250**2
    model = ft.randomized_pca_fit(x, k=3, seed=1)
    assert np.isfinite(model.components).all() and np.isfinite(model.explained).all()
    assert abs(model.components[0, 5]) == pytest.approx(1.0)
    assert model.explained[0] == pytest.approx(1.0)


def test_pca_refuses_a_table_whose_variance_overflows(rng):
    x = rng.standard_normal((50, 4))
    x[:, 1] *= 1e160
    with pytest.raises(NumericError, match="variance overflows"):
        ft.randomized_pca_fit(x, k=2)


def test_pca_transform_centering_identity(rng):
    x = rng.standard_normal((50, 8)) + 10.0
    model = ft.randomized_pca_fit(x, k=3)
    z = ft.pca_transform(model, x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(ft.pca_transform(model, model.means[None, :]),
                               np.zeros((1, 3)), atol=1e-12)


def test_pca_zero_matrix_explains_nothing():
    model = ft.randomized_pca_fit(np.zeros((10, 4)), k=2)
    assert np.array_equal(model.explained, np.zeros(2))


def test_pca_validation(rng):
    x = rng.standard_normal((10, 4))
    with pytest.raises(RankTooHighError):
        ft.randomized_pca_fit(x, k=5)
    with pytest.raises(RankTooHighError):
        ft.randomized_pca_fit(x, k=0)
    with pytest.raises(ShapeMismatchError):
        ft.randomized_pca_fit(np.zeros(4), k=1)
    model = ft.randomized_pca_fit(x, k=2)
    with pytest.raises(ShapeMismatchError):
        ft.pca_transform(model, np.zeros((3, 5)))
    with pytest.raises(ShapeMismatchError):
        ft.pca_inverse_transform(model, np.zeros((3, 3)))


def test_pca_model_invariants(rng):
    with pytest.raises(InvariantViolationError):
        ft.PcaModel(components=np.array([[1.0, 1.0]]), means=np.zeros(2),
                    explained=np.array([0.5]))
    with pytest.raises(InvariantViolationError):
        ft.PcaModel(components=np.eye(2), means=np.zeros(2),
                    explained=np.array([0.2, 0.5]))
