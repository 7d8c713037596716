"""Feature selection and dimensionality reduction.

RFE trains an L2-regularized logistic probe by plain gradient descent on
standardized inputs, drops the feature with the smallest absolute weight,
and repeats. The probe starts from zero weights, so the whole procedure is
deterministic with no randomness to seed.

Randomized PCA finds the top-k principal subspace with a Gaussian range
finder (one power iteration, QR orthonormalization) and a small exact SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateLabelsError,
    InvariantViolationError,
    LengthMismatchError,
    NumericError,
    RankTooHighError,
    ShapeMismatchError,
    TooFewFeaturesError,
)

PROBE_L2, PROBE_STEPS, PROBE_LR = 1e-3, 500, 0.1  # the probe's penalty, step count and rate


@dataclass(frozen=True)
class RfeReport:
    """Worst-first elimination order, survivors in original column order, and
    probe training accuracy per round (final entry: the surviving set)."""

    eliminated: tuple[str, ...]
    survivors: tuple[str, ...]
    accuracies: tuple[float, ...]


@dataclass(frozen=True)
class PcaModel:
    components: np.ndarray
    means: np.ndarray
    explained: np.ndarray

    def __post_init__(self):
        k = self.components.shape[0]
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(k), atol=1e-8):
            raise InvariantViolationError("components are not orthonormal")
        if np.any(self.explained < 0) or np.any(self.explained > 1 + 1e-8):
            raise InvariantViolationError("explained fractions outside [0, 1]")
        if np.any(np.diff(self.explained) > 1e-12):
            raise InvariantViolationError("explained fractions must be non-increasing")


def _standardize(x: np.ndarray) -> np.ndarray:
    """Columns to zero mean and unit variance; a constant column goes to zeros, and one
    whose mean or variance overflows float64 to NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        return (x - mu) / np.where(sd == 0, 1.0, np.where(np.isfinite(sd), sd, np.nan))


def logistic_loss_and_grad(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray,
                           l2: float) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy plus (l2/2)||w||^2 and its exact gradient in (w, b)."""
    logits = x @ w + b
    with np.errstate(over="ignore"):  # below logit -709 exp overflows, and the logistic reads 0
        err = ad._logistic(logits, np.empty_like(logits)) - y
    gw = x.T @ err / x.shape[0] + l2 * w
    # log(1 + exp(z)) - y z, computed from the softplus identity for stability
    softplus = np.logaddexp(0.0, logits)
    loss = float((softplus - y * logits).mean() + 0.5 * l2 * (w @ w))
    return loss, gw, float(np.add.reduce(err)) / x.shape[0]


def fit_logistic_probe(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Full-batch gradient descent from zero weights; returns (w, b, accuracy).

    Each step takes the gradient of ``logistic_loss_and_grad`` into buffers allocated
    once, then w -= rate * gw and b -= rate * gb. The logistic's exponent -(x w + b) is
    one subtract, -b - x w, with the same bits but for a zero's sign, which exp drops.
    """
    n = x.shape[0]
    y_float = np.asarray(y, dtype=np.float64)
    w = np.zeros(x.shape[1])
    b = 0.0
    xw, err, gw = np.empty(n), np.empty(n), np.empty(w.size)
    with np.errstate(over="ignore"):  # below logit -709 exp overflows, and the logistic reads 0
        for _ in range(PROBE_STEPS):
            np.matmul(x, w, out=xw)
            np.subtract(-b, xw, out=err)  # err = logistic(x w + b) - y, in place
            np.exp(err, out=err)
            err += 1.0
            np.divide(1.0, err, out=err)
            err -= y_float
            np.matmul(x.T, err, out=gw)
            gw /= n
            gw += PROBE_L2 * w
            w -= PROBE_LR * gw
            b -= PROBE_LR * (float(np.add.reduce(err)) / n)
    logits = x @ w + b
    accuracy = float(((logits >= 0).astype(int) == y).mean())
    return w, b, accuracy


def rfe(x: np.ndarray, y: np.ndarray, keep: int,
        feature_names: tuple[str, ...] | None = None) -> RfeReport:
    """Drop the smallest-|weight| feature per round until ``keep`` remain.

    Ties break toward the earlier column in the declared order. Inputs are
    standardized internally; labels must contain both classes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(int).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise LengthMismatchError(f"features {x.shape} vs {y.size} labels")
    n_features = x.shape[1]
    if keep < 1 or keep > n_features:
        raise TooFewFeaturesError(f"keep must be in [1, {n_features}], got {keep}")
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("labels are a single class")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(n_features))
    if len(feature_names) != n_features:
        raise LengthMismatchError(f"{len(feature_names)} names for {n_features} columns")

    xs = _standardize(x)
    overflowed = np.flatnonzero(np.isnan(xs).any(axis=0))
    if overflowed.size:
        raise NumericError(
            f"feature {feature_names[overflowed[0]]!r}: standardizing it overflows float64")
    remaining = list(range(n_features))
    eliminated = []
    accuracies = []
    while len(remaining) > keep:
        w, _, acc = fit_logistic_probe(xs[:, remaining], y)
        accuracies.append(acc)
        worst = int(np.argmin(np.abs(w)))  # argmin keeps the earliest column on ties
        eliminated.append(feature_names[remaining[worst]])
        del remaining[worst]
    _, _, final_acc = fit_logistic_probe(xs[:, remaining], y)
    accuracies.append(final_acc)
    return RfeReport(eliminated=tuple(eliminated),
                     survivors=tuple(feature_names[i] for i in remaining),
                     accuracies=tuple(accuracies))


def _finite(step: str, a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"randomized pca: {step} overflows float64")
    return a


def randomized_pca_fit(x: np.ndarray, k: int, oversample: int = 5,
                       seed: int = 0) -> PcaModel:
    """Top-k principal components via the seeded randomized range finder."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"need a 2-D matrix, got {x.shape}")
    n, m = x.shape
    if not 1 <= k <= min(n, m):
        raise RankTooHighError(f"k must be in [1, {min(n, m)}], got {k}")
    if oversample < 0:
        raise InvariantViolationError(f"oversample must be >= 0, got {oversample}")

    rng = np.random.default_rng(seed)
    width = min(k + oversample, m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked per step below
        means = x.mean(axis=0)
        xc = _finite("centering", x - means)
        total = float(_finite("variance", (xc * xc).sum()))
    # the power iteration cubes the data's scale, so the range finder runs on xc scaled
    # by a power of two to below 1, which leaves every bit of its basis q as it was
    xs = np.ldexp(xc, -np.frexp(np.abs(xc).max())[1])
    sketch = xs @ rng.standard_normal((m, width))
    q, _ = np.linalg.qr(xs @ (xs.T @ sketch))  # the power iteration sharpens the spectrum
    _, s, vt = np.linalg.svd(q.T @ xc, full_matrices=False)

    explained = (s[:k] ** 2 / total) if total > 0 else np.zeros(k)
    return PcaModel(components=vt[:k].copy(), means=means, explained=explained)


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.means.size:
        raise ShapeMismatchError(f"expected (rows, {model.means.size}), got {x.shape}")
    return (x - model.means) @ model.components.T


def pca_inverse_transform(model: PcaModel, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.components.shape[0]:
        raise ShapeMismatchError(
            f"expected (rows, {model.components.shape[0]}), got {z.shape}")
    return z @ model.components + model.means
