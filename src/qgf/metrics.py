"""Evaluation measures: classification rates, correlation, and curve distances.

Division-by-zero cases in the classification rates are reported as explicit
undefined flags rather than silent zeros, so result tables cannot hide them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    InvariantViolationError,
    LengthMismatchError,
    PairingMismatchError,
    ZeroReferenceError,
    ZeroVarianceError,
)


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise InvariantViolationError("confusion counts must be nonnegative")

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionCounts":
        y_true = np.asarray(y_true).astype(int)
        y_pred = np.asarray(y_pred).astype(int)
        if y_true.shape != y_pred.shape:
            raise LengthMismatchError(f"{y_true.shape} vs {y_pred.shape}")
        return cls(tp=int(((y_true == 1) & (y_pred == 1)).sum()),
                   fp=int(((y_true == 0) & (y_pred == 1)).sum()),
                   tn=int(((y_true == 0) & (y_pred == 0)).sum()),
                   fn=int(((y_true == 1) & (y_pred == 0)).sum()))


@dataclass(frozen=True, slots=True)
class ClassificationRates:
    """Precision, recall, F1; None where the defining ratio has no denominator."""

    precision: float | None
    recall: float | None
    f1: float | None
    undefined: tuple[str, ...]


def precision_recall_f1(c: ConfusionCounts) -> ClassificationRates:
    """TP/(TP+FP), TP/(TP+FN), and their harmonic mean (0 when P+R = 0)."""
    undefined = []
    precision = recall = None
    if c.tp + c.fp > 0:
        precision = c.tp / (c.tp + c.fp)
    else:
        undefined.append("precision")
    if c.tp + c.fn > 0:
        recall = c.tp / (c.tp + c.fn)
    else:
        undefined.append("recall")
    if precision is None or recall is None:
        undefined.append("f1")
        f1 = None
    else:
        f1 = f1_score(precision, recall)
    return ClassificationRates(precision, recall, f1, tuple(undefined))


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation, computed mean-centered for stability."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise LengthMismatchError(f"{x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatchError("correlation needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = (xc * xc).sum()
    syy = (yc * yc).sum()
    if sxx == 0 or syy == 0:
        raise ZeroVarianceError("correlation undefined for a constant sequence")
    return float((xc * yc).sum() / np.sqrt(sxx * syy))


def prd(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Percent root-mean-square difference: 100 * sqrt(sum((x-x̂)²)/sum(x²))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x_hat = np.asarray(x_hat, dtype=np.float64).ravel()
    if x.size != x_hat.size:
        raise LengthMismatchError(f"{x.size} vs {x_hat.size}")
    denom = float((x * x).sum())
    if denom == 0:
        raise ZeroReferenceError("reference sequence is identically zero")
    return float(100.0 * np.sqrt(((x - x_hat) ** 2).sum() / denom))


def rmse(x: np.ndarray, x_hat: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    x_hat = np.asarray(x_hat, dtype=np.float64).ravel()
    if x.size != x_hat.size:
        raise LengthMismatchError(f"{x.size} vs {x_hat.size}")
    return float(np.sqrt(((x - x_hat) ** 2).mean()))


def _as_curve(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"a curve must be (points, dim), got {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptySequenceError("empty curve")
    return arr


def _frechet_wavefront(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Discrete Fréchet distances of B curve pairs, p (n, B, d) against q (m, B, d).

    The Eiter & Mannila dynamic program, swept over the anti-diagonals
    k = i + j: cell (i, j) needs only diagonals k-1 and k-2, so each
    diagonal is one vectorized step across all B pairs (n+m-1 in all) and
    memory is O(B n). Diagonal values live in three rotating (n+1, B)
    buffers indexed by i + 1; slot 0 and every slot a diagonal never reaches
    hold inf, so out-of-range neighbours drop out of the min. The point
    index leads, so each diagonal's slices are contiguous.
    """
    n, m = p.shape[0], q.shape[0]
    q_rev = q[::-1]
    prev2, prev1, cur = np.full((3, n + 1, p.shape[1]), np.inf)
    prev1[1:2] = np.linalg.norm(p[:1] - q[:1], axis=2)
    for k in range(1, n + m - 1):
        lo, hi = max(0, k - m + 1), min(n - 1, k)
        # row i pairs with column k - i, i.e. q_rev[m - 1 - k + i]
        d = np.linalg.norm(p[lo:hi + 1] - q_rev[m - 1 - k + lo:m - k + hi], axis=2)
        out = cur[lo + 1:hi + 2]
        np.minimum(prev1[lo:hi + 1], prev1[lo + 1:hi + 2], out=out)   # up, left
        np.minimum(out, prev2[lo:hi + 1], out=out)                     # diagonal
        np.maximum(out, d, out=out)
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[n]


def frechet_distance(p, q) -> float:
    """Discrete Fréchet distance: min over monotone couplings of the max
    pointwise Euclidean distance, as a batch of one pair."""
    p = _as_curve(p)
    q = _as_curve(q)
    if p.shape[1] != q.shape[1]:
        raise DimensionMismatchError(f"point dimensions differ: {p.shape[1]} vs {q.shape[1]}")
    return float(_frechet_wavefront(p[:, None], q[:, None])[0])


@dataclass(frozen=True)
class MetricsReport:
    """Comparison outcome: metric values, what was compared, and how."""

    real_id: str
    generated_id: str
    pairing: str
    metrics: dict[str, float]
    undefined_flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name, value in self.metrics.items():
            if not np.isfinite(value):
                raise InvariantViolationError(f"metric {name} is not finite")

    def to_json(self) -> str:
        payload = {
            "real": self.real_id,
            "generated": self.generated_id,
            "pairing": self.pairing,
            **{k: self.metrics[k] for k in sorted(self.metrics)},
            "undefined_flags": list(self.undefined_flags),
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _paired_frechet(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Fréchet distance of each equal-length 1-D pair, in pair order: one wavefront
    per distinct length."""
    by_length: dict[int, list[int]] = {}
    for i, (a, _) in enumerate(pairs):
        by_length.setdefault(a.size, []).append(i)
    distances = np.empty(len(pairs))
    for rows in by_length.values():
        real = np.stack([pairs[i][0] for i in rows], axis=1)[:, :, None]
        gen = np.stack([pairs[i][1] for i in rows], axis=1)[:, :, None]
        distances[rows] = _frechet_wavefront(real, gen)
    return distances


def compare_sequences(real: list[np.ndarray], generated: list[np.ndarray],
                      pairing: str = "paired", real_id: str = "real",
                      generated_id: str = "generated") -> MetricsReport:
    """Mean PRD/RMSE over index-paired sequences plus a Fréchet distance.

    ``pairing`` controls the curve comparison: "paired" averages the
    distance over pairs, "concatenated" joins each side end to end and
    compares the two long curves. PRD and RMSE are always index-paired.
    """
    if pairing not in ("paired", "concatenated"):
        raise PairingMismatchError(f"unknown pairing mode {pairing!r}")
    if len(real) == 0 or len(generated) == 0:
        raise EmptySequenceError("nothing to compare")
    if len(real) != len(generated):
        raise PairingMismatchError(f"{len(real)} real vs {len(generated)} generated sequences")
    pairs = [(np.asarray(a, dtype=np.float64).ravel(), np.asarray(b, dtype=np.float64).ravel())
             for a, b in zip(real, generated)]
    for a, b in pairs:
        if a.size != b.size:
            raise PairingMismatchError(f"paired lengths differ: {a.size} vs {b.size}")
        if a.size == 0:
            raise EmptySequenceError("empty curve")

    undefined = []
    metrics: dict[str, float] = {}
    # values near the float64 limit overflow a metric to inf or nan, which the report refuses
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            metrics["prd"] = float(np.mean([prd(a, b) for a, b in pairs]))
        except ZeroReferenceError:
            undefined.append("prd")
        metrics["rmse"] = float(np.mean([rmse(a, b) for a, b in pairs]))
        flat_real = np.concatenate([a for a, _ in pairs])
        flat_gen = np.concatenate([b for _, b in pairs])
        if pairing == "paired":
            metrics["frechet"] = float(np.mean(_paired_frechet(pairs)))
        else:
            metrics["frechet"] = frechet_distance(flat_real, flat_gen)
        try:
            metrics["pearson_r"] = pearson_r(flat_real, flat_gen)
        except (ZeroVarianceError, LengthMismatchError):
            undefined.append("pearson_r")
    return MetricsReport(real_id=real_id, generated_id=generated_id, pairing=pairing,
                         metrics=metrics, undefined_flags=tuple(undefined))
