"""Independent reference implementations used only by the tests.

Most of these are plain index-by-index loops over Python floats,
recomputing each window from scratch, so agreement with the vectorized
library code is meaningful. Six are former library code, kept so the code
that replaced them can be held to them: ``oracle_frechet_dp`` (the row-by-row
Fréchet program), ``oracle_logistic_where`` (the two-branch logistic),
``oracle_pca_unscaled`` (the randomized PCA fit whose range finder ran on the
unscaled data), ``oracle_step`` (a recurrent cell's step built from autodiff ops, which
``nn.unroll`` fuses), ``oracle_teacher_forced_decode`` (the per-step
decoder loop over ``oracle_step``) and ``oracle_bilstm`` (a bidirectional
layer as two separate ``nn.unroll`` nodes and a merge built from autodiff
ops, which ``nn.BiLstmLayer`` steps in lockstep and fuses). The last three
build autodiff graphs from the cell's, layer's and model's own parameters.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from qgf import autodiff as ad, nn
from qgf.autodiff import Tensor


def _window(xs, i, n):
    return xs[i - n + 1: i + 1]


def oracle_stochastic_kd(highs, lows, closes, n, k0=50.0, d0=50.0):
    k_prev, d_prev = k0, d0
    ks, ds = [], []
    for i in range(len(closes)):
        if i < n - 1:
            ks.append(math.nan)
            ds.append(math.nan)
            continue
        hp = max(_window(highs, i, n))
        lp = min(_window(lows, i, n))
        frac = 50.0 if hp == lp else 100.0 * (closes[i] - lp) / (hp - lp)
        k_prev = (2.0 / 3.0) * k_prev + (1.0 / 3.0) * frac
        d_prev = (2.0 / 3.0) * d_prev + (1.0 / 3.0) * k_prev
        ks.append(k_prev)
        ds.append(d_prev)
    return ks, ds


def oracle_williams_r(highs, lows, closes, n):
    out = []
    for i in range(len(closes)):
        if i < n - 1:
            out.append(math.nan)
            continue
        hp = max(_window(highs, i, n))
        lp = min(_window(lows, i, n))
        out.append(0.5 if hp == lp else (hp - closes[i]) / (hp - lp))
    return out


def oracle_cci(highs, lows, closes, n, c=0.015):
    tps = [(h + l + cl) / 3.0 for h, l, cl in zip(highs, lows, closes)]
    out = []
    for i in range(len(closes)):
        if i < n - 1:
            out.append(math.nan)
            continue
        win = _window(tps, i, n)
        smatp = sum(win) / n
        md = sum(abs(tp - smatp) for tp in win) / n
        out.append(0.0 if md == 0 else (tps[i] - smatp) / (c * md))
    return out


def oracle_rsi(closes, n):
    out = []
    for i in range(len(closes)):
        if i < n:
            out.append(math.nan)
            continue
        gains = losses = 0.0
        for j in range(i - n + 1, i + 1):
            change = closes[j] - closes[j - 1]
            if change > 0:
                gains += change
            elif change < 0:
                losses += -change
        if losses == 0:
            out.append(100.0)
        elif gains == 0:
            out.append(0.0)
        else:
            out.append(100.0 - 100.0 / (1.0 + gains / losses))
    return out


def oracle_macd(highs, lows, closes):
    length = len(closes)
    di = [(h + l + 2.0 * cl) / 4.0 for h, l, cl in zip(highs, lows, closes)]
    ema12, ema26, dif, line = [di[0]], [di[0]], [0.0], [0.0]
    for i in range(1, length):
        ema12.append((11.0 / 13.0) * ema12[-1] + (2.0 / 13.0) * di[i])
        ema26.append((25.0 / 27.0) * ema26[-1] + (2.0 / 27.0) * di[i])
        dif.append(ema12[-1] - ema26[-1])
        line.append(0.8 * line[-1] + 0.2 * dif[-1])
    return {"DI": di, "EMA12": ema12, "EMA26": ema26, "DIF": dif, "MACD": line}


def oracle_ma(closes, n):
    return [math.nan if i < n - 1 else sum(_window(closes, i, n)) / n
            for i in range(len(closes))]


def oracle_mtm(closes, n):
    return [math.nan if i < n else 100.0 * (closes[i] - closes[i - n]) / closes[i - n]
            for i in range(len(closes))]


def oracle_psy(closes, n):
    out = []
    for i in range(len(closes)):
        if i < n:
            out.append(math.nan)
            continue
        ups = sum(1 for j in range(i - n + 1, i + 1) if closes[j] > closes[j - 1])
        out.append(100.0 * ups / n)
    return out


def oracle_ar(opens, highs, lows, n, cap=1e6):
    out = []
    for i in range(len(opens)):
        if i < n - 1:
            out.append(math.nan)
            continue
        num = sum(highs[j] - opens[j] for j in range(i - n + 1, i + 1))
        den = sum(opens[j] - lows[j] for j in range(i - n + 1, i + 1))
        out.append(cap if den == 0 else num / den)
    return out


def oracle_br(highs, lows, closes, n, cap=1e6):
    out = []
    for i in range(len(closes)):
        if i < n:
            out.append(math.nan)
            continue
        num = sum(highs[j] - closes[j - 1] for j in range(i - n + 1, i + 1))
        den = sum(closes[j - 1] - lows[j] for j in range(i - n + 1, i + 1))
        out.append(cap if den == 0 else num / den)
    return out


def oracle_vr(closes, volumes, n, cap=1e6, printed=True):
    out = []
    for i in range(len(closes)):
        if i < n:
            out.append(math.nan)
            continue
        tvu = tvd = tvf = 0.0
        for j in range(i - n + 1, i + 1):
            if closes[j] > closes[j - 1]:
                tvu += volumes[j]
            elif closes[j] < closes[j - 1]:
                tvd += volumes[j]
            else:
                tvf += volumes[j]
        half = tvf / 2.0
        num = tvu - half if printed else tvu + half
        den = tvd - half if printed else tvd + half
        out.append(cap if den <= 0 else 100.0 * num / den)
    return out


def oracle_ad(highs, lows, closes):
    out = [math.nan]
    for i in range(1, len(closes)):
        span = highs[i] - lows[i]
        out.append(0.5 if span == 0 else (highs[i] - closes[i - 1]) / span)
    return out


def oracle_bias5(closes):
    out = []
    for i in range(len(closes)):
        if i < 4:
            out.append(math.nan)
            continue
        ma5 = sum(_window(closes, i, 5)) / 5.0
        out.append((closes[i] - ma5) / ma5)
    return out


def oracle_all_indicators(series) -> dict[str, list[float]]:
    """Feature columns keyed by name, computed from plain float lists at the
    paper's lookbacks, seeds (K = D = 50), CCI constant (0.015), ratio cap (1e6)
    and printed VR convention."""
    opens, highs, lows = series.open.tolist(), series.high.tolist(), series.low.tolist()
    closes, volumes = series.close.tolist(), series.volume.tolist()
    k, d = oracle_stochastic_kd(highs, lows, closes, 9, 50.0, 50.0)
    rec = oracle_macd(highs, lows, closes)
    return {
        "K": k, "D": d,
        "WMS%R": oracle_williams_r(highs, lows, closes, 14),
        "CCI": oracle_cci(highs, lows, closes, 14, 0.015),
        "RSI": oracle_rsi(closes, 14),
        "MACD": rec["MACD"], "DIF": rec["DIF"],
        "MA10": oracle_ma(closes, 10),
        "MTM": oracle_mtm(closes, 10),
        "ROC": oracle_mtm(closes, 10),
        "PSY": oracle_psy(closes, 12),
        "AR": oracle_ar(opens, highs, lows, 26, 1e6),
        "BR": oracle_br(highs, lows, closes, 26, 1e6),
        "VR": oracle_vr(closes, volumes, 26, 1e6, printed=True),
        "AD": oracle_ad(highs, lows, closes),
        "BIAS5": oracle_bias5(closes),
    }


def oracle_frechet(p, q) -> float:
    """Memoized recursion straight from the coupling definition."""
    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    @functools.cache
    def rec(i, j):
        if i == 0 and j == 0:
            return dist(p[0], q[0])
        if i == 0:
            return max(rec(0, j - 1), dist(p[0], q[j]))
        if j == 0:
            return max(rec(i - 1, 0), dist(p[i], q[0]))
        return max(min(rec(i - 1, j), rec(i - 1, j - 1), rec(i, j - 1)), dist(p[i], q[j]))

    return rec(len(p) - 1, len(q) - 1)


def oracle_frechet_dp(p, q) -> float:
    """The row-by-row dynamic program over a full n x m distance matrix."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    if q.ndim == 1:
        q = q.reshape(-1, 1)
    dist = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    m = q.shape[0]
    prev = np.empty(m)
    prev[0] = dist[0, 0]
    for j in range(1, m):
        prev[j] = max(prev[j - 1], dist[0, j])
    cur = np.empty(m)
    for i in range(1, p.shape[0]):
        cur[0] = max(prev[0], dist[i, 0])
        for j in range(1, m):
            cur[j] = max(min(prev[j], prev[j - 1], cur[j - 1]), dist[i, j])
        prev, cur = cur, prev
    return float(prev[m - 1])


def enumerate_couplings(n: int, m: int):
    """All monotone couplings of point indices (0..n-1) x (0..m-1)."""
    def extend(path):
        i, j = path[-1]
        if i == n - 1 and j == m - 1:
            yield path
            return
        steps = []
        if i + 1 < n:
            steps.append((i + 1, j))
        if j + 1 < m:
            steps.append((i, j + 1))
        if i + 1 < n and j + 1 < m:
            steps.append((i + 1, j + 1))
        for step in steps:
            yield from extend(path + [step])

    yield from extend([(0, 0)])


def oracle_frechet_exhaustive(p, q) -> float:
    """min over every monotone coupling of the max pairwise distance."""
    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    best = math.inf
    for coupling in enumerate_couplings(len(p), len(q)):
        best = min(best, max(dist(p[i], q[j]) for i, j in coupling))
    return best


def oracle_windows(length: int, window_len: int, stride: int) -> list[tuple[int, int]]:
    """Every (start, end) with end - start == window_len, start on the stride grid."""
    out = []
    start = 0
    while start + window_len <= length:
        out.append((start, start + window_len))
        start += stride
    return out


def oracle_logistic_where(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from two branches; exp never sees a positive argument."""
    t = np.exp(-np.abs(x))
    d = 1.0 + t
    return np.where(x >= 0, 1.0 / d, t / d)


def oracle_pca_unscaled(x: np.ndarray, k: int, oversample: int = 5, seed: int = 0):
    """(components, means, explained) of the seeded randomized range finder, with its
    power iteration on the centered data as it is."""
    rng = np.random.default_rng(seed)
    width = min(k + max(oversample, 0), x.shape[1])
    means = x.mean(axis=0)
    xc = x - means
    sketch = xc @ rng.standard_normal((x.shape[1], width))
    q, _ = np.linalg.qr(xc @ (xc.T @ sketch))
    _, s, vt = np.linalg.svd(q.T @ xc, full_matrices=False)
    total = float((xc * xc).sum())
    return vt[:k], means, (s[:k] ** 2 / total) if total > 0 else np.zeros(k)


def oracle_zero_state(cell, batch: int) -> tuple[Tensor, ...]:
    """Zero (h,) for an RNNCell, zero (h, c) for an LSTMCell."""
    count = 2 if isinstance(cell, nn.LSTMCell) else 1
    return tuple(Tensor(np.zeros((batch, cell.hidden))) for _ in range(count))


def oracle_step(cell, x_t: Tensor, state: tuple[Tensor, ...]) -> tuple[Tensor, ...]:
    """One step of an RNNCell (state (h,)) or an LSTMCell (state (h, c)) built
    from autodiff ops on the cell's w_x, w_h and b."""
    z = ad.add(ad.add(ad.matmul(x_t, cell.w_x), ad.matmul(state[0], cell.w_h)), cell.b)
    if not isinstance(cell, nn.LSTMCell):
        return (ad.tanh(z),)
    c_prev = state[1]
    h = cell.hidden
    i_gate = ad.sigmoid(ad.narrow(z, 1, 0, h))
    f_gate = ad.sigmoid(ad.narrow(z, 1, h, h))
    g_cand = ad.tanh(ad.narrow(z, 1, 2 * h, h))
    o_gate = ad.sigmoid(ad.narrow(z, 1, 3 * h, h))
    c_new = ad.add(ad.mul(f_gate, c_prev), ad.mul(i_gate, g_cand))
    h_new = ad.mul(o_gate, ad.tanh(c_new))
    return h_new, c_new


def oracle_teacher_forced_decode(model, latent: Tensor, teacher: Tensor) -> Tensor:
    """A RecurrentAutoencoder's teacher-forced decode, one ``oracle_step`` and emit per step."""
    batch, steps = teacher.shape
    h0 = ad.tanh(model.from_latent(latent))
    state = (h0,) + oracle_zero_state(model.decoder, batch)[1:]
    prev = Tensor(np.zeros((batch, 1)))
    outputs = []
    for t in range(steps):
        if t > 0:
            prev = ad.reshape(ad.select(teacher, 1, t - 1), (batch, 1))
        state = oracle_step(model.decoder, prev, state)
        outputs.append(model.emit(state[0]))
    return ad.reshape(ad.concat(outputs, axis=1), (batch, steps))


def oracle_bilstm(layer, seq: Tensor) -> Tensor:
    """A BiLstmLayer's output as ten autodiff nodes: one ``nn.unroll`` per direction
    and a tanh merge built from autodiff ops."""
    fwd_h = nn.unroll(layer.fwd, seq)
    bwd_h = nn.unroll(layer.bwd, seq, reverse=True)
    batch, steps, hidden = fwd_h.shape
    rows = (batch * steps, hidden)
    merged = ad.add(ad.add(ad.matmul(ad.reshape(fwd_h, rows), layer.w_f),
                           ad.matmul(ad.reshape(bwd_h, rows), layer.w_b)), layer.b_o)
    return ad.reshape(ad.tanh(merged), (batch, steps, layer.w_f.shape[1]))
