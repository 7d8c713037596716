"""Neural building blocks on top of the autodiff core.

Dense projection, tanh RNN and gated LSTM cells with ``unroll``, the fused
op that steps either over a sequence, a bidirectional layer whose two LSTMs
step in lockstep, 1-D convolution and max pooling, inverted dropout, stable
softmax, Adam, the seeded minibatch loop both trainers run (``fit``), and
the finite-difference gradient checker used by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    EmptySequenceError,
    FilterLargerThanInputError,
    InvalidProbabilityError,
    NonFiniteLossError,
    ShapeMismatchError,
)


# --- parameters ---------------------------------------------------------------

class ParamSet:
    """Named trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._params):
            missing = set(self._params) - set(arrays)
            extra = set(arrays) - set(self._params)
            raise ShapeMismatchError(f"parameter names differ: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in arrays.items():
            target = self._params[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != target.shape:
                raise ShapeMismatchError(f"parameter {name}: expected {target.shape}, got {arr.shape}")
            target.data = arr.copy()


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
    """Uniform init with limit sqrt(6 / (fan_in + fan_out))."""
    if fan_in is None or fan_out is None:
        if len(shape) == 2:
            fan_in, fan_out = shape
        elif len(shape) == 3:  # conv filters (out_channels, in_channels, width)
            fan_in = shape[1] * shape[2]
            fan_out = shape[0] * shape[2]
        else:
            fan_in = fan_out = int(np.prod(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# --- layer geometry -------------------------------------------------------------

@dataclass(frozen=True)
class LayerGeometry:
    """1-D convolution/pooling geometry: input width, filter, stride, padding."""

    width: int
    filter_size: int
    stride: int
    padding: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.filter_size > self.width + 2 * self.padding:
            raise FilterLargerThanInputError(
                f"filter {self.filter_size} exceeds padded input {self.width + 2 * self.padding}")


def conv_out_size(geom: LayerGeometry) -> int:
    """floor((W + 2P - F) / S) + 1; pooling uses P = 0."""
    return (geom.width + 2 * geom.padding - geom.filter_size) // geom.stride + 1


# --- layers ---------------------------------------------------------------------

class Dense:
    def __init__(self, pset: ParamSet, name: str, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.w = pset.add(f"{name}.w", xavier_uniform(rng, (n_in, n_out)))
        self.b = pset.add(f"{name}.b", np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.n_in:
            raise ShapeMismatchError(f"dense expects width {self.n_in}, got {x.shape}")
        return ad.add(ad.matmul(x, self.w), self.b)


class RNNCell:
    """Minimal recurrent cell: h = tanh(x W_x + h W_h + b), stepped by ``unroll``."""

    def __init__(self, pset: ParamSet, name: str, n_in: int, hidden: int, rng: np.random.Generator):
        self.n_in = n_in
        self.hidden = hidden
        self.w_x = pset.add(f"{name}.w_x", xavier_uniform(rng, (n_in, hidden)))
        self.w_h = pset.add(f"{name}.w_h", xavier_uniform(rng, (hidden, hidden)))
        self.b = pset.add(f"{name}.b", np.zeros(hidden))

    # pointwise part of one step on raw (directions, batch, ...) arrays, for the fused
    # recurrence; z is a fresh array per step and its buffer is reused for the result
    @staticmethod
    def _activate(z: np.ndarray, carry):
        h = np.tanh(z, out=z)
        return h, carry, h

    @staticmethod
    def _activate_backward(dh: np.ndarray, dcarry, saved):
        return dh * (1.0 - saved * saved), dcarry


class LSTMCell:
    """Gated recurrent cell: input, forget, and output gates plus a candidate.

    Weights are packed as (n_in, 4*hidden) / (hidden, 4*hidden) with gate
    order i, f, g, o. ``unroll`` steps it, carrying the cell state c.
    """

    def __init__(self, pset: ParamSet, name: str, n_in: int, hidden: int, rng: np.random.Generator):
        self.n_in = n_in
        self.hidden = hidden
        self.w_x = pset.add(f"{name}.w_x", xavier_uniform(rng, (n_in, 4 * hidden)))
        self.w_h = pset.add(f"{name}.w_h", xavier_uniform(rng, (hidden, 4 * hidden)))
        self.b = pset.add(f"{name}.b", np.zeros(4 * hidden))

    # pointwise part of one step on raw (directions, batch, ...) arrays, for the fused
    # recurrence, which ignores overflow in exp; carry is c. The gates are kept gate-major,
    # (4, directions, batch, hidden), so every block the elementwise ops touch is contiguous
    @staticmethod
    def _activate(z: np.ndarray, c_prev):
        dirs, batch, h = z.shape[0], z.shape[1], z.shape[2] // 4
        gates = z.reshape(dirs, batch, 4, h).transpose(2, 0, 1, 3).copy()
        # a logistic over every block is cheaper than over the i, f and o blocks
        # alone, and the g block is then overwritten with its tanh
        i, f, g, o = ad._logistic(gates, out=gates)
        np.tanh(z[..., 2 * h:3 * h], out=g)
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        return o * tanh_c, c, (gates, c_prev, tanh_c)

    @staticmethod
    def _activate_backward(dh: np.ndarray, dc, saved):
        gates, c_prev, tanh_c = saved
        i, f, g, o = gates
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        # the i, f and o slots are ((a * b) * s) * (1 - s) for their gate s, scaled by s and
        # 1 - s block-wide; the g slot holds dc * i until then, so no op reads np.empty garbage
        dz = np.empty_like(gates)
        np.multiply(dc, g, out=dz[0])
        np.multiply(dc, c_prev, out=dz[1])
        dg = np.multiply(dc, i, out=dz[2]) * (1.0 - g * g)
        np.multiply(dh, tanh_c, out=dz[3])
        dz *= gates
        dz *= 1.0 - gates
        dz[2] = dg
        return dz.transpose(1, 2, 0, 3).reshape(dh.shape[0], dh.shape[1], -1), dc * f


def _recur(cells: tuple, seq: Tensor, reverse: tuple[bool, ...], h0: Tensor | None = None):
    """Step ``cells`` (one per direction, all of one kind and size; ``h0`` needs one
    direction) over ``seq`` in lockstep, direction d backwards in time if ``reverse[d]``.
    Returns ``(hs, parents, bptt)``: hs is (directions, batch, time, hidden) in step
    order, and ``bptt(g)`` backpropagates g, laid out as hs. Weight gradients sum latest
    step first and reach each parameter once, at the end: a parameter used twice in one
    graph sums in another order than a chain of per-step ops would."""
    cell = cells[0]
    if seq.data.ndim != 3 or seq.shape[2] != cell.n_in:
        raise ShapeMismatchError(
            f"unroll expects (batch, time, {cell.n_in}), got {seq.shape}")
    batch, steps, n_in = seq.shape
    if steps == 0:
        raise EmptySequenceError("unroll got an empty sequence")
    if h0 is not None and h0.shape != (batch, cell.hidden):
        raise ShapeMismatchError(f"unroll h0 must be {(batch, cell.hidden)}, got {h0.shape}")
    parents = (seq, *[w for c in cells for w in (c.w_x, c.w_h, c.b)])
    parents += () if h0 is None else (h0,)
    track = ad.is_tracking(*parents)
    order = [slice(None, None, -1 if back else 1) for back in reverse]  # step k -> time
    rows = seq.data.reshape(batch * steps, n_in)
    xws = [(rows @ c.w_x.data).reshape(batch, steps, -1)[:, o] for c, o in zip(cells, order)]
    w_x = np.stack([c.w_x.data for c in cells])
    w_h = np.stack([c.w_h.data for c in cells])
    b = np.repeat(np.stack([c.b.data for c in cells])[:, None], batch, axis=1)  # same-shape add
    hs = np.empty((len(cells), batch, steps, cell.hidden))
    h_first = np.zeros((len(cells), batch, cell.hidden)) if h0 is None else h0.data[None]
    h, carry, saved = h_first, 0.0, []
    with np.errstate(over="ignore"):  # a gate's exp(-z) is inf below z = -709, the gate 0
        for k in range(steps):
            z = np.matmul(h, w_h)
            for d, xw in enumerate(xws):
                z[d] += xw[:, k]
            z += b
            h, carry, keep = cell._activate(z, carry)
            hs[:, :, k] = h
            if track:
                saved.append(keep)

    def bptt(g):
        times = np.stack([np.arange(steps)[o] for o in order])
        seq_t = np.ascontiguousarray(seq.data).transpose(1, 0, 2)
        dx = np.empty((len(cells), batch, steps, n_in)) if seq.requires_grad else None
        dh, dcarry = 0.0, 0.0
        for k in range(steps - 1, -1, -1):
            dz, dcarry = cell._activate_backward(g[:, :, k] + dh, dcarry, saved[k])
            h_prev = hs[:, :, k - 1] if k else h_first
            terms = (np.matmul(seq_t[times[:, k]].transpose(0, 2, 1), dz),
                     np.matmul(h_prev.transpose(0, 2, 1), dz), dz.sum(axis=1))
            sums = terms if k == steps - 1 else [np.add(s, t, out=s) for s, t in zip(sums, terms)]
            if dx is not None:
                dx[:, :, k] = np.matmul(dz, w_x.transpose(0, 2, 1))
            dh = np.matmul(dz, w_h.transpose(0, 2, 1))
        for d, c in enumerate(cells):
            for w, total in zip((c.w_x, c.w_h, c.b), sums):
                ad._accumulate(w, total[d])
            if dx is not None:
                ad._accumulate(seq, dx[d][:, order[d]])
        if h0 is not None:
            ad._accumulate(h0, dh[0])

    return hs, parents, bptt


def unroll(cell: RNNCell | LSTMCell, seq: Tensor, reverse: bool = False,
           h0: Tensor | None = None) -> Tensor:
    """Step ``cell`` over ``seq`` (batch, time, features) from its zero state.

    Returns h for every step as one (batch, time, hidden) tensor in time
    order; ``reverse`` walks time backwards. ``h0`` (batch, hidden), if given,
    replaces the zero initial h (an LSTM's c still starts at zero). The whole
    recurrence is one graph node: the input projection of all steps is a
    single GEMM, the time loop steps only ``h @ w_h`` and the cell's gates,
    and backward is hand-written backpropagation through time over the gates
    and cell states saved per step (nothing is saved under ``ad.no_grad()``).
    Values and gradients are those of the same step built from autodiff ops
    and chained from that state.
    """
    hs, parents, bptt = _recur((cell,), seq, (reverse,), h0)
    o = slice(None, None, -1 if reverse else 1)
    return ad._make(np.ascontiguousarray(hs[0][:, o]), parents, lambda g: bptt(g[None][:, :, o]))


class BiLstmLayer:
    """One forward and one backward LSTM pass, merged per step by a tanh projection.

    Both directions start from zero states and step in lockstep through one
    recurrence node; the per-step output is tanh(h_fwd W_f + h_bwd W_b + b) with
    independent parameters per direction, computed for all steps at once by a
    second node that saves only its output.
    """

    def __init__(self, pset: ParamSet, name: str, n_in: int, hidden: int, n_out: int,
                 rng: np.random.Generator):
        self.fwd = LSTMCell(pset, f"{name}.fwd", n_in, hidden, rng)
        self.bwd = LSTMCell(pset, f"{name}.bwd", n_in, hidden, rng)
        self.w_f = pset.add(f"{name}.merge.w_fwd", xavier_uniform(rng, (hidden, n_out)))
        self.w_b = pset.add(f"{name}.merge.w_bwd", xavier_uniform(rng, (hidden, n_out)))
        self.b_o = pset.add(f"{name}.merge.b", np.zeros(n_out))

    def __call__(self, seq: Tensor) -> Tensor:
        hs, parents, bptt = _recur((self.fwd, self.bwd), seq, (False, True))
        rec = ad._make(hs, parents, bptt)

        def time_rows():  # each direction's h in time order, as (batch * time, hidden)
            return hs[0].reshape(-1, hs.shape[3]), hs[1, :, ::-1].reshape(-1, hs.shape[3])

        h_f, h_b = time_rows()
        out = h_f @ self.w_f.data
        out += h_b @ self.w_b.data
        out += self.b_o.data
        np.tanh(out, out=out)

        def bwd(g):
            dm = g.reshape(out.shape) * (1.0 - out * out)
            h_f, h_b = time_rows()
            ad._accumulate(self.w_f, h_f.T @ dm)
            ad._accumulate(self.w_b, h_b.T @ dm)
            ad._accumulate(self.b_o, dm.sum(axis=0))
            dh_f, dh_b = ((dm @ w.data.T).reshape(hs.shape[1:]) for w in (self.w_f, self.w_b))
            ad._accumulate(rec, np.stack([dh_f, dh_b[:, ::-1]]))

        return ad._make(out.reshape(*hs.shape[1:3], -1), (rec, self.w_f, self.w_b, self.b_o), bwd)


# --- convolution and pooling -----------------------------------------------------

def conv1d(x: Tensor, filters: Tensor, bias: Tensor, stride: int, padding: int = 0) -> Tensor:
    """1-D convolution: x (B, C, L), filters (M, C, F) -> (B, M, L_out)."""
    x = ad.as_tensor(x)
    if x.data.ndim != 3 or filters.data.ndim != 3:
        raise ShapeMismatchError(f"conv1d expects 3-D x and filters, got {x.shape}, {filters.shape}")
    if x.shape[1] != filters.shape[1]:
        raise ShapeMismatchError(f"channel mismatch: input {x.shape[1]}, filters {filters.shape[1]}")
    length = x.shape[2]
    fsize = filters.shape[2]
    geom = LayerGeometry(length, fsize, stride, padding)
    l_out = conv_out_size(geom)

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, fsize, axis=2)[:, :, ::stride, :]
    out_data = np.einsum("bclf,mcf->bml", windows, filters.data) + bias.data[None, :, None]

    def bwd(g):
        ad._accumulate(filters, np.einsum("bml,bclf->mcf", g, windows))
        ad._accumulate(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            gx = np.zeros_like(xp)
            for f in range(fsize):
                gx[:, :, f:f + stride * l_out:stride] += np.einsum("bml,mc->bcl", g, filters.data[:, :, f])
            if padding:
                gx = gx[:, :, padding:padding + length]
            ad._accumulate(x, gx)

    return ad._make(out_data, (x, filters, bias), bwd)


def maxpool1d(x: Tensor, window: int, stride: int) -> Tensor:
    """Windowed maxima over the last axis of x (B, C, L)."""
    x = ad.as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"maxpool1d expects (batch, channels, length), got {x.shape}")
    length = x.shape[2]
    geom = LayerGeometry(length, window, stride)  # pooling uses zero padding
    l_out = conv_out_size(geom)

    views = np.lib.stride_tricks.sliding_window_view(x.data, window, axis=2)[:, :, ::stride, :]
    argmax = views.argmax(axis=3)
    out_data = np.take_along_axis(views, argmax[..., None], axis=3)[..., 0]

    def bwd(g):
        gx = np.zeros_like(x.data)
        b_idx, c_idx, j_idx = np.indices(argmax.shape)
        positions = j_idx * stride + argmax
        np.add.at(gx, (b_idx, c_idx, positions), g)
        ad._accumulate(x, gx)

    return ad._make(out_data, (x,), bwd)


# --- stochastic and normalizing ops ------------------------------------------------

def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not (0.0 <= p < 1.0):
        raise InvalidProbabilityError(f"dropout probability must be in [0, 1), got {p}")
    x = ad.as_tensor(x)
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def bwd(g):
        ad._accumulate(x, g * mask)

    return ad._make(out_data, (x,), bwd)


def softmax(z: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``."""
    z = ad.as_tensor(z)
    shifted = z.data - z.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        ad._accumulate(z, (g - dot) * out_data)

    return ad._make(out_data, (z,), bwd)


def mse_half(y: Tensor, x: Tensor) -> Tensor:
    """Mean squared difference halved; the unit-variance Gaussian fit term."""
    y, x = ad.as_tensor(y), ad.as_tensor(x)
    if y.shape != x.shape:
        raise ShapeMismatchError(f"mse over unequal shapes {y.shape} vs {x.shape}")
    return ad.mul(ad.mean(ad.power(ad.sub(y, x), 2.0)), 0.5)


# --- optimizer -----------------------------------------------------------------------

def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update; pure function of inputs and state."""
    if t < 1:
        raise ValueError("adam step count starts at 1")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class Adam:
    """Adam(0.9, 0.999, 1e-8) over a ParamSet; state keyed by parameter name."""

    def __init__(self, pset: ParamSet, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.pset = pset
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(t.data) for name, t in pset.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in pset.items()}

    def step(self) -> None:
        self.t += 1
        for name, param in self.pset.items():
            grad = param.grad
            if grad is None:
                grad = np.zeros_like(param.data)
            param.data, self._m[name], self._v[name] = adam_step(
                param.data, grad, self._m[name], self._v[name],
                self.t, self.lr, self.beta1, self.beta2, self.eps)

    def minimize(self, loss: Tensor) -> float:
        """Clear this optimizer's gradients, backpropagate ``loss``, take one step."""
        self.pset.zero_grad()
        ad.backward(loss)
        self.step()
        return loss.item()


# --- training loop ---------------------------------------------------------------------

def seeded_streams(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators spawned from ``seed``, in spawn order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def fit(data: np.ndarray, epochs: int, batch_size: int, batch_rng: np.random.Generator,
        iteration: Callable[[Callable[[], Tensor]], dict[str, float]]) -> dict[str, np.ndarray]:
    """Run ``epochs`` calls of ``iteration`` and return one loss history per name.

    ``iteration(sample)`` makes one iteration's updates and returns its losses
    by name; each ``sample()`` draws min(batch_size, N) distinct rows of
    ``data`` with ``batch_rng``. The first non-finite loss raises
    NonFiniteLossError with that iteration's index.
    """
    n = data.shape[0]
    size = min(batch_size, n)

    def sample() -> Tensor:
        return Tensor(data[batch_rng.choice(n, size=size, replace=False)])

    history: dict[str, np.ndarray] = {}
    for it in range(epochs):
        losses = iteration(sample)
        if not all(np.isfinite(v) for v in losses.values()):
            raise NonFiniteLossError(it)
        for name, value in losses.items():
            history.setdefault(name, np.empty(epochs))[it] = value
    return history


# --- gradient checking -----------------------------------------------------------------

def finite_difference_gradients(loss_fn: Callable[[], float], pset: ParamSet,
                                eps: float = 1e-5,
                                names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn`` w.r.t. each parameter entry.

    ``loss_fn`` must rebuild the forward pass from the ParamSet's current
    data on every call (any randomness inside must be replayed identically).
    Probes run under ``ad.no_grad()``, so no graph is recorded: ``loss_fn``
    must return a float and must not call ``ad.backward``.
    """
    out = {}
    with ad.no_grad():
        for name in (names if names is not None else pset.names()):
            param = pset[name]
            grad = np.zeros_like(param.data)
            flat = param.data.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                up = loss_fn()
                flat[i] = original - eps
                down = loss_fn()
                flat[i] = original
                gflat[i] = (up - down) / (2.0 * eps)
            out[name] = grad
    return out


def check_gradients(build_loss: Callable[[], Tensor], pset: ParamSet,
                    eps: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences."""
    pset.zero_grad()
    loss = build_loss()
    ad.backward(loss)
    analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in pset.items()}
    numeric = finite_difference_gradients(lambda: build_loss().item(), pset, eps=eps)
    return max(relative_error(analytic[name], numeric[name]) for name in pset.names())


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """||a - n|| / max(||a||, ||n||, 1e-12): the gradient checks' error measure."""
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)
