"""Neural building blocks on top of the autodiff core.

Dense projection, tanh RNN and gated LSTM cells with ``unroll``, the fused
op that steps either over a sequence, a bidirectional layer whose two LSTMs
step in lockstep or, at paper width, on a thread each, 1-D convolution and max
pooling, inverted dropout, stable
softmax, Adam, the seeded minibatch loop both trainers run (``fit``), and
the finite-difference gradient checker used by the verification suite.
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import threading
from typing import Callable

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


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init with limit sqrt(6 / (fan_in + fan_out)): a (n_in, n_out) matrix, or
    conv filters (out_channels, in_channels, width) with both fans scaled by the width."""
    if len(shape) == 3:
        fan_in, fan_out = shape[1] * shape[2], shape[0] * shape[2]
    else:
        fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def conv_out_size(width: int, size: int, stride: int) -> int:
    """floor((W - F) / S) + 1: the positions of an F-wide window stepping S over W."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if size > width:
        raise FilterLargerThanInputError(f"filter {size} exceeds input {width}")
    return (width - size) // stride + 1


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

    _tape_slots, _carries = 0, False  # BPTT reads each step's h back from the recurrence's output

    # pointwise part of one step on raw (directions, batch, ...) arrays, for the fused
    # recurrence; z is a fresh array per step and its buffer is reused for the result
    @staticmethod
    def _activate(z: np.ndarray, gates, c_prev, c, tanh_c) -> np.ndarray:
        return np.tanh(z, out=z)

    @staticmethod
    def _activate_backward(dh: np.ndarray, dc, gates, cs, h: np.ndarray):
        return dh * (1.0 - h * h), dc


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

    _tape_slots, _carries = 4, True  # gates i, f, g, o; c is taped beside them

    # pointwise part of one step on raw (directions, batch, ...) arrays, for the fused
    # recurrence, which ignores overflow in exp: writes the gates gate-major, (4, directions,
    # batch, hidden), so every block the elementwise ops touch is contiguous, and steps c_prev
    # into c (the same array when nothing is taped)
    @staticmethod
    def _activate(z: np.ndarray, gates, c_prev, c, tanh_c) -> np.ndarray:
        h = gates.shape[3]
        # a logistic over every block is cheaper than over the i, f and o blocks
        # alone, and the g block is then overwritten with its tanh
        i, f, g, o = ad._logistic(z.reshape(z.shape[0], z.shape[1], 4, h).transpose(2, 0, 1, 3),
                                  out=gates)
        np.tanh(z[..., 2 * h:3 * h], out=g)
        np.multiply(f, c_prev, out=c)
        c += i * g
        return o * np.tanh(c, out=tanh_c)

    @staticmethod
    def _activate_backward(dh: np.ndarray, dc, gates, cs, h: np.ndarray):
        i, f, g, o = gates  # cs[0] is c before the step, cs[1] c after it
        tanh_c = np.tanh(cs[1], out=cs[1])  # the next step's backward has read c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        # the i, f and o slots are ((a * b) * s) * (1 - s) for their gate s, scaled by s and
        # 1 - s block-wide; the g slot holds dc * i until then, so no op reads np.empty garbage
        dz = np.empty_like(gates)
        np.multiply(dc, g, out=dz[0])
        np.multiply(dc, cs[0], out=dz[1])
        dg = np.multiply(dc, i, out=dz[2]) * (1.0 - g * g)
        np.multiply(dh, tanh_c, out=dz[3])
        dz *= gates
        dz *= 1.0 - gates
        dz[2] = dg
        return dz.transpose(1, 2, 0, 3).reshape(dh.shape[0], dh.shape[1], -1), dc * f


SEGMENT = 64  # most steps per input GEMM and per gate tape of a tracked LSTM


def _blas_threads(cpus: int) -> int:
    """The threads an OpenBLAS starts, from the variables it reads as numpy loads it, in its
    order; without them it starts one per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# least batch * hidden at which each direction of a BiLSTM steps on its own thread: narrower,
# the GIL hand-offs between two threads' short numpy calls cost more than the second core
# gives. None unless the CPUs hold both directions' threads times BLAS's: more threads than
# CPUs contend, and the threaded schedule runs slower than the lockstep one.
THREADED = 2160 if 2 * _blas_threads(_CPUS) <= _CPUS else sys.maxsize


def blocks(total: int, most: int) -> list[tuple[int, int]]:
    """The fewest ``(first, length)`` blocks of at most ``most`` that cover ``range(total)``,
    lengths within one of each other: none is one row (a GEMV) unless ``total`` is one."""
    if total > most < 3:
        raise ValueError(f"blocks of at most {most} < 3 may leave one row of {total}")
    count = -(-total // most)
    edges = [k * total // count for k in range(count + 1)]
    return [(first, stop - first) for first, stop in zip(edges, edges[1:])]


def _on_threads(*tasks: Callable) -> list:
    """Run each task on its own thread, the first on the caller's, and return their results
    once all have ended. A worker starts in a copy of the caller's context (numpy's errstate
    is context-local), and the first task's exception, in task order, is re-raised here."""
    if len(tasks) == 1:
        return [tasks[0]()]
    results, errors = [None] * len(tasks), [None] * len(tasks)

    def work(i):
        try:
            results[i] = tasks[i]()
        except BaseException as exc:  # handed to the caller, which re-raises it
            errors[i] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(work, i))
               for i in range(1, len(tasks))]
    for worker in workers:
        worker.start()
    work(0)
    for worker in workers:
        worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _recur(cells: tuple, seq: Tensor, h0: Tensor | None = None):
    """Step ``cells`` (one per direction, all of one kind and size; ``h0`` needs one
    direction) over ``seq``, the first forwards and a second backwards in time. Returns
    ``(hs, parents, bptt)``: hs is (directions, batch, time, hidden), time order in every
    direction, and ``bptt(g)`` backpropagates g, laid out as hs. Weight gradients sum latest
    step first and reach each parameter once, at the end: a parameter used twice in one graph
    sums in another order than a chain of per-step ops would.

    Steps run in ``blocks(steps, SEGMENT)``, one input GEMM per segment and direction. A
    tracked forward tapes one segment, each step's gates and c, in buffers only ``bptt``
    holds, and c before every segment. Returned, they hold the last segment; ``bptt``
    re-runs each earlier one by the forward's own steps from its first c and the h before
    it, so every bit is the same. An untracked forward steps one step's slots. A tracked lane
    of one direction writes step j's gates over its input projection ``xw[:, j]``, which the
    step has read, so the segment's projection is its gate tape; two directions in lockstep
    (their step's projections are no one block) and untracked forwards keep a gates buffer.

    One step body serves a slice of the directions, on that slice's own buffers. Two
    directions at ``batch * hidden >= THREADED`` run one slice each, on their own threads,
    through the whole forward and later through the whole replay and BPTT; they meet only
    when each ends. Anything narrower, and one direction, steps all its directions in
    lockstep in the caller's thread. Either way every bit is the same."""
    cell = cells[0]
    if seq.data.ndim != 3 or seq.shape[2] != cell.n_in:
        raise ShapeMismatchError(f"unroll expects (batch, time, {cell.n_in}), got {seq.shape}")
    batch, steps, n_in = seq.shape
    if steps == 0:
        raise EmptySequenceError("unroll got an empty sequence")
    if h0 is not None and h0.shape != (batch, cell.hidden):
        raise ShapeMismatchError(f"unroll h0 must be {(batch, cell.hidden)}, got {h0.shape}")
    parents = (seq, *[w for c in cells for w in (c.w_x, c.w_h, c.b)])
    parents += () if h0 is None else (h0,)
    track = ad.is_tracking(*parents)
    times = np.stack([np.arange(steps), np.arange(steps)[::-1]][:len(cells)])  # d's step k -> time
    dirs = np.arange(len(cells))
    seq_t = seq.data.transpose(1, 0, 2)
    segments = blocks(steps, SEGMENT)
    span = max(n for _, n in segments)
    slots = span if track else 1
    replays = track and cell._tape_slots and len(segments) > 1
    w_x = np.stack([c.w_x.data for c in cells])
    w_h = np.stack([c.w_h.data for c in cells])
    b = np.repeat(np.stack([c.b.data for c in cells])[:, None], batch, axis=1)  # same-shape add
    hs = np.empty((len(cells), batch, steps, cell.hidden))
    h_first = np.zeros((len(cells), batch, cell.hidden)) if h0 is None else h0.data[None]
    threaded = len(cells) > 1 and batch * cell.hidden >= THREADED
    lanes = [slice(d, d + 1) for d in dirs] if threaded else [slice(0, len(cells))]

    def lane(ds):  # the forward and BPTT of directions ds, on views taken here, once
        ids, t_of, h_start = dirs[ds], times[ds], h_first[ds]
        w_xd, w_hd, bd = w_x[ds], w_h[ds], b[ds]
        w_xT, w_hT = w_xd.transpose(0, 2, 1), w_hd.transpose(0, 2, 1)
        carry = (len(ids), batch, cell.hidden if cell._carries else 0)  # an RNN carries no c
        gate_tape = (slots, cell._tape_slots, len(ids), batch, cell.hidden)
        xw_shape = (len(ids), span, batch, w_x.shape[2])
        # one tracked direction tapes step j's gates over xw[:, j], which the step has read. The
        # tape comes first either way: made last, it moved glibc's heap and a desk GAN's RSS up 4%
        xw = np.empty(xw_shape) if track and cell._tape_slots and len(ids) == 1 else None
        gates = np.empty(gate_tape) if xw is None else xw.reshape(gate_tape)
        cs = np.zeros((slots + track, *carry))  # c before each step and after the last
        tanh_c = np.empty(carry)
        c_first = np.zeros((len(segments), *carry)) if track else None  # c before each segment
        x_in = np.empty((span, batch, n_in))
        xw = np.empty(xw_shape) if xw is None else xw

        def run(first, n, h):  # steps first .. first + n - 1 from h and cs[0], yielding each h
            for t_d, w_x_d, xw_d in zip(t_of, w_xd, xw):  # the segment's rows, step-major,
                x_in[:n] = seq_t[t_d[first:first + n]]
                np.matmul(x_in[:n].reshape(-1, n_in), w_x_d,  # then their GEMM
                          out=xw_d[:n].reshape(n * batch, -1))
            for j in range(n):
                z = np.matmul(h, w_hd)
                z += xw[:, j]
                z += bd
                t = j if track else 0  # untracked, c steps in place in cs[0]
                h = cell._activate(z, gates[t], cs[t], cs[t + track], tanh_c)
                yield h

        def forward():
            nonlocal x_in, xw
            h = h_start
            with np.errstate(over="ignore"):  # a gate's exp(-z) is inf below z = -709, the gate 0
                for s, (first, n) in enumerate(segments):
                    for k, h in enumerate(run(first, n, h), first):
                        hs[ids, :, t_of[:, k]] = h
                    if track and first + n < steps:  # the next segment starts from this one's last c
                        cs[0] = c_first[s + 1] = cs[n]
            if not replays:
                x_in = xw = None  # nothing will be replayed: only a gate tape in xw keeps it

        def backward(g, dx):  # returns the weight sums and dh before the first step
            dh, dc = 0.0, 0.0
            h = hs[ids, :, t_of[:, steps - 1]]  # each step's h is carried on from the one after it
            for (first, n), c_before in zip(segments[::-1], c_first[::-1]):
                if first + n < steps and cell._tape_slots:  # the buffers hold a later segment
                    cs[0] = c_before
                    # the h before it, gathered as contiguous as the forward's: h @ w_h takes its path
                    h_before = hs[ids, :, t_of[:, first - 1]] if first else h_start
                    with np.errstate(over="ignore"):
                        for _ in run(first, n, h_before):
                            pass
                for k in range(first + n - 1, first - 1, -1):
                    at = ids, slice(None), t_of[:, k]
                    dz, dc = cell._activate_backward(g[at] + dh, dc, gates[k - first],
                                                     cs[k - first:], h)
                    h = hs[ids, :, t_of[:, k - 1]] if k else h_start
                    terms = (np.matmul(seq_t[t_of[:, k]].transpose(0, 2, 1), dz),
                             np.matmul(h.transpose(0, 2, 1), dz), dz.sum(axis=1))
                    sums = terms if k == steps - 1 else [np.add(s, t, out=s) for s, t in zip(sums, terms)]
                    if dx is not None:
                        dx[at] = np.matmul(dz, w_xT)
                    dh = np.matmul(dz, w_hT)
            return sums, dh

        return forward, backward

    runs = [lane(ds) for ds in lanes]
    _on_threads(*(forward for forward, _ in runs))

    def bptt(g):
        dx = np.empty((len(cells), batch, steps, n_in)) if seq.requires_grad else None
        done = _on_threads(*(functools.partial(backward, g, dx) for _, backward in runs))
        for ds, (sums, dh) in zip(lanes, done):
            for c, *totals in zip(cells[ds], *sums):
                for w, total in zip((c.w_x, c.w_h, c.b), totals):
                    ad._accumulate(w, total)
        if dx is not None:
            for d in dirs:
                ad._accumulate(seq, dx[d])
        if h0 is not None:
            ad._accumulate(h0, dh[0])

    return hs, parents, bptt


def unroll(cell: RNNCell | LSTMCell, seq: Tensor, h0: Tensor | None = None) -> Tensor:
    """Step ``cell`` forwards over ``seq`` (batch, time, features) from its zero state.

    Returns h for every step as one (batch, time, hidden) tensor. ``h0`` (batch, hidden),
    if given, replaces the zero initial h (an LSTM's c still starts at zero). The whole
    recurrence is one ``_recur`` graph node: one input GEMM per segment, a time loop that
    steps only ``h @ w_h`` and the gates, and a hand-written BPTT. An LSTM tapes one
    segment's gates and c and re-runs each earlier segment before backpropagating through
    it (no tape under ``ad.no_grad()``). Values and gradients, which ``SEGMENT`` does not
    change, are those of the same step built from autodiff ops and chained from that state."""
    hs, parents, bptt = _recur((cell,), seq, h0)
    return ad._make(hs[0], parents, lambda g: bptt(g[None]))


class BiLstmLayer:
    """One forward and one backward LSTM pass, merged per step by a tanh projection.

    Both directions start from zero states and step through one recurrence node that
    returns both directions' h in time order: in lockstep in the caller's thread, or, once
    batch * hidden reaches ``THREADED``, each on its own thread from the start of the
    forward, and again of the backward, to its end, with the same bits. The per-step output is
    tanh(h_fwd W_f + h_bwd W_b + b) with independent parameters per direction, computed
    for all steps at once by a second node that reads h in place and saves only its output."""

    def __init__(self, pset: ParamSet, name: str, n_in: int, hidden: int, n_out: int,
                 rng: np.random.Generator):
        self.fwd = LSTMCell(pset, f"{name}.fwd", n_in, hidden, rng)
        self.bwd = LSTMCell(pset, f"{name}.bwd", n_in, hidden, rng)
        self.w_f = pset.add(f"{name}.merge.w_fwd", xavier_uniform(rng, (hidden, n_out)))
        self.w_b = pset.add(f"{name}.merge.w_bwd", xavier_uniform(rng, (hidden, n_out)))
        self.b_o = pset.add(f"{name}.merge.b", np.zeros(n_out))

    def __call__(self, seq: Tensor) -> Tensor:
        hs, parents, bptt = _recur((self.fwd, self.bwd), seq)
        rec = ad._make(hs, parents, bptt)
        h_f, h_b = hs.reshape(2, -1, hs.shape[3])  # each direction's h as (batch * time, hidden)
        out = h_f @ self.w_f.data
        out += h_b @ self.w_b.data
        out += self.b_o.data
        np.tanh(out, out=out)

        def bwd(g):
            dm = np.multiply(out, out)
            np.subtract(1.0, dm, out=dm)
            dm *= g.reshape(out.shape)
            ad._accumulate(self.w_f, h_f.T @ dm)
            ad._accumulate(self.w_b, h_b.T @ dm)
            ad._accumulate(self.b_o, dm.sum(axis=0))
            # both directions' dh, handed to rec uncopied: this node is its only consumer
            rec.grad = np.empty(hs.shape)
            for w, dh in zip((self.w_f, self.w_b), rec.grad.reshape(2, out.shape[0], -1)):
                np.matmul(dm, w.data.T, out=dh)

        return ad._make(out.reshape(*hs.shape[1:3], -1), (rec, self.w_f, self.w_b, self.b_o), bwd)


# --- convolution and pooling -----------------------------------------------------

def conv1d(x: Tensor, filters: Tensor, bias: Tensor, stride: int) -> Tensor:
    """1-D convolution without padding: x (B, C, L), filters (M, C, F) -> (B, M, L_out)."""
    x = ad.as_tensor(x)
    if x.data.ndim != 3 or filters.data.ndim != 3:
        raise ShapeMismatchError(f"conv1d expects 3-D x and filters, got {x.shape}, {filters.shape}")
    if x.shape[1] != filters.shape[1]:
        raise ShapeMismatchError(f"channel mismatch: input {x.shape[1]}, filters {filters.shape[1]}")
    fsize = filters.shape[2]
    l_out = conv_out_size(x.shape[2], fsize, stride)

    windows = np.lib.stride_tricks.sliding_window_view(x.data, fsize, axis=2)[:, :, ::stride, :]
    out_data = np.einsum("bclf,mcf->bml", windows, filters.data) + bias.data[None, :, None]

    def bwd(g):
        ad._accumulate(filters, np.einsum("bml,bclf->mcf", g, windows))
        ad._accumulate(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for f in range(fsize):
                gx[:, :, f:f + stride * l_out:stride] += np.einsum("bml,mc->bcl", g, filters.data[:, :, f])
            ad._accumulate(x, gx)

    return ad._make(out_data, (x, filters, bias), bwd)


def maxpool1d(x: Tensor, window: int, stride: int) -> Tensor:
    """Windowed maxima over the last axis of x (B, C, L)."""
    x = ad.as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"maxpool1d expects (batch, channels, length), got {x.shape}")
    conv_out_size(x.shape[2], window, stride)  # raises on bad geometry

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

def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout drawn from ``rng``: zero with probability p, scale survivors by
    1/(1-p). Without an rng (evaluation) it is the identity."""
    if not (0.0 <= p < 1.0):
        raise InvalidProbabilityError(f"dropout probability must be in [0, 1), got {p}")
    x = ad.as_tensor(x)
    if rng is None or p == 0.0:
        return x
    # the backward keeps one bool per entry; a dropped entry is v * 0.0 (-0.0 for a
    # negative v, nan for an inf), the bits a multiply by a float 0-or-scale mask gives
    out_data = rng.random(x.shape)
    drop = out_data < p
    scale = 1.0 / (1.0 - p)

    def masked(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(v, scale, out=out)
        return np.multiply(v, 0.0, out=out, where=drop)

    masked(x.data, out_data)

    def bwd(g):
        ad._accumulate(x, masked(g, np.empty_like(g)))

    return ad._make(out_data, (x,), bwd)


def softmax(z: Tensor) -> Tensor:
    """Max-subtracted softmax along the last axis."""
    z = ad.as_tensor(z)
    shifted = z.data - z.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        ad._accumulate(z, (g - dot) * out_data)

    return ad._make(out_data, (z,), bwd)


def mse_half(y: Tensor, x: Tensor) -> Tensor:
    """Mean squared difference halved; the unit-variance Gaussian fit term."""
    y, x = ad.as_tensor(y), ad.as_tensor(x)
    if y.shape != x.shape:
        raise ShapeMismatchError(f"mse over unequal shapes {y.shape} vs {x.shape}")
    with np.errstate(over="ignore"):  # a square or sum past float64 is inf, which fit refuses
        return ad.mul(ad.mean(ad.power(ad.sub(y, x), 2.0)), 0.5)


# --- optimizer -----------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update; pure function of inputs and state."""
    if t < 1:
        raise ValueError("adam step count starts at 1")
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


class Adam:
    """Adam(0.9, 0.999, 1e-8) over a ParamSet; state keyed by parameter name."""

    def __init__(self, pset: ParamSet, lr: float):
        self.pset = pset
        self.lr = lr
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
                param.data, grad, self._m[name], self._v[name], self.t, self.lr)

    def minimize(self, loss: Tensor) -> float:
        """Clear this optimizer's gradients, backpropagate ``loss``, take one step and
        return the loss. A non-finite loss is only returned: ``fit`` refuses it, so a
        backward and a step through it would be wasted work."""
        value = loss.item()
        if np.isfinite(value):
            self.pset.zero_grad()
            ad.backward(loss)
            self.step()
        return value


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

FD_EPS = 1e-5  # the central-difference step


def finite_difference_gradients(loss_fn: Callable[[], float], pset: ParamSet) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn`` w.r.t. each parameter entry, step FD_EPS.

    ``loss_fn`` must rebuild the forward pass from the ParamSet's current
    data on every call (any randomness inside must be replayed identically).
    Probes run under ``ad.no_grad()``, so no graph is recorded: ``loss_fn``
    must return a float and must not call ``ad.backward``.
    """
    out = {}
    with ad.no_grad():
        for name in pset.names():
            param = pset[name]
            grad = np.zeros_like(param.data)
            flat = param.data.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + FD_EPS
                up = loss_fn()
                flat[i] = original - FD_EPS
                down = loss_fn()
                flat[i] = original
                gflat[i] = (up - down) / (2.0 * FD_EPS)
            out[name] = grad
    return out


def check_gradients(build_loss: Callable[[], Tensor], pset: ParamSet) -> float:
    """Max relative error between backprop and central finite differences."""
    pset.zero_grad()
    loss = build_loss()
    ad.backward(loss)
    analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in pset.items()}
    numeric = finite_difference_gradients(lambda: build_loss().item(), pset)
    return max(relative_error(analytic[name], numeric[name]) for name in pset.names())


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """||a - n|| / max(||a||, ||n||, 1e-12): the gradient checks' error measure."""
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)
