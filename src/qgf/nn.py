"""Neural building blocks on top of the autodiff core.

Dense projection, tanh RNN and gated LSTM cells with ``unroll``, the fused
op that steps either over a sequence, a bidirectional layer whose two LSTMs step
in lockstep or, at paper width, on a thread each with BLAS on one, 1-D convolution
and max pooling, inverted dropout, stable softmax, Adam, and the seeded minibatch
loop both trainers run (``fit``).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
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
    # recurrence: h into the given array, and dz into the given one
    @staticmethod
    def _gate_view(z: np.ndarray) -> np.ndarray:
        return z

    @staticmethod
    def _activate(z: np.ndarray, gates, c_prev, c, h: np.ndarray) -> None:
        np.tanh(z, out=h)

    @staticmethod
    def _activate_backward(dh: np.ndarray, dc, gates, cs, h: np.ndarray, dz: np.ndarray) -> None:
        np.multiply(dh, 1.0 - h * h, out=dz)


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
    # batch, hidden), so every block the elementwise ops touch is contiguous, steps c_prev
    # into c (the same array when nothing is taped) and, unless h is None, writes h. z comes
    # as its ``_gate_view``; BPTT writes dz, a gate view too, and steps the carry dc in place
    @staticmethod
    def _gate_view(z: np.ndarray) -> np.ndarray:  # (D, B, 4H) as (4, D, B, H)
        return z.reshape(*z.shape[:2], 4, -1).transpose(2, 0, 1, 3)

    @staticmethod
    def _activate(z: np.ndarray, gates, c_prev, c, h: np.ndarray | None) -> None:
        # a logistic over every block is cheaper than over the i, f and o blocks
        # alone, and the g block is then overwritten with its tanh
        i, f, g, o = ad._logistic(z, out=gates)
        np.tanh(z[2], out=g)
        np.multiply(f, c_prev, out=c)
        c += i * g
        if h is not None:
            np.tanh(c, out=h)
            h *= o

    @staticmethod
    def _activate_backward(dh: np.ndarray, dc, gates, cs, h: np.ndarray, dz: np.ndarray) -> None:
        i, f, g, o = gates  # cs[0] is c before the step, cs[1] c after it
        tanh_c = np.tanh(cs[1], out=cs[1])  # the next step's backward has read c
        dc += dh * o * (1.0 - tanh_c * tanh_c)  # dc is zero before the last step
        # the i, f and o slots are ((a * b) * s) * (1 - s) for their gate s, scaled by s and
        # 1 - s block-wide; the g slot holds dc * i until then, so no op reads np.empty garbage
        dzg = np.empty_like(gates)
        np.multiply(dc, g, out=dzg[0])
        np.multiply(dc, cs[0], out=dzg[1])
        dg = np.multiply(dc, i, out=dzg[2]) * (1.0 - g * g)
        np.multiply(dh, tanh_c, out=dzg[3])
        dzg *= gates
        np.multiply(dzg, 1.0 - gates, out=dz)
        dz[2] = dg
        dc *= f

    @staticmethod
    def _replay(z: np.ndarray, gates, cs) -> None:
        """Gates and c of a block of m steps from their z, (D, m, B, 4H): each op of
        ``_activate`` once over the block, but c's, which steps from c[0] in ``cs``."""
        z = z.reshape(*z.shape[:3], 4, -1).transpose(1, 3, 0, 2, 4)  # (m, 4, D, B, H)
        ad._logistic(z, out=gates)
        np.tanh(z[:, 2], out=gates[:, 2])
        for j, (f, ig) in enumerate(zip(gates[:, 1], gates[:, 0] * gates[:, 2])):
            np.multiply(f, cs[j], out=cs[j + 1])
            cs[j + 1] += ig


SEGMENT = 64  # most steps per input GEMM and per gate tape of a tracked LSTM
REPLAY_BLOCK = 8  # most steps per h @ w_h GEMM of a replay, and per BPTT weight-gradient product


try:  # numpy 2's bundled OpenBLAS: dlsym also searches the libraries this module links
    _BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _get_blas_threads, _set_blas_threads = (_BLAS.scipy_openblas_get_num_threads64_,
                                            _BLAS.scipy_openblas_set_num_threads64_)
    _get_blas_threads.argtypes, _set_blas_threads.argtypes = [], [ctypes.c_int]
except (AttributeError, OSError):  # numpy 1, MKL, Accelerate: qgf leaves BLAS's threads be
    _get_blas_threads = _set_blas_threads = None


_blas_lock = threading.Lock()
_blas_holders, _blas_count = 0, 1  # blocks inside one_blas_thread, and the count they restore


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread in the block and restore its count after. Blocks
    may nest and overlap across threads: the first to enter reads and sets the count, the
    last to leave restores it. Where qgf cannot set BLAS's threads, it sets nothing."""
    global _blas_holders, _blas_count
    if _set_blas_threads is None:
        yield
        return
    with _blas_lock:
        if not _blas_holders:
            _blas_count = _get_blas_threads()
            if _blas_count != 1:
                _set_blas_threads(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if not _blas_holders and _blas_count != 1:
                _set_blas_threads(_blas_count)


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# least batch * hidden at which each direction of a BiLSTM steps on its own thread, BLAS on
# one: narrower, the GIL hand-offs between two threads' short numpy calls cost more than the
# second core gives (at batch 32 on 2 CPUs, lockstep was faster at 1536 and threads from
# 1600). Lockstep on one CPU, or where qgf cannot set BLAS's thread count.
THREADED = 1600 if _CPUS > 1 and _set_blas_threads is not None else sys.maxsize


def blocks(total: int, most: int) -> list[tuple[int, int]]:
    """The fewest ``(first, length)`` blocks of at most ``most`` that cover ``range(total)``,
    lengths within one of each other: none is one row (a GEMV) unless ``total`` is one."""
    if total > most < 3:
        raise ValueError(f"blocks of at most {most} < 3 may leave one row of {total}")
    count = -(-total // most)
    edges = [k * total // count for k in range(count + 1)]
    return [(first, stop - first) for first, stop in zip(edges, edges[1:])]


def _on_threads(*tasks: Callable) -> list:
    """Run each task on its own thread, the first on the caller's, BLAS on one (a lone task
    too), and return their results once all have ended. A worker starts in a copy of the
    caller's context (numpy's errstate is context-local); the first task's exception, in
    order, is re-raised."""
    if len(tasks) == 1:
        with one_blas_thread():
            return [tasks[0]()]
    results, errors = [None] * len(tasks), [None] * len(tasks)

    def work(i):
        try:
            results[i] = tasks[i]()
        except BaseException as exc:  # handed to the caller, which re-raises it
            errors[i] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(work, i))
               for i in range(1, len(tasks))]
    with one_blas_thread():
        for worker in workers:
            worker.start()
        work(0)
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _recur(cells: tuple, seq: Tensor, h0: Tensor | None = None, merge: tuple = ()):
    """Step ``cells`` (one per direction, all of one kind and size; ``h0`` needs one
    direction) over ``seq``, the first forwards and a second backwards in time. Returns
    ``(hs, products, parents, bptt)``: hs is (directions, batch, time, hidden), time order in
    every direction. ``merge``, if given, holds one (hidden, n_out) weight per direction, and
    ``products`` each direction's ``h_d @ w_d`` as (batch * time, n_out). ``bptt(g)``
    backpropagates g, laid out as hs, or with ``merge`` the (batch * time, n_out) grad of the
    products' sum. BPTT backpropagates step by step, but takes the weight gradients per block
    of ``REPLAY_BLOCK`` steps counted from the last step: a block's ``x.T @ dz``,
    ``h_prev.T @ dz`` and dz's column sums are one product each over its rows, added into the
    sums once, latest block first. Blocks cross segments, so ``SEGMENT`` changes no bit. The
    sums reach each parameter once, at the end: a parameter used twice in one graph sums in
    another order than a chain of per-step ops would.

    Steps run in ``blocks(steps, SEGMENT)``, one input GEMM per segment and direction. A
    tracked forward tapes one segment, each step's gates and c, in buffers only ``bptt``
    holds, and c before every segment. Returned, they hold the last segment; ``bptt``
    re-runs each earlier one from its first c. As hs holds every h, the replay takes
    ``h @ w_h`` for ``REPLAY_BLOCK`` steps at a time in one GEMM, whose rows have the
    forward's bits, and steps only c one by one. An untracked forward steps one step's
    slots. A tracked lane of one direction writes step j's gates over its input projection
    ``xw[:, j]``, which the step has read, so the segment's projection is its gate tape; two
    directions in lockstep (their step's projections are no one block) and untracked
    forwards keep a gates buffer.

    A lane is one step body over a slice of the directions, on that slice's own buffers. It
    runs its directions' whole share: the forward and then the merge products, and later the
    merge's two GEMMs, the replay and BPTT. Two directions at ``batch * hidden >= THREADED``
    run a lane each, on their own threads, and meet only when each lane ends. Anything
    narrower, and one direction, runs one lane of all its directions in lockstep in the
    caller's thread. Either way every bit is the same. A lane of one direction reads and
    writes each step's rows of hs, g and dx through basic views; a lockstep lane gathers and
    scatters them. Every buffer a lane keeps beyond a step is made in the caller's thread,
    so a worker thread's heap holds no more than a step's temporaries. Where ``n_in ==
    hidden``, BPTT writes dx over the rows of g it has read. Its block's dz rows wait in a ring
    of ``REPLAY_BLOCK`` step slots; x rows and h before each step are copied into the input
    rows and the replay's h block once a block."""
    cell = cells[0]
    if seq.data.ndim != 3 or seq.shape[2] != cell.n_in:
        raise ShapeMismatchError(f"unroll expects (batch, time, {cell.n_in}), got {seq.shape}")
    batch, steps, n_in = seq.shape
    if steps == 0:
        raise EmptySequenceError("unroll got an empty sequence")
    if h0 is not None and h0.shape != (batch, cell.hidden):
        raise ShapeMismatchError(f"unroll h0 must be {(batch, cell.hidden)}, got {h0.shape}")
    parents = (seq, *[w for c in cells for w in (c.w_x, c.w_h, c.b)], *merge)
    parents += () if h0 is None else (h0,)
    track = ad.is_tracking(*parents)
    times = np.stack([np.arange(steps), np.arange(steps)[::-1]][:len(cells)])  # d's step k -> time
    dirs = np.arange(len(cells))
    seq_t = seq.data.transpose(1, 0, 2)
    x_steps = [seq_t, seq_t[::-1]]  # each direction's (time, batch, n_in) rows in step order
    segments = blocks(steps, SEGMENT)
    span = max(n for _, n in segments)
    ring = min(REPLAY_BLOCK, steps)  # most steps of a BPTT block, counted from the last step
    slots = span if track else 1
    replays = track and cell._tape_slots and len(segments) > 1
    w_x = np.stack([c.w_x.data for c in cells])
    w_h = np.stack([c.w_h.data for c in cells])
    b = np.repeat(np.stack([c.b.data for c in cells])[:, None], batch, axis=1)  # same-shape add
    hs = np.empty((len(cells), batch, steps, cell.hidden))
    products = [np.empty((batch * steps, w.shape[1])) for w in merge]
    h_first = np.zeros((len(cells), batch, cell.hidden)) if h0 is None else h0.data[None]
    threaded = len(cells) > 1 and batch * cell.hidden >= THREADED
    lanes = [slice(d, d + 1) for d in dirs] if threaded else [slice(0, len(cells))]

    def lane(ds):  # the forward and BPTT of directions ds, on views taken here, once
        ids, t_of, h_start = dirs[ds], times[ds], h_first[ds]
        one = len(ids) == 1
        # step k's (directions, batch, width) rows of an array laid out as hs: basic indices,
        # so a view, in a lane of one direction; index arrays in a lockstep one
        at = ([(ds, slice(None), t) for t in t_of[0].tolist()] if one
              else [(ids, slice(None), t) for t in t_of.T])
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
        c_first = np.zeros((len(segments), *carry)) if track else None  # c before each segment
        x_in = np.empty((max(span, ring), batch, n_in))  # BPTT's x rows too, if it replays
        xw = np.empty(xw_shape) if xw is None else xw
        z = np.empty((len(ids), batch, w_x.shape[2]))
        h_step = None if one else np.empty((len(ids), batch, cell.hidden))
        merge_w = [(d, merge[d].data) for d in ids] if merge else []

        def project(first, n):  # the input GEMM of steps first .. first + n - 1 into xw
            for d, w_x_d, xw_d in zip(ids, w_xd, xw):  # the segment's rows, step-major,
                x_in[:n] = x_steps[d][first:first + n]
                np.matmul(x_in[:n].reshape(-1, n_in), w_x_d,  # then their GEMM
                          out=xw_d[:n].reshape(n * batch, -1))

        def run(first, n, h):  # steps first .. first + n - 1 from h and cs[0]
            project(first, n)
            zv = cell._gate_view(z)
            for j in range(n):
                np.add(np.matmul(h, w_hd, out=z), xw[:, j], out=z)  # z is a lane buffer
                np.add(z, bd, out=z)
                t = j if track else 0  # untracked, c steps in place in cs[0]
                h = hs[at[first + j]] if one else h_step
                cell._activate(zv, gates[t], cs[t], cs[t + track], h)
                if not one:
                    hs[at[first + j]] = h
            return h

        # each direction's h in step order, (time, batch, hidden), for the h before a step
        h_steps = [hs[d].transpose(1, 0, 2)[::1 if d == 0 else -1] for d in ids]

        def forward():
            nonlocal x_in, xw, z, h_step
            h = h_start
            with np.errstate(over="ignore"):  # a gate's exp(-z) is inf below z = -709, the gate 0
                for s, (first, n) in enumerate(segments):
                    h = run(first, n, h)
                    if track and first + n < steps:  # the next segment starts from this one's last c
                        cs[0] = c_first[s + 1] = cs[n]
            for d, w_d in merge_w:
                np.matmul(hs[d].reshape(-1, cell.hidden), w_d, out=products[d])
            z = h_step = None
            if not replays:
                x_in = xw = None  # nothing will be replayed: only a gate tape in xw keeps it

        def backward(dm, g, dx, sums, dws):  # made in the caller's thread, with its buffers
            # dz of the running block's steps, each at its slot from the ring's end, and the
            # block's x rows and h before each step: the replay's h block too
            dzs = np.empty((len(ids), ring, batch, w_x.shape[2]))
            dz_views = [cell._gate_view(dzs[:, j]) for j in range(ring)]
            h_rows = np.empty((len(ids), ring, batch, cell.hidden))
            x_rows = np.empty((ring, batch, n_in)) if x_in is None else x_in
            dh, dc = np.empty((len(ids), batch, cell.hidden)), np.zeros(carry)
            block = min(REPLAY_BLOCK, span) if batch > 1 else 1  # one row a step: a GEMV's bits
            z_rows = np.empty((len(ids), block, batch, w_x.shape[2])) if replays else None
            terms = [np.empty(s[ds].shape) for s in sums]
            totals = [s[ds] for s in sums]

            def h_before(k, m):  # h before steps k .. k + m - 1, (directions, m, batch, hidden)
                rows = h_rows[:, :m]
                start = k == 0  # the first step's h before is h_start
                if start:
                    rows[:, 0] = h_start
                for h_d, h_seq in zip(rows, h_steps):
                    h_d[start:] = h_seq[k - 1 + start:k + m - 1]
                return rows

            def replay(first, n):  # gates and c of steps first .. first + n - 1 from cs[0]:
                # the h @ w_h of a block of steps as one GEMM, since hs holds every h, and only
                # c steps one by one. Rows, at least two a GEMM, have a step's bits
                project(first, n)
                for j, m in blocks(n, block) if block > 1 else ((j, 1) for j in range(n)):
                    zb = z_rows[:, :m]
                    np.matmul(h_before(first + j, m).reshape(len(ids), -1, cell.hidden), w_hd,
                              out=zb.reshape(len(ids), m * batch, -1))
                    np.add(zb, xw[:, j:j + m], out=zb)
                    np.add(zb, bd[:, None], out=zb)
                    cell._replay(zb, gates[j:j + m], cs[j:j + m + 1])

            def weight_terms(k, m):  # add the products of steps k .. k + m - 1, the ring's end
                dz_rows = dzs[:, ring - m:].reshape(len(ids), m * batch, -1)
                hs_before = h_before(k, m)
                for i, d in enumerate(ids):
                    x_rows[:m] = x_steps[d][k:k + m]
                    np.matmul(x_rows[:m].reshape(-1, n_in).T, dz_rows[i], out=terms[0][i])
                    np.matmul(hs_before[i].reshape(-1, cell.hidden).T, dz_rows[i], out=terms[1][i])
                np.sum(dz_rows, axis=1, out=terms[2])
                for total, term in zip(totals, terms):
                    total += term

            def task():  # returns dh before the first step
                for d, w_d in merge_w:
                    np.matmul(hs[d].reshape(-1, cell.hidden).T, dm, out=dws[d])
                    np.matmul(dm, w_d.T, out=g[d].reshape(-1, cell.hidden))
                dh_next = 0.0
                for (first, n), c_before in zip(segments[::-1], c_first[::-1]):
                    if first + n < steps and cell._tape_slots:  # the buffers hold a later segment
                        cs[0] = c_before
                        with np.errstate(over="ignore"):
                            replay(first, n)
                    for k in range(first + n - 1, first - 1, -1):
                        dh_k = g[at[k]]  # g's own rows in a lane of one direction
                        dh_k += dh_next
                        slot = ring - 1 - (steps - 1 - k) % ring  # blocks end at the last step
                        h = None if cell._tape_slots else hs[at[k]]  # an LSTM reads its tape
                        cell._activate_backward(dh_k, dc, gates[k - first], cs[k - first:], h,
                                                dz_views[slot])
                        if slot == 0 or k == 0:
                            weight_terms(k, ring - slot)
                        dz = dzs[:, slot]
                        if dx is not None and one:
                            np.matmul(dz, w_xT, out=dx[at[k]])
                        elif dx is not None:
                            dx[at[k]] = np.matmul(dz, w_xT)
                        dh_next = np.matmul(dz, w_hT, out=dh)
                return dh_next

            return task

        return forward, backward

    runs = [lane(ds) for ds in lanes]
    _on_threads(*(forward for forward, _ in runs))
    backwards = [backward for _, backward in runs]

    def bptt(g):
        dm = None
        if merge:
            dm, g = g, np.empty(hs.shape)
        dx = None
        if seq.requires_grad:  # over g's rows once read, where they fit
            dx = g if n_in == cell.hidden else np.empty((len(cells), batch, steps, n_in))
        sums = [np.zeros(w.shape) for w in (w_x, w_h, b[:, 0])]
        dws = [np.empty(w.shape) for w in merge]
        dhs = _on_threads(*[backward(dm, g, dx, sums, dws) for backward in backwards])
        for c, *totals in zip(cells, *sums):
            for w, total in zip((c.w_x, c.w_h, c.b), totals):
                ad._accumulate(w, total, fresh=True)
        for w, dw in zip(merge, dws):
            ad._accumulate(w, dw, fresh=True)
        if dx is not None:
            for d in dirs:
                ad._accumulate(seq, dx[d], fresh=d == 0)
        if h0 is not None:
            ad._accumulate(h0, dhs[0][0])

    return hs, products, parents, bptt


def unroll(cell: RNNCell | LSTMCell, seq: Tensor, h0: Tensor | None = None) -> Tensor:
    """Step ``cell`` forwards over ``seq`` (batch, time, features) from its zero state.

    Returns h for every step as one (batch, time, hidden) tensor. ``h0`` (batch, hidden),
    if given, replaces the zero initial h (an LSTM's c still starts at zero). The whole
    recurrence is one ``_recur`` graph node: one input GEMM per segment, a time loop that
    steps only ``h @ w_h`` and the gates on views of its output, and a hand-written BPTT. An
    LSTM tapes one segment's gates and c and re-runs each earlier segment before
    backpropagating through it (no tape under ``ad.no_grad()``). Values are those of the same
    step built from autodiff ops and chained from that state, and so are gradients but for
    rounding: the weight gradients sum per block of ``REPLAY_BLOCK`` steps counted from the
    end, not per step. ``SEGMENT`` changes no bit of either."""
    hs, _, parents, bptt = _recur((cell,), seq, h0)
    return ad._make(hs[0], parents, lambda g: bptt(g[None]))


class BiLstmLayer:
    """One forward and one backward LSTM pass, merged per step by a tanh projection.

    The per-step output is tanh(h_fwd W_f + h_bwd W_b + b) with independent parameters per
    direction, and the whole layer is one graph node. Both directions start from zero states
    and step through one ``_recur``: in lockstep in the caller's thread, or, once batch *
    hidden reaches ``THREADED``, each on its own thread, with the same bits. Each direction's
    lane ends its forward with its merge product ``h_d @ W_d`` and starts its backward with
    ``h_d.T @ dm`` and ``dm @ W_d.T``; the caller sums the products, adds b and takes the
    tanh, and computes dm and b's grad. The node saves only its output beside the
    recurrence's own state."""

    def __init__(self, pset: ParamSet, name: str, n_in: int, hidden: int, n_out: int,
                 rng: np.random.Generator):
        self.fwd = LSTMCell(pset, f"{name}.fwd", n_in, hidden, rng)
        self.bwd = LSTMCell(pset, f"{name}.bwd", n_in, hidden, rng)
        self.w_f = pset.add(f"{name}.merge.w_fwd", xavier_uniform(rng, (hidden, n_out)))
        self.w_b = pset.add(f"{name}.merge.w_bwd", xavier_uniform(rng, (hidden, n_out)))
        self.b_o = pset.add(f"{name}.merge.b", np.zeros(n_out))

    def __call__(self, seq: Tensor) -> Tensor:
        hs, (out, product_b), parents, bptt = _recur((self.fwd, self.bwd), seq,
                                                     merge=(self.w_f, self.w_b))
        out += product_b
        out += self.b_o.data
        np.tanh(out, out=out)

        def bwd(g):
            # this node alone holds g, so dm is computed in its buffer, C-ordered as out is
            dm = np.ascontiguousarray(g.reshape(out.shape))
            slope = np.multiply(out, out)
            np.subtract(1.0, slope, out=slope)
            dm *= slope
            del slope
            ad._accumulate(self.b_o, dm.sum(axis=0))
            bptt(dm)

        return ad._make(out.reshape(*hs.shape[1:3], -1), (*parents, self.b_o), bwd)


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
    keep = out_data >= p
    scale = 1.0 / (1.0 - p)
    np.multiply(keep, scale, out=out_data)  # the 0-or-scale mask, then x times it
    out_data *= x.data

    def bwd(g):  # g is this node's own grad, so it is masked in place: g * 1.0 or 0.0, scaled
        np.multiply(g, keep, out=g)
        g *= scale
        ad._accumulate(x, g, fresh=True)

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
        bias1, bias2 = 1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t
        for name, param in self.pset.items():  # in place; a missing grad steps as zero
            grad = 0.0 if param.grad is None else param.grad
            m, v = self._m[name], self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)

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
