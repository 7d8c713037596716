"""A fixed reference computation that measures how fast this CPU runs right now.

On a shared host the speed of one core drifts by tens of percent over seconds
to minutes, as other tenants load it. The benchmark times this computation
next to every qgf command, on the same core, and reports each command's wall
time in units of it. Its parts mirror what qgf spends time on, because host
load slows each kind of work by a different factor: a pure-Python dynamic
programme (the benchmark's own Fréchet reference, standing for qgf's Fréchet
loop and its cli and autodiff bookkeeping), a chain of small NumPy ops
(desk-sized recurrent cells), mid-sized matrix products (paper-width layers),
and fresh sequence-sized buffers plus a stream through arrays larger than the
cache (long-sequence gradients, memory-bound). It never calls qgf, so a change
to qgf cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

from frechet_ref import frechet_1d


class Reference:
    """Call it to run the reference computation once; returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.p = rng.standard_normal(110).tolist()
        self.q = rng.standard_normal(110).tolist()
        self.h0 = rng.standard_normal((32, 16))
        self.w = 0.1 * rng.standard_normal((16, 16))
        self.a = rng.standard_normal((1024, 90))
        self.b = 0.05 * rng.standard_normal((90, 256))
        self.step = rng.standard_normal((32, 90))
        self.stream = rng.standard_normal(2_000_000)
        self.stream_out = np.empty_like(self.stream)

    def _small_ops(self) -> np.ndarray:
        h = self.h0
        for _ in range(350):
            h = np.tanh(h @ self.w + 0.1) * 0.5 + h * 0.5
        return h

    def _matmuls(self) -> np.ndarray:
        for _ in range(2):
            z = self.a @ self.b
            z = np.tanh(z) * (1.0 - z)
        return z

    def _memory(self) -> float:
        total = 0.0
        for t in range(0, 256, 64):  # one time step's gradient scattered into a (B, T, H) buffer
            grad = np.zeros((32, 256, 90))
            grad[:, t, :] += self.step
            total += grad.sum()
        np.multiply(self.stream, 1.0001, out=self.stream_out)
        np.add(self.stream_out, self.stream, out=self.stream_out)
        return total + self.stream_out[-1]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        frechet_1d(self.p, self.q)
        self._small_ops()
        self._matmuls()
        self._memory()
        return time.perf_counter() - t0
