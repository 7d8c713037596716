"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers the operation that produced it.
``backward`` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``. The op set is deliberately small: exactly what the
recurrent generator, the convolutional discriminator, and the autoencoder
baselines need.

Inside a ``with no_grad():`` block ops compute the same values but record
nothing: every result is a bare, untracked ``Tensor``. Use it for forward
passes whose graph would never be walked, such as finite-difference probes.

``backward`` releases the graph as it goes, like PyTorch's default
``retain_graph=False``: once a node's backward has run, the node drops its
``grad``, its closure (and with it every array the op saved) and its parent
links (``_parents`` becomes None), keeping only ``data``. A graph is walked
once; a later ``backward`` that reaches a released node raises
``DetachedGraphError``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DetachedGraphError,
    NonScalarLossError,
    ShapeMismatchError,
)


class Tensor:
    """Shaped float64 value with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NonScalarLossError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(grad, dtype=np.float64)  # a copy this node owns and adds into
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Evaluate ops without recording a graph; tracking resumes on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_tracking(*tensors: Tensor) -> bool:
    """Whether an op over ``tensors`` records a graph node right now."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
    tracked = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=tracked, _parents=parents, _backward=backward if tracked else None)


# --- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bwd)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    out_data = a.data ** p

    def bwd(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), bwd)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), bwd)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def bwd(g):
        _accumulate(a, g / a.data)

    return _make(out_data, (a,), bwd)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bwd)


def _logistic(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # the formula behind ``logistic``, unguarded: the caller ignores overflow in exp
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as a new array. Below x = -709 exp overflows to inf and the
    result is 0, within a denormal of the truth."""
    with np.errstate(over="ignore"):
        return _logistic(x, np.empty(np.shape(x)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = logistic(a.data)

    def bwd(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the open interval."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def bwd(g):
        _accumulate(a, g * inside)

    return _make(out_data, (a,), bwd)


# --- linear algebra and shape ops --------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), bwd)


def select(a, axis: int, index: int) -> Tensor:
    """Take one slice along ``axis``, dropping that axis."""
    a = as_tensor(a)
    out_data = np.take(a.data, index, axis=axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        full[tuple(sl)] = g
        _accumulate(a, full)

    return _make(out_data, (a,), bwd)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``."""
    a = as_tensor(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out_data = a.data[sl]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        _accumulate(a, full)

    return _make(out_data, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(t) for t in tensors)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(p, g[tuple(sl)])

    return _make(out_data, parts, bwd)


# --- reductions ---------------------------------------------------------------

def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _make(out_data, (a,), bwd)


def mean(a) -> Tensor:
    """Mean over every element."""
    a = as_tensor(a)
    return mul(tensor_sum(a), 1.0 / a.data.size)


# --- graph traversal ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf reachable from ``loss``.

    ``loss`` must be a scalar produced from at least one tensor with
    ``requires_grad=True``; gradient accumulation is deterministic for a
    fixed graph, which is released as it runs (see the module docstring).
    """
    if loss.size != 1:
        raise NonScalarLossError(f"backward needs a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise DetachedGraphError("loss does not depend on any tracked tensor")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack_ = [(loss, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise DetachedGraphError("backward reached a node an earlier backward released")
        visited.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack_.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # the list no longer holds it, so releasing it can free it
        run, grad = node._backward, node.grad
        if run is not None:  # a leaf keeps its grad
            node._backward, node._parents, node.grad = None, None, None
            if grad is not None:
                run(grad)
