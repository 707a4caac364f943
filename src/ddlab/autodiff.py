"""Minimal reverse-mode differentiation over numpy arrays.

The tape is the implicit DAG of `Var` nodes, rebuilt on every forward pass.
Every op below accepts a mix of `Var` and plain ndarrays; if no argument is
a `Var` the op falls through to numpy, so model code has a single forward
path for both training and no-grad evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import NumericsError


class AutodiffError(ValueError):
    pass


class Var:
    __slots__ = ("value", "parents", "grad", "store_ref")

    def __init__(self, value, parents=(), store_ref=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # tuple of (Var, grad_fn(out_grad) -> grad wrt parent)
        self.grad = None
        self.store_ref = store_ref  # (ParamStore, name) for leaves

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value_of(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _any_var(*args):
    return any(isinstance(a, Var) for a in args)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    if not _any_var(a, b):
        return value_of(a) + value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av + bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g, bv.shape)))
    return Var(out, tuple(parents))


def sub(a, b):
    return add(a, mul(b, -1.0))


def mul(a, b):
    if not _any_var(a, b):
        return value_of(a) * value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av * bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g * bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g * av, bv.shape)))
    return Var(out, tuple(parents))


def div(a, b):
    if not _any_var(a, b):
        return value_of(a) / value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av / bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g / bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)))
    return Var(out, tuple(parents))


def _rows_matmul(x, w):
    """x @ w as one 2-D product over all leading axes of x.

    numpy multiplies a stack of matrices one matrix at a time, which rounds
    differently from one product over the same rows; the fused network in
    `nets` runs the 2-D form, and so does the tape.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[-1],))


def matmul(a, b):
    """a @ b with b a 2-D weight matrix (the only case the models need)."""
    av, bv = value_of(a), value_of(b)
    if bv.ndim != 2:
        raise AutodiffError("matmul expects a 2-D right operand")
    out = _rows_matmul(av, bv)
    if not _any_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _rows_matmul(g, bv.T)))
    if isinstance(b, Var):
        parents.append((b, lambda g: av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])))
    return Var(out, tuple(parents))


def tanh(a):
    if not _any_var(a):
        return np.tanh(value_of(a))
    out = np.tanh(a.value)
    return Var(out, ((a, lambda g: g * (1.0 - out * out)),))


def exp(a):
    if not _any_var(a):
        return np.exp(value_of(a))
    out = np.exp(a.value)
    return Var(out, ((a, lambda g: g * out),))


def log(a, floor: float = 0.0):
    if not _any_var(a):
        return np.log(value_of(a) + floor) if floor else np.log(value_of(a))
    av = a.value + floor if floor else a.value
    out = np.log(av)
    return Var(out, ((a, lambda g: g / av),))


def reduce_sum(a, axis=None, keepdims=False):
    if not _any_var(a):
        return np.sum(value_of(a), axis=axis, keepdims=keepdims)
    av = a.value
    out = np.sum(av, axis=axis, keepdims=keepdims)

    def back(g):
        g = np.asarray(g)
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return Var(out, ((a, back),))


def reduce_mean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return div(reduce_sum(a, axis=axis, keepdims=keepdims), float(n))


def expand_dims(a, axis):
    if not _any_var(a):
        return np.expand_dims(value_of(a), axis)
    out = np.expand_dims(a.value, axis)
    return Var(out, ((a, lambda g: np.squeeze(g, axis=axis)),))


def swap_last_axes(a):
    if not _any_var(a):
        return np.swapaxes(value_of(a), -1, -2)
    out = np.swapaxes(a.value, -1, -2)
    return Var(out, ((a, lambda g: np.swapaxes(g, -1, -2)),))


def take_rows(table, indices):
    """Embedding lookup: table[indices] for a 2-D table and integer index array."""
    indices = np.asarray(indices)
    if not _any_var(table):
        return value_of(table)[indices]
    tv = table.value

    def back(g):
        out = np.zeros_like(tv)
        np.add.at(out, indices.ravel(), g.reshape(-1, tv.shape[-1]))
        return out

    return Var(tv[indices], ((table, back),))


def take_along_last(a, indices):
    """Gather scalar entries along the last axis (per-row class selection)."""
    indices = np.asarray(indices)
    if not _any_var(a):
        return np.take_along_axis(value_of(a), indices[..., None], axis=-1)[..., 0]
    av = a.value
    out = np.take_along_axis(av, indices[..., None], axis=-1)[..., 0]

    def back(g):
        full = np.zeros_like(av)
        np.put_along_axis(full, indices[..., None], g[..., None], axis=-1)
        return full

    return Var(out, ((a, back),))


def log_softmax(a, axis: int = -1):
    out = numerics.log_softmax(value_of(a), axis=axis)
    if not _any_var(a):
        return out
    p = np.exp(out)
    return Var(out, ((a, lambda g: g - p * np.sum(g, axis=axis, keepdims=True)),))


def softmax(a, axis: int = -1):
    out = numerics.softmax(value_of(a), axis=axis)
    if not _any_var(a):
        return out
    return Var(out, ((a, lambda g: out * (g - np.sum(g * out, axis=axis, keepdims=True))),))


def stop_gradient(a):
    return value_of(a).copy() if isinstance(a, Var) else np.asarray(a, dtype=np.float64)


def backward(loss: Var) -> None:
    """Reverse-accumulate d(loss)/d(leaf) into each leaf's ParamStore grads.

    Visits every node exactly once in reverse topological order.
    """
    if not isinstance(loss, Var):
        raise AutodiffError("loss is not part of the tape")
    if loss.value.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.value.shape}")

    topo: list[Var] = []
    state: dict[int, int] = {}  # 0 = entered, 1 = done
    stack = [loss]
    while stack:
        node = stack.pop()
        sid = id(node)
        if sid in state:
            if state[sid] == 0:
                state[sid] = 1
                topo.append(node)
            continue
        state[sid] = 0
        stack.append(node)
        for parent, _ in node.parents:
            if id(parent) not in state:
                stack.append(parent)
            elif state[id(parent)] == 0 and parent is not node:
                # ancestor still open: the tape is a DAG built append-only,
                # so a genuine back-edge cannot occur; guard anyway
                raise AutodiffError("cycle in tape")

    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node.grad is None:
            continue
        for parent, grad_fn in node.parents:
            contrib = grad_fn(node.grad)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + contrib
        if node.store_ref is not None:
            store, name = node.store_ref
            store.accumulate(name, node.grad)


class ParamStore:
    """Flat parameter vector with a parallel gradient buffer and named segments."""

    def __init__(self):
        self.values = np.zeros(0, dtype=np.float64)
        self.grads = np.zeros(0, dtype=np.float64)
        self.segments: dict[str, tuple[slice, tuple]] = {}
        self._view_cache: dict[str, tuple] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self.segments:
            raise AutodiffError(f"duplicate parameter block {name!r}")
        array = np.asarray(array, dtype=np.float64)
        start = self.values.size
        self.values = np.concatenate([self.values, array.ravel()])
        self.grads = np.zeros_like(self.values)
        self.segments[name] = (slice(start, start + array.size), array.shape)

    def get(self, name: str) -> np.ndarray:
        sl, shape = self.segments[name]
        return self.values[sl].reshape(shape)

    def set(self, name: str, array: np.ndarray) -> None:
        sl, shape = self.segments[name]
        self.values[sl] = np.asarray(array, dtype=np.float64).reshape(-1)

    def grad(self, name: str) -> np.ndarray:
        sl, shape = self.segments[name]
        return self.grads[sl].reshape(shape)

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        sl, _ = self.segments[name]
        self.grads[sl] += np.asarray(grad, dtype=np.float64).ravel()

    def zero_grad(self) -> None:
        self.grads[:] = 0.0

    def leaves(self) -> dict[str, Var]:
        return {name: Var(self.get(name), store_ref=(self, name)) for name in self.segments}

    def arrays(self) -> dict[str, np.ndarray]:
        """Named views into `values`."""
        return dict(self._views("values"))

    def grad_arrays(self) -> dict[str, np.ndarray]:
        """Named views into `grads`, for writing a gradient in place."""
        return dict(self._views("grads"))

    def _views(self, attr: str) -> dict[str, np.ndarray]:
        # built once per flat array; rebuilt when `add` or a caller replaces it
        flat = getattr(self, attr)
        cached = self._view_cache.get(attr)
        if cached is None or cached[0] is not flat:
            cached = (flat, {name: flat[sl].reshape(shape)
                             for name, (sl, shape) in self.segments.items()})
            self._view_cache[attr] = cached
        return cached[1]

    def copy(self) -> "ParamStore":
        out = ParamStore()
        out.values = self.values.copy()
        out.grads = np.zeros_like(out.values)
        out.segments = dict(self.segments)
        return out

    def copy_values_from(self, other: "ParamStore") -> None:
        for name in self.segments:
            if name in other.segments:
                self.set(name, other.get(name))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def for_store(store: ParamStore) -> "AdamState":
        return AdamState(np.zeros_like(store.values), np.zeros_like(store.values))


def adam_step(store: ParamStore, state: AdamState, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    g = store.grads
    if not np.all(np.isfinite(g)):
        raise NumericsError("non-finite gradients in adam_step")
    state.step += 1
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    mhat = state.m / (1.0 - beta1 ** state.step)
    vhat = state.v / (1.0 - beta2 ** state.step)
    store.values -= lr * mhat / (np.sqrt(vhat) + eps)


@dataclass
class FiniteDiffReport:
    max_rel_error: float
    worst_index: int
    analytic_at_worst: float
    numeric_at_worst: float
    n_checked: int


def finite_diff_check(f, store: ParamStore, epsilon=1e-5, max_coords=None, rng=None) -> FiniteDiffReport:
    """Compare analytic gradients against central differences of the scalar `f()`.

    `f` returns a tape Var, whose backward() gives the gradient, or a plain
    loss after writing its own gradient into `store.grads` (a fused step).
    It must be deterministic given the parameter values (fix its RngState).
    Checks all coordinates, or a random subset of `max_coords` for big stores.
    """
    store.zero_grad()
    loss = f()
    if isinstance(loss, Var):
        backward(loss)
    analytic = store.grads.copy()

    n = store.values.size
    coords = np.arange(n)
    if max_coords is not None and n > max_coords:
        gen = np.random.Generator(np.random.PCG64(0 if rng is None else rng.seed))
        coords = gen.choice(n, size=max_coords, replace=False)

    max_rel, worst, a_w, n_w = 0.0, -1, 0.0, 0.0
    for i in coords:
        orig = store.values[i]
        store.values[i] = orig + epsilon
        up = float(value_of(f()))
        store.values[i] = orig - epsilon
        down = float(value_of(f()))
        store.values[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        scale = max(abs(analytic[i]), abs(numeric), 1e-6)
        rel = abs(analytic[i] - numeric) / scale
        if rel > max_rel:
            max_rel, worst, a_w, n_w = rel, int(i), float(analytic[i]), float(numeric)
    return FiniteDiffReport(max_rel, worst, a_w, n_w, len(coords))
