"""Model parameters and their optimizer.

`ParamStore` keeps every weight of a model in one flat vector, with a
parallel gradient buffer and named segments; the fused backward in `nets`
writes the buffer and `adam_step` applies it. The reverse-mode tape that
checks those gradients lives with the tests (`tests/oracle.py`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError


class AutodiffError(ValueError):
    pass


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
