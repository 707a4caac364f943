"""Model parameters and their optimizer.

`ParamStore` keeps every weight of a model in one flat vector, with a
parallel gradient buffer and named views of both; the fused backward in `nets`
writes the buffer and `adam_step` applies it. The reverse-mode tape that
checks those gradients lives with the tests (`tests/oracle.py`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError


class ParamStore:
    """Every weight of a model in one flat vector, with a parallel gradient buffer.

    Built once from named arrays: `values` holds them back to back in the
    dict's order, and `arrays()` and `grad_arrays()` are named views into
    `values` and `grads`. Both buffers are only ever written in place, so
    the views stay theirs.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.values = np.concatenate([a.ravel() for a in arrays.values()])
        self.grads = np.zeros_like(self.values)
        self._value_views, self._grad_views = {}, {}
        start = 0
        for name, a in arrays.items():
            self._value_views[name] = self.values[start:start + a.size].reshape(a.shape)
            self._grad_views[name] = self.grads[start:start + a.size].reshape(a.shape)
            start += a.size

    def arrays(self) -> dict[str, np.ndarray]:
        """Named views into `values`."""
        return dict(self._value_views)

    def grad_arrays(self) -> dict[str, np.ndarray]:
        """Named views into `grads`, for writing a gradient in place."""
        return dict(self._grad_views)

    def copy(self) -> "ParamStore":
        """A store with the same layout and a copy of `values` (zero `grads`)."""
        return ParamStore(self._value_views)


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
