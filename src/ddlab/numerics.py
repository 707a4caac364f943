"""Stable categorical primitives, a splittable, replayable RNG, and the
grouping of an array's distinct rows.

Every probability is float64. All functions are pure: given the same inputs
(including RNG state) they return bit-identical results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class NumericsError(ValueError):
    pass


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int, at least one: how
    numpy's SeedSequence reads an int entry of its entropy."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@functools.lru_cache(maxsize=256)
def _stream_words(seed: int, path: tuple) -> tuple:
    """The entropy words of a stream: the 64-bit seed, then each path tag."""
    return tuple(w for n in (seed & 0xFFFFFFFFFFFFFFFF, *path) for w in _words(n))


@dataclass
class RngState:
    """Counter-based random source.

    A stream is identified by (seed, path); `child` appends to the path so
    child streams never collide with the parent. Every draw derives a fresh
    Philox generator from (seed, path, counter), so the full state is three
    plain integers/tuples and serializes trivially. The SeedSequence gets its
    entropy as one uint32 array: the same key as the list [seed mod 2^64,
    *path, counter], without numpy coercing a Python list on every draw.
    """

    seed: int
    path: tuple = ()
    counter: int = field(default=0)

    def child(self, tag: int) -> "RngState":
        return RngState(self.seed, self.path + (tag,), 0)

    def _generator(self) -> np.random.Generator:
        entropy = np.array(_stream_words(self.seed, self.path) + tuple(_words(self.counter)),
                           dtype=np.uint32)
        self.counter += 1
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def uniform(self, size=None, low=0.0, high=1.0) -> np.ndarray:
        return self._generator().uniform(low, high, size=size)

    def normal(self, size=None) -> np.ndarray:
        return self._generator().standard_normal(size=size)

    def gumbel(self, size=None) -> np.ndarray:
        u = self._generator().uniform(1e-300, 1.0, size=size)
        return -np.log(-np.log(u))

    def integers(self, low, high, size=None) -> np.ndarray:
        return self._generator().integers(low, high, size=size)

    def state(self) -> dict:
        return {"seed": self.seed, "path": list(self.path), "counter": self.counter}

    @staticmethod
    def from_state(d: dict) -> "RngState":
        return RngState(int(d["seed"]), tuple(int(p) for p in d["path"]), int(d["counter"]))


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {name}")


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    _check_finite(logits, "logits")
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    _check_finite(logits, "logits")
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# how far a row of probabilities may stray below 0 or from a sum of 1
ROW_TOL = 1e-6


def row_error(probs: np.ndarray) -> str | None:
    """Why `probs` (last axis the categories) is not a stack of probability
    rows within ROW_TOL, or None when it is."""
    if np.any(probs < -ROW_TOL):
        return "negative probabilities"
    dev = np.abs(np.sum(probs, axis=-1) - 1.0)
    if np.any(dev > ROW_TOL):
        return f"rows must sum to 1 (max deviation {np.max(dev):.3g})"
    return None


def gumbel_argmax(logp: np.ndarray, rng: RngState) -> np.ndarray:
    """Draw one token per row of log-probabilities `logp` by Gumbel-argmax."""
    g = rng.gumbel(size=logp.shape)
    g += logp
    return np.argmax(g, axis=-1)


def categorical_sample(probs: np.ndarray, rng: RngState) -> np.ndarray:
    """Draw one token per row of `probs` (last axis is the category axis).

    Uses Gumbel-argmax on log-probabilities so that it composes with
    temperature-modified logits the same way as direct logit sampling.
    """
    probs = np.asarray(probs, dtype=np.float64)
    error = row_error(probs)
    if error is not None:
        raise NumericsError(error)
    # the noise first: its temporaries are freed before the log-probabilities exist
    g = rng.gumbel(size=probs.shape)
    g += np.log(np.maximum(probs, 1e-300))
    return np.argmax(g, axis=-1)


def distinct_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse): the distinct rows of the 2-D array `z` in lexicographic
    order, and for each row of `z` the index of its copy, so rows[inverse] == z.

    The same result as np.unique(z, axis=0, return_inverse=True), from one
    lexsort over the columns, which is several times faster on small columns.
    """
    order = np.lexsort(z.T[::-1])
    ordered = z[order]
    first = np.ones(len(z), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(z), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def one_hot(tokens: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[np.asarray(tokens)]


def entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    p = np.maximum(probs, 1e-300)
    return -np.sum(probs * np.log(p), axis=axis)
