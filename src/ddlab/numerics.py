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


# counters per cached block of Philox keys; a divisor of 2^32, so the words of a
# counter above its lowest are the same across a block
KEY_BLOCK = 256
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4


def _powers(a: int, m: int, n: int) -> np.ndarray:
    """The column [a, a*m, ..., a*m^n] mod 2^32."""
    out = [a]
    for _ in range(n):
        out.append(out[-1] * m & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of `v`, where the row's call xors
    with consts[i] and multiplies by consts[i + 1]."""
    v = v ^ consts[:-1]
    v *= consts[1:]
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words `x` with hashed words `y`."""
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _SHIFT
    return x


@functools.lru_cache(maxsize=64)
def _key_block(seed: int, path: tuple, block: int) -> np.ndarray:
    """The Philox keys, (KEY_BLOCK, 2) uint64, that numpy's
    SeedSequence([seed mod 2^64, *path, counter]).generate_state(2, uint64)
    gives for the counters block * KEY_BLOCK + i: its mixing, run on every
    counter of the block at once."""
    head = [w for n in (seed & 0xFFFFFFFFFFFFFFFF, *path) for w in _words(n)]
    low, *high = _words(block * KEY_BLOCK)
    n = len(head) + 1 + len(high)
    entropy = np.zeros((max(n, _POOL), KEY_BLOCK), dtype=np.uint32)
    entropy[:n] = np.array(head + [0] + high, dtype=np.uint32)[:, None]
    entropy[len(head)] = np.arange(low, low + KEY_BLOCK, dtype=np.uint32)
    # the hash constant advances once per hashmix call, whatever the data
    consts = _powers(_INIT_A, _MULT_A, _POOL * (_POOL + max(n - _POOL, 0)))
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    i = _POOL
    for src in range(_POOL):  # every pool word into every other
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[i:i + _POOL]))
        i += _POOL - 1
    for src in range(_POOL, n):  # the entropy past the pool, into every pool word
        pool = _mix(pool, _hashmix(entropy[src], consts[i:i + _POOL + 1]))
        i += _POOL
    words = _hashmix(pool, _powers(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    keys = np.stack([words[0] | words[1] << np.uint64(32),
                     words[2] | words[3] << np.uint64(32)], axis=1)
    keys.flags.writeable = False  # the cache hands it to every draw
    return keys


# Philox's counter and buffer words as a new Philox sets them
_ZEROS = [0, 0, 0, 0]


@dataclass
class RngState:
    """Counter-based random source.

    A stream is identified by (seed, path); `child` appends to the path so
    child streams never collide with the parent. Every draw keys Philox on
    (seed, path, counter), so the full state is three plain integers/tuples
    and serializes trivially. The key is numpy's SeedSequence hash of the
    list [seed mod 2^64, *path, counter]; `_key_block` computes it for 256
    counters at once and caches them, and each draw resets one Generator per
    state to that key with a zero counter and empty buffers. The streams are
    those of a fresh Philox(SeedSequence(...)) per draw, without building one.
    The Generator makes an RngState unsafe to share across threads; nothing
    draws on the no-grad forward's helper thread (`nets._run_split`).
    """

    seed: int
    path: tuple = ()
    counter: int = field(default=0)
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def child(self, tag: int) -> "RngState":
        return RngState(self.seed, self.path + (tag,), 0)

    def _generator(self) -> np.random.Generator:
        block, i = divmod(self.counter, KEY_BLOCK)
        key = _key_block(self.seed, self.path, block)[i].tolist()
        self.counter += 1
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=0))
        self._gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self._gen

    def uniform(self, size=None, low=0.0, high=1.0) -> np.ndarray:
        return self._generator().uniform(low, high, size=size)

    def normal(self, size=None) -> np.ndarray:
        return self._generator().standard_normal(size=size)

    def gumbel(self, size) -> np.ndarray:
        # -log(-log(u)), computed in the array of u: no temporary of its size
        g = self._generator().uniform(1e-300, 1.0, size=size)
        np.log(g, out=g)
        np.negative(g, out=g)
        np.log(g, out=g)
        return np.negative(g, out=g)

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


# widest last axis whose max `_max` takes one column at a time
MAX_COLUMNS = 8


def _max(x: np.ndarray, axis: int) -> np.ndarray:
    """np.max(x, axis, keepdims=True). numpy's reduction over a short last
    axis is slow, so a last axis of at most MAX_COLUMNS entries is taken
    column by column into one buffer; max is exact, so the result is the
    same. On a 2-core x86-64 host (numpy 2.4), (1024, 5, 4) took 390 us by
    np.max and 24 us by columns, (64, 5, 8) 36 and 20 us; wider or other
    axes keep np.max, which is faster there ((64, 5, 64): 46 us against 174)."""
    if x.ndim == 0 or axis not in (-1, x.ndim - 1) or not 1 <= x.shape[-1] <= MAX_COLUMNS:
        return np.max(x, axis=axis, keepdims=True)
    out = x[..., :1].copy()
    for c in range(1, x.shape[-1]):
        np.maximum(out, x[..., c:c + 1], out=out)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    _check_finite(logits, "logits")
    shifted = logits - _max(logits, axis)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    _check_finite(logits, "logits")
    shifted = logits - _max(logits, axis)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# how far a row of probabilities may stray below 0 or from a sum of 1
ROW_TOL = 1e-6


def row_error(probs: np.ndarray) -> str | None:
    """Why `probs` (last axis the categories) is not a stack of finite
    probability rows within ROW_TOL, or None when it is. Each test asks that
    every entry passes, so NaN, which fails every comparison, fails it."""
    if not (probs >= -ROW_TOL).all():
        return "non-finite probabilities" if np.isnan(probs).any() else "negative probabilities"
    dev = np.abs(np.sum(probs, axis=-1) - 1.0)
    if not (dev <= ROW_TOL).all():
        if not np.isfinite(dev).all():
            return "non-finite probabilities"
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
    # the noise first, then the log-probabilities in one temporary
    g = rng.gumbel(size=probs.shape)
    logp = np.maximum(probs, 1e-300)
    g += np.log(logp, out=logp)
    return np.argmax(g, axis=-1)


def inverse_cdf_sample(probs: np.ndarray, rng: RngState) -> np.ndarray:
    """Draw one token per row of `probs` (last axis is the category axis) by
    inverse CDF from one uniform u per row: the token is the number of running
    sums c_0 ... c_{K-2}, added left to right, that are <= u * c_{K-1}.

    Takes rows the caller has already checked (`row_error`); it checks none.
    A zero entry leaves the running sum as it is, so its category's interval
    is empty and is never drawn, whether it comes first, in the middle or
    last. numpy's uniform is at most 1 - 2^-53, so u * total < total and no
    clamp is needed. The sums are K column adds over the rows' shape; on
    (5000, 5, 5) rows, a 2-core x86-64 host (numpy 2.4) takes 0.41 ms against
    categorical_sample's 4.4 ms.
    """
    u = rng.uniform(size=probs.shape[:-1])
    sums = np.empty(probs.shape[-1:] + u.shape)
    sums[0] = probs[..., 0]
    for c in range(1, len(sums)):
        np.add(sums[c - 1], probs[..., c], out=sums[c])
    u *= sums[-1]
    return np.sum(sums[:-1] <= u, axis=0)


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
