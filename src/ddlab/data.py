"""Synthetic categorical datasets with exact, enumerable distributions.

Every dataset kind exposes its exact distribution q(x) over all K^D
sequences, which is what the enumeration oracles verify against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import RngState, categorical_sample


class DatasetError(ValueError):
    pass


ENUM_GUARD = 20000


def all_sequences(seq_len: int, vocab: int) -> np.ndarray:
    """All vocab^seq_len sequences in lexicographic order, shape (N, D)."""
    if vocab ** seq_len > ENUM_GUARD:
        raise DatasetError(f"state space {vocab}^{seq_len} exceeds enumeration guard")
    grid = np.indices((vocab,) * seq_len, dtype=np.int64)
    return np.ascontiguousarray(grid.reshape(seq_len, vocab ** seq_len).T)


def seq_index(x: np.ndarray, vocab: int) -> np.ndarray:
    """Mixed-radix index of each sequence row (inverse of all_sequences order)."""
    x = np.asarray(x)
    idx = np.zeros(x.shape[:-1], dtype=np.int64)
    for d in range(x.shape[-1]):
        idx = idx * vocab + x[..., d]
    return idx


@dataclass
class SyntheticDataset:
    """kind: correlated_bits | mode_mixture | markov_chain."""

    kind: str
    seq_len: int
    vocab: int
    modes: np.ndarray | None = None          # (n_modes, D) for mode_mixture
    mode_weights: np.ndarray | None = None   # (n_modes,)
    transition: np.ndarray | None = None     # (K, K) row-stochastic, markov_chain
    initial: np.ndarray | None = None        # (K,)
    _q: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.seq_len < 1 or self.vocab < 1:
            raise DatasetError(f"seq_len and vocab must be >= 1, got {self.seq_len}, {self.vocab}")
        if self.kind == "correlated_bits":
            # all-equal sequences, equally likely: perfectly correlated tosses
            self.modes = np.tile(np.arange(self.vocab)[:, None], (1, self.seq_len))
            self.mode_weights = np.full(self.vocab, 1.0 / self.vocab)
        elif self.kind == "mode_mixture":
            if self.modes is None:
                raise DatasetError("mode_mixture needs a mode table")
            self.modes = np.asarray(self.modes, dtype=np.int64)
            if self.mode_weights is None:
                self.mode_weights = np.full(len(self.modes), 1.0 / len(self.modes))
            self.mode_weights = np.asarray(self.mode_weights, dtype=np.float64)
        elif self.kind == "markov_chain":
            if self.transition is None:
                raise DatasetError("markov_chain needs a transition matrix")
            self.transition = np.asarray(self.transition, dtype=np.float64)
            if self.initial is None:
                self.initial = np.full(self.vocab, 1.0 / self.vocab)
            self.initial = np.asarray(self.initial, dtype=np.float64)
        else:
            raise DatasetError(f"unknown dataset kind {self.kind!r}")

    @property
    def enumerable(self) -> bool:
        return self.vocab ** self.seq_len <= ENUM_GUARD

    def exact_q(self) -> np.ndarray:
        """q(x) over all sequences, indexed per seq_index."""
        if self._q is not None:
            return self._q
        n = self.vocab ** self.seq_len
        q = np.zeros(n)
        if self.kind in ("correlated_bits", "mode_mixture"):
            idx = seq_index(self.modes, self.vocab)
            np.add.at(q, idx, self.mode_weights)
        else:
            seqs = all_sequences(self.seq_len, self.vocab)
            q = self.initial[seqs[:, 0]].copy()
            for d in range(1, self.seq_len):
                q *= self.transition[seqs[:, d - 1], seqs[:, d]]
        total = q.sum()
        if abs(total - 1.0) > 1e-9:
            raise DatasetError(f"q sums to {total}, expected 1")
        self._q = q
        return q

    def sample(self, batch: int, rng: RngState) -> np.ndarray:
        if self.kind in ("correlated_bits", "mode_mixture"):
            which = categorical_sample(np.tile(self.mode_weights, (batch, 1)), rng)
            return self.modes[which]
        x = np.empty((batch, self.seq_len), dtype=np.int64)
        x[:, 0] = categorical_sample(np.tile(self.initial, (batch, 1)), rng)
        for d in range(1, self.seq_len):
            x[:, d] = categorical_sample(self.transition[x[:, d - 1]], rng)
        return x


def make_dataset(kind: str, seq_len: int, vocab: int, seed: int = 0) -> SyntheticDataset:
    """Default instances used by the CLI; fixed parameters per (kind, D, K, seed)."""
    if kind == "correlated_bits":
        return SyntheticDataset(kind, seq_len, vocab)
    if kind == "mode_mixture":
        gen = np.random.Generator(np.random.PCG64(seed))
        n_modes = vocab
        modes = gen.integers(0, vocab, size=(n_modes, seq_len))
        return SyntheticDataset(kind, seq_len, vocab, modes=modes)
    if kind == "markov_chain":
        gen = np.random.Generator(np.random.PCG64(seed))
        raw = gen.uniform(0.2, 1.0, size=(vocab, vocab)) + 2.0 * np.eye(vocab)
        transition = raw / raw.sum(axis=1, keepdims=True)
        return SyntheticDataset(kind, seq_len, vocab, transition=transition)
    raise DatasetError(f"unknown dataset kind {kind!r}")
