"""Synthetic dataset tests: enumeration order, exact distributions, sampling."""

import itertools

import numpy as np
import pytest

from ddlab.data import (ENUM_GUARD, DatasetError, SyntheticDataset,
                        all_sequences, make_dataset, seq_index)
from ddlab.numerics import RngState, categorical_sample


def test_all_sequences_order_and_shape():
    seqs = all_sequences(2, 2)
    np.testing.assert_array_equal(seqs, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_all_sequences_matches_itertools_product():
    for seq_len, vocab in [(1, 1), (1, 5), (3, 2), (2, 4), (5, 3), (7, 4)]:
        seqs = all_sequences(seq_len, vocab)
        expected = np.array(list(itertools.product(range(vocab), repeat=seq_len)), dtype=np.int64)
        assert seqs.dtype == expected.dtype and seqs.flags.c_contiguous
        np.testing.assert_array_equal(seqs, expected)


def test_seq_index_inverts_enumeration():
    for vocab, seq_len in [(2, 3), (3, 2), (4, 2)]:
        seqs = all_sequences(seq_len, vocab)
        np.testing.assert_array_equal(seq_index(seqs, vocab), np.arange(len(seqs)))


def test_enum_guard():
    with pytest.raises(DatasetError):
        all_sequences(20, 4)


@pytest.mark.parametrize("kind", ["correlated_bits", "mode_mixture", "markov_chain"])
@pytest.mark.parametrize("seq_len, vocab", [(2, 0), (0, 2)])
def test_empty_space_is_dataset_error(kind, seq_len, vocab):
    with pytest.raises(DatasetError, match="must be >= 1"):
        make_dataset(kind, seq_len, vocab)


def test_correlated_bits_exact_q():
    ds = make_dataset("correlated_bits", 2, 2)
    np.testing.assert_allclose(ds.exact_q(), [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_correlated_bits_samples_are_constant_rows():
    ds = make_dataset("correlated_bits", 4, 3)
    x = ds.sample(500, RngState(0))
    assert np.all(x == x[:, :1])
    freqs = np.bincount(x[:, 0], minlength=3) / 500
    assert np.max(np.abs(freqs - 1 / 3)) < 0.08


def test_mode_mixture_exact_q():
    ds = SyntheticDataset("mode_mixture", 2, 2, modes=np.array([[0, 1], [1, 0]]),
                          mode_weights=np.array([0.25, 0.75]))
    np.testing.assert_allclose(ds.exact_q(), [0.0, 0.25, 0.75, 0.0], atol=1e-12)


def test_markov_chain_exact_q_matches_histogram():
    ds = make_dataset("markov_chain", 3, 2, seed=5)
    q = ds.exact_q()
    np.testing.assert_allclose(q.sum(), 1.0, atol=1e-12)
    x = ds.sample(200_000, RngState(1))
    freqs = np.bincount(seq_index(x, 2), minlength=8) / x.shape[0]
    assert 0.5 * np.sum(np.abs(freqs - q)) < 0.01


def test_mode_mixture_sampling_matches_weights():
    ds = make_dataset("mode_mixture", 3, 4, seed=2)
    q = ds.exact_q()
    x = ds.sample(100_000, RngState(3))
    freqs = np.bincount(seq_index(x, 4), minlength=64) / x.shape[0]
    assert 0.5 * np.sum(np.abs(freqs - q)) < 0.01


def test_dataset_validation():
    with pytest.raises(DatasetError):
        SyntheticDataset("mode_mixture", 2, 2)  # no modes
    with pytest.raises(DatasetError):
        SyntheticDataset("markov_chain", 2, 2)  # no transition
    with pytest.raises(DatasetError):
        make_dataset("gaussian_blobs", 2, 2)


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0]])
def test_non_finite_mode_weights_are_dataset_error(weights):
    # NaN fails every comparison, so a check of the form "any entry bad" let
    # [nan, 1.0] through and the sampler drew only mode 0
    with pytest.raises(DatasetError, match="non-finite"):
        SyntheticDataset("mode_mixture", 2, 2, modes=np.array([[0, 0], [1, 1]]),
                         mode_weights=weights)


def test_make_dataset_is_seed_deterministic():
    a = make_dataset("markov_chain", 2, 3, seed=9)
    b = make_dataset("markov_chain", 2, 3, seed=9)
    np.testing.assert_array_equal(a.transition, b.transition)


def test_enumerable_property():
    assert make_dataset("correlated_bits", 2, 2).enumerable
    assert not SyntheticDataset("correlated_bits", 30, 2).enumerable
    assert ENUM_GUARD == 20000


def _loop_sample(ds, batch, rng):
    """The sampler as a `categorical_sample` per position on the dataset's rows."""
    if ds.kind != "markov_chain":
        return ds.modes[categorical_sample(np.tile(ds.mode_weights, (batch, 1)), rng)]
    x = np.empty((batch, ds.seq_len), dtype=np.int64)
    x[:, 0] = categorical_sample(np.tile(ds.initial, (batch, 1)), rng)
    for d in range(1, ds.seq_len):
        x[:, d] = categorical_sample(ds.transition[x[:, d - 1]], rng)
    return x


@pytest.mark.parametrize("kind", ["correlated_bits", "mode_mixture", "markov_chain"])
def test_sample_matches_categorical_sample_per_position(kind):
    # the same draws in the same order: equal tokens and equal RNG counters
    for seed in range(4):
        ds = make_dataset(kind, 5, 4, seed=seed)
        fast, loop = RngState(seed).child(7), RngState(seed).child(7)
        for batch in (1, 64, 301):
            np.testing.assert_array_equal(ds.sample(batch, fast), _loop_sample(ds, batch, loop))
            assert fast.counter == loop.counter
    # a zero weight and a zero transition never drawn
    ds = SyntheticDataset("markov_chain", 4, 3, initial=[0.0, 0.5, 0.5],
                          transition=[[0.5, 0.5, 0], [0, 1, 0], [0.2, 0.3, 0.5]])
    np.testing.assert_array_equal(ds.sample(500, RngState(1)), _loop_sample(ds, 500, RngState(1)))


@pytest.mark.parametrize("field, rows, message", [
    ("mode_weights", [0.5, 0.6], "mode_weights: rows must sum to 1"),
    ("mode_weights", [1.5, -0.5], "mode_weights: negative"),
    ("transition", [[0.5, 0.5], [0.9, 0.2]], "transition: rows must sum to 1"),
    ("transition", [[1.1, -0.1], [0.5, 0.5]], "transition: negative"),
    ("initial", [0.3, 0.3], "initial: rows must sum to 1"),
])
def test_bad_rows_raise_at_construction(field, rows, message):
    if field == "mode_weights":
        kwargs = {"modes": np.array([[0, 1], [1, 0]])}
        kind = "mode_mixture"
    else:
        kwargs = {"transition": np.full((2, 2), 0.5)}
        kind = "markov_chain"
    kwargs[field] = np.array(rows)
    with pytest.raises(DatasetError, match=message):
        SyntheticDataset(kind, 2, 2, **kwargs)
