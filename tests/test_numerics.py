"""Unit tests for the RNG and categorical primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from ddlab.numerics import (NumericsError, RngState, categorical_sample, distinct_rows,
                            entropy, log_softmax, one_hot,
                            softmax)
from oracle import rng_generator


def test_softmax_hand_value():
    # e^0 = 1, e^{ln 3} = 3
    out = softmax(np.array([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_log_softmax_hand_value():
    out = log_softmax(np.array([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out, np.log([0.25, 0.75]), atol=1e-12)


def test_softmax_overflow_safe():
    out = softmax(np.array([1000.0, 1000.0, 0.0]))
    np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_softmax_rejects_nan():
    with pytest.raises(NumericsError):
        softmax(np.array([0.0, np.nan]))


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(logits):
    out = softmax(np.array(logits))
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= 0)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_log_softmax_shift_invariant(logits, shift):
    a = log_softmax(np.array(logits))
    b = log_softmax(np.array(logits) + shift)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_categorical_sample_frequencies():
    rng = RngState(0)
    probs = np.tile([0.5, 0.5], (100_000, 1))
    draws = categorical_sample(probs, rng)
    freq0 = np.mean(draws == 0)
    assert 0.49 <= freq0 <= 0.51


def test_categorical_sample_chi_square():
    rng = RngState(1)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    draws = categorical_sample(np.tile(p, (100_000, 1)), rng)
    counts = np.bincount(draws, minlength=4)
    _, pval = stats.chisquare(counts, 100_000 * p)
    assert pval > 1e-4


def test_categorical_sample_rejects_bad_rows():
    rng = RngState(0)
    with pytest.raises(NumericsError):
        categorical_sample(np.array([[0.9, 0.3]]), rng)
    with pytest.raises(NumericsError):
        categorical_sample(np.array([[1.2, -0.2]]), rng)


def test_one_hot():
    out = one_hot(np.array([[0, 2]]), 3)
    assert out.shape == (1, 2, 3)
    np.testing.assert_array_equal(out[0, 0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(out[0, 1], [0.0, 0.0, 1.0])


def test_entropy_values():
    assert entropy(np.array([1.0, 0.0])) == 0.0
    np.testing.assert_allclose(entropy(np.full(4, 0.25)), np.log(4.0), atol=1e-12)


def test_rng_streams_are_reproducible():
    a = RngState(42).uniform(size=5)
    b = RngState(42).uniform(size=5)
    np.testing.assert_array_equal(a, b)


def test_rng_split_streams_differ():
    parent = RngState(42)
    c0, c1 = parent.child(0), parent.child(1)
    assert not np.array_equal(c0.uniform(size=5), c1.uniform(size=5))
    assert not np.array_equal(RngState(42).uniform(size=5), c0.uniform(size=5))


def test_rng_counter_advances():
    rng = RngState(7)
    first = rng.uniform(size=3)
    second = rng.uniform(size=3)
    assert not np.array_equal(first, second)


def test_rng_state_round_trip():
    rng = RngState(9, (1, 2))
    rng.uniform(size=4)
    restored = RngState.from_state(rng.state())
    np.testing.assert_array_equal(rng.normal(size=6), restored.normal(size=6))


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 7, 2 ** 64 - 1, -3])
@pytest.mark.parametrize("path", [(), (3,), (2 ** 32, 5), (1, 2 ** 64 + 9, 0)])
@pytest.mark.parametrize("counter", [0, 1, 2 ** 32, 2 ** 40 + 3])
def test_rng_draws_match_list_keyed_generator(seed, path, counter):
    # the uint32 entropy array must key the same stream as the list
    # [seed mod 2^64, *path, counter] that numpy coerces word by word
    draws = {
        "uniform": (lambda r: r.uniform(size=7), lambda g: g.uniform(0.0, 1.0, size=7)),
        "normal": (lambda r: r.normal(size=(2, 3)), lambda g: g.standard_normal(size=(2, 3))),
        "gumbel": (lambda r: r.gumbel(size=5),
                   lambda g: -np.log(-np.log(g.uniform(1e-300, 1.0, size=5)))),
        "integers": (lambda r: r.integers(0, 1000, size=9),
                     lambda g: g.integers(0, 1000, size=9)),
    }
    for name, (draw, want) in draws.items():
        rng = RngState(seed, path, counter)
        expected = want(rng_generator(rng))
        np.testing.assert_array_equal(draw(rng), expected, err_msg=name)
        assert rng.counter == counter + 1
        # the next draw keys on the advanced counter
        expected = want(rng_generator(rng))
        np.testing.assert_array_equal(draw(rng), expected, err_msg=name)


def test_rng_negative_path_tag_is_rejected():
    with pytest.raises(ValueError):
        RngState(1, (2, -1)).uniform(size=2)


def test_rng_gumbel_location():
    g = RngState(3).gumbel(size=200_000)
    # Gumbel(0,1) mean is the Euler-Mascheroni constant
    assert abs(np.mean(g) - 0.5772) < 0.01


@given(hnp.arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 64)),
                  elements=st.integers(0, 4)))
@example(np.array([[3, 1, 4]]))  # one row
@example(np.full((9, 5), 2))  # every row equal
# D = 64 over 5 tokens: a base-5 code of a row would overflow int64
@example(np.array([[i % 5 for i in range(64)], [4] * 64, [i % 5 for i in range(64)]]))
def test_distinct_rows_matches_unique(z):
    rows, inverse = distinct_rows(z)
    want_rows, want_inverse = np.unique(z, axis=0, return_inverse=True)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(inverse, want_inverse.ravel())
    np.testing.assert_array_equal(rows[inverse], z)
