"""Unit tests for the RNG and categorical primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from ddlab.numerics import (NumericsError, RngState, categorical_sample, distinct_rows,
                            entropy, inverse_cdf_sample, log_softmax, one_hot,
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


@pytest.mark.parametrize("K", [*range(1, 10), 64])
def test_softmax_equals_np_max_form_bit_for_bit(K):
    # softmax and log_softmax take a short last axis's max a column at a
    # time; max is exact, so every output equals the np.max form's bits.
    # Halves of integers give ties (and no -0.0) up to magnitude 300.
    gen = np.random.default_rng(K)
    logits = gen.integers(-600, 601, size=(37, 3, K)) / 2.0
    logits[::4, 1] = logits[::4, 1, :1]  # whole rows of one value
    for x in (logits, logits[0, 0]):
        shifted = x - np.max(x, axis=-1, keepdims=True)
        e = np.exp(shifted)
        want_p = e / np.sum(e, axis=-1, keepdims=True)
        want_logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
        assert softmax(x).tobytes() == want_p.tobytes()
        assert log_softmax(x).tobytes() == want_logp.tobytes()
    # another axis keeps np.max
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    assert softmax(logits, axis=1).tobytes() == (e / np.sum(e, axis=1, keepdims=True)).tobytes()


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


SAMPLERS = [categorical_sample, inverse_cdf_sample]


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("sample", SAMPLERS, ids=lambda f: f.__name__)
def test_categorical_sample_frequencies(sample, K):
    rng = RngState(0)
    probs = np.full((100_000, K), 1.0 / K)
    draws = sample(probs, rng)
    freq = np.bincount(draws, minlength=K) / len(draws)
    assert np.all((1.0 / K - 0.01 <= freq) & (freq <= 1.0 / K + 0.01))


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("sample", SAMPLERS, ids=lambda f: f.__name__)
def test_categorical_sample_chi_square(sample, K):
    # p ∝ 1 .. K; at K = 4 it is [0.1, 0.2, 0.3, 0.4]
    rng = RngState(1)
    p = np.arange(1, K + 1) / (K * (K + 1) / 2)
    draws = sample(np.tile(p, (100_000, 1)), rng)
    counts = np.bincount(draws, minlength=K)
    _, pval = stats.chisquare(counts, 100_000 * p)
    assert pval > 1e-4


# the ends of numpy's uniform: 0 and its largest value, 1 - 2^-53
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("row", [[0.0, 0.3, 0.7], [0.3, 0.0, 0.7], [0.3, 0.7, 0.0],
                                 [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6, 0.0],
                                 [0.1, 0.2, 0.0, 0.0, 0.7, 0.0, 0.0]])
def test_inverse_cdf_sample_never_draws_a_zero_category(monkeypatch, u, row):
    # a zero entry leaves the running sum as it is, so its interval is empty
    # at either end of u, and u * total stays below the total with no clamp
    monkeypatch.setattr(RngState, "uniform", lambda self, size=None: np.full(size, u))
    probs = np.tile(row, (4, 3, 1))
    draws = inverse_cdf_sample(probs, RngState(0))
    assert draws.shape == (4, 3)
    nonzero = np.flatnonzero(row)
    assert np.all(draws == (nonzero[0] if u == 0.0 else nonzero[-1]))


def test_categorical_sample_rejects_bad_rows():
    rng = RngState(0)
    with pytest.raises(NumericsError):
        categorical_sample(np.array([[0.9, 0.3]]), rng)
    with pytest.raises(NumericsError):
        categorical_sample(np.array([[1.2, -0.2]]), rng)


@pytest.mark.parametrize("row", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan],
                                 [np.inf, 0.0], [-np.inf, 1.0]])
def test_categorical_sample_rejects_non_finite_rows(row):
    with pytest.raises(NumericsError):
        categorical_sample(np.array([[0.3, 0.7], row]), RngState(0))


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


# the four draw kinds: RngState's, and the same draw on a numpy Generator
DRAWS = {
    "uniform": (lambda r: r.uniform(size=7), lambda g: g.uniform(0.0, 1.0, size=7)),
    "normal": (lambda r: r.normal(size=(2, 3)), lambda g: g.standard_normal(size=(2, 3))),
    "gumbel": (lambda r: r.gumbel(size=5),
               lambda g: -np.log(-np.log(g.uniform(1e-300, 1.0, size=5)))),
    "integers": (lambda r: r.integers(0, 1000, size=9),
                 lambda g: g.integers(0, 1000, size=9)),
}


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 7, 2 ** 64 - 1, -3, 2 ** 63, -1])
# 0 to 5 tags: with the seed and counter, 1 to 10 entropy words, so past the
# 4-word pool into SeedSequence's tail mixing
@pytest.mark.parametrize("path", [(), (3,), (2 ** 32, 5), (1, 2 ** 64 + 9, 0),
                                  (4, 0, 2 ** 31, 9), (1, 2, 3, 4, 5)])
# the edges of a key block and of the counter's 32-bit words
@pytest.mark.parametrize("counter", [0, 1, 2 ** 32, 2 ** 40 + 3, 255, 256, 2 ** 32 - 1,
                                     2 ** 64 + 5])
def test_rng_draws_match_list_keyed_generator(seed, path, counter):
    # the cached key blocks must key the same stream as a SeedSequence of the
    # list [seed mod 2^64, *path, counter] that numpy coerces word by word
    for name, (draw, want) in DRAWS.items():
        rng = RngState(seed, path, counter)
        expected = want(rng_generator(rng))
        np.testing.assert_array_equal(draw(rng), expected, err_msg=name)
        assert rng.counter == counter + 1
        # the next draw keys on the advanced counter
        expected = want(rng_generator(rng))
        np.testing.assert_array_equal(draw(rng), expected, err_msg=name)


def test_rng_draw_after_buffered_integers_matches_oracle():
    # 31-bit integers come from half words: the draw leaves Philox with a
    # buffered half word and a part-read buffer, which the next draw must drop
    for name, (draw, want) in DRAWS.items():
        rng = RngState(5, (2,))
        rng.integers(0, 2 ** 31, size=3)
        state = rng._gen.bit_generator.state
        assert (state["has_uint32"], state["buffer_pos"]) == (1, 2)
        expected = want(rng_generator(rng))
        np.testing.assert_array_equal(draw(rng), expected, err_msg=name)


def test_rng_interleaved_streams_match_one_at_a_time():
    # a parent, its child and a from_state copy each keep their own stream
    # when their draws interleave
    def streams():
        parent = RngState(8, (1,))
        parent.uniform(size=2)
        return [parent, parent.child(3), RngState.from_state(parent.state())]

    kinds = list(DRAWS.values())
    one_at_a_time = [[kinds[(i + j) % 4][0](rng) for j in range(300)]
                     for i, rng in enumerate(streams())]
    interleaved = [[] for _ in range(3)]
    rngs = streams()
    for j in range(300):
        for i, rng in enumerate(rngs):
            interleaved[i].append(kinds[(i + j) % 4][0](rng))
    for got, want in zip(interleaved, one_at_a_time):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_rng_draws_build_no_seed_sequence(monkeypatch):
    # the keys come from cached blocks: 1,000 draws on one stream hash no
    # SeedSequence and build at most one Philox, at the first draw
    calls = {"SeedSequence": 0, "Philox": 0}

    def counting(name):
        real = getattr(np.random, name)

        def make(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return make

    for name in calls:
        monkeypatch.setattr(np.random, name, counting(name))
    rng = RngState(12, (4,))
    for i in range(1000):
        rng.normal(size=2)
        if i == 0:
            assert calls["Philox"] <= 1
            calls["Philox"] = 0
    assert calls == {"SeedSequence": 0, "Philox": 0}


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
