"""Forward process, analytic posterior, and ancestral sampling tests.

The posterior checks are two-route: hand-derived values and Monte Carlo
frequencies against the analytic vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddlab.autodiff import ParamStore
from ddlab.numerics import RngState, one_hot, softmax
from ddlab.process import (DENOM_FLOOR, DiffusionProcess, NoiseSchedule, Posterior,
                           ProcessError, ancestral_sample, diffuse, posterior,
                           posterior_sample, posterior_table)
from oracle import finite_diff_check, posterior as oracle_posterior

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
UNIFORM = DiffusionProcess("uniform", 2, NoiseSchedule("linear"))


def test_schedule_endpoints():
    for kind in ("linear", "cosine"):
        sched = NoiseSchedule(kind)
        np.testing.assert_allclose(sched.alpha(0.0), 1.0, atol=1e-12)
        np.testing.assert_allclose(sched.alpha(1.0), 0.0, atol=1e-12)


def test_schedule_derivative_matches_finite_differences():
    for kind in ("linear", "cosine"):
        sched = NoiseSchedule(kind)
        t = np.linspace(0.01, 0.99, 13)
        eps = 1e-6
        numeric = (sched.alpha(t + eps) - sched.alpha(t - eps)) / (2 * eps)
        np.testing.assert_allclose(sched.alpha_prime(t), numeric, atol=1e-8)


def test_unknown_kinds_rejected():
    with pytest.raises(ProcessError):
        NoiseSchedule("geometric").alpha(0.5)
    with pytest.raises(ProcessError):
        DiffusionProcess("gaussian", 2)


def test_stationary_distributions():
    np.testing.assert_array_equal(MASKED.pi, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(UNIFORM.pi, [0.5, 0.5])
    assert MASKED.mask_id == 2 and MASKED.vocab_eff == 3
    assert UNIFORM.vocab_eff == 2
    with pytest.raises(ProcessError):
        UNIFORM.mask_id


def test_diffuse_keep_rate_uniform():
    # marginal P(z = x) = alpha + (1 - alpha)/K = 0.75 at alpha = 0.5
    rng = RngState(0)
    x = np.zeros((1000, 100), dtype=np.int64)
    z = diffuse(x, 0.5, UNIFORM, rng)
    assert abs(np.mean(z == x) - 0.75) < 0.01


def test_diffuse_masked_rate():
    rng = RngState(1)
    x = np.ones((1000, 100), dtype=np.int64)
    z = diffuse(x, 0.25, MASKED, rng)
    assert abs(np.mean(z == MASKED.mask_id) - 0.25) < 0.01
    assert set(np.unique(z)) <= {1, MASKED.mask_id}


def test_diffuse_per_example_time():
    rng = RngState(2)
    x = np.zeros((2, 2000), dtype=np.int64)
    z = diffuse(x, np.array([0.0, 1.0]), MASKED, rng)
    assert np.all(z[0] == 0)
    assert np.all(z[1] == MASKED.mask_id)


def test_diffuse_validates_inputs():
    rng = RngState(0)
    with pytest.raises(ProcessError):
        diffuse(np.array([[2]]), 0.5, MASKED, rng)  # MASK is input-only
    with pytest.raises(ProcessError):
        diffuse(np.array([[0]]), 1.5, MASKED, rng)


def test_posterior_masked_hand_values():
    # z_t = MASK, alpha_s = 0.75, alpha_t = 0.5:
    # mass (alpha_s - alpha_t)/(1 - alpha_t) = 0.5 on x, rest on MASK
    z_t = np.array([[MASKED.mask_id]])
    x = np.array([[1]])
    probs = posterior(x, z_t, 0.25, 0.5, MASKED)
    np.testing.assert_allclose(probs[0, 0], [0.0, 0.5, 0.5], atol=1e-12)


def test_posterior_masked_carry_over():
    # an already-revealed position is a point mass on z_t for any s
    z_t = np.array([[0]])
    for s, t in [(0.1, 0.5), (0.0, 0.9), (0.4, 0.4)]:
        for x_tok in (0, 1):
            probs = posterior(np.array([[x_tok]]), z_t, s, t, MASKED)
            np.testing.assert_allclose(probs[0, 0], [1.0, 0.0, 0.0], atol=1e-12)


def test_posterior_uniform_hand_value():
    # K=2, alpha_s=0.75, alpha_t=0.5, z_t=0, x=1:
    # a_ts = 2/3; bracket1 = [2/3 + 1/6, 1/6]; bracket2 = [0.125, 0.875]
    # denom = 0.5*0 + 0.5*0.5 = 0.25
    probs = posterior(np.array([[1]]), np.array([[0]]), 0.25, 0.5, UNIFORM)
    expected = np.array([(2 / 3 + 1 / 6) * 0.125, (1 / 6) * 0.875]) / 0.25
    np.testing.assert_allclose(probs[0, 0], expected, atol=1e-12)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_posterior_rows_normalize():
    rng = RngState(3)
    for process in (MASKED, UNIFORM):
        x = rng.integers(0, 2, size=(16, 4))
        z_t = diffuse(x, 0.7, process, rng)
        probs = posterior(x, z_t, 0.2, 0.7, process)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


def test_posterior_per_example_times_match_scalar():
    rng = RngState(4)
    x = rng.integers(0, 2, size=(6, 3))
    z_t = diffuse(x, 0.6, UNIFORM, rng)
    scalar = posterior(x, z_t, 0.2, 0.6, UNIFORM)
    arrays = posterior(x, z_t, np.full(6, 0.2), np.full(6, 0.6), UNIFORM)
    np.testing.assert_allclose(arrays, scalar, atol=1e-12)


def test_posterior_requires_s_before_t():
    with pytest.raises(ProcessError):
        posterior(np.array([[0]]), np.array([[0]]), 0.8, 0.2, UNIFORM)


def test_posterior_boundary_s_zero_recovers_x():
    # at s=0 the posterior must put all mass on the clean token
    x = np.array([[1, 0]])
    z_t = np.array([[MASKED.mask_id, 0]])
    probs = posterior(x, z_t, 0.0, 0.5, MASKED)
    np.testing.assert_allclose(probs[0, 0], one_hot(np.array(1), 3), atol=1e-12)


def test_posterior_soft_x_matches_mixture():
    # soft x must equal the x-weighted mixture of hard posteriors
    z_t = np.array([[MASKED.mask_id]])
    soft = np.array([[[0.3, 0.7]]])
    blended = posterior(soft, z_t, 0.25, 0.5, MASKED)
    hard0 = posterior(np.array([[0]]), z_t, 0.25, 0.5, MASKED)
    hard1 = posterior(np.array([[1]]), z_t, 0.25, 0.5, MASKED)
    # numerator is linear in x; denominator re-normalizes the same total here
    np.testing.assert_allclose(blended, 0.3 * hard0 + 0.7 * hard1, atol=1e-12)


def test_posterior_soft_x_carries_revealed_positions():
    # a revealed position stays put for soft x too, even where x puts no mass
    # on its token (the raw formula is 0/0 there); MASK positions still blend
    z_t = np.array([[0, MASKED.mask_id], [1, 1]])
    soft = np.array([[[0.0, 1.0], [0.3, 0.7]], [[1e-40, 1.0], [0.5, 0.5]]])
    probs = posterior(soft, z_t, 0.25, 0.5, MASKED)
    np.testing.assert_array_equal(probs[0, 0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(probs[1], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(probs[0, 1], posterior(soft[:1, 1:], z_t[:1, 1:], 0.25, 0.5,
                                                      MASKED)[0, 0], atol=1e-15)
    # without carry-over (uniform noise), an x with no mass on z_t at t = 0 is inconsistent
    with pytest.raises(ProcessError):
        posterior(np.array([[[0.0, 1.0]]]), np.array([[0]]), 0.0, 0.0, UNIFORM)


def test_posterior_differentiable_in_soft_x():
    # Posterior.vjp against central differences, through a softmax of logits;
    # revealed positions (carry-over) have an exactly zero gradient both ways
    for process in (MASKED, UNIFORM):
        store = ParamStore({"logits": RngState(6).normal((2, 3, 2))})
        z_t = np.array([[2, 0, 2], [1, 2, 2]]) % process.vocab_eff
        post = Posterior(z_t, np.array([0.2, 0.1]), np.array([0.7, 0.4]), process)
        grad = np.arange(6.0 * process.vocab_eff).reshape(2, 3, -1)

        def f():
            soft = softmax(store.arrays()["logits"])
            probs = post(soft)
            dsoft = post.vjp(soft, probs, grad)
            store.grads[:] = (soft * (dsoft - np.sum(soft * dsoft, axis=-1,
                                                     keepdims=True))).ravel()
            return float(np.sum(probs * grad))

        report = finite_diff_check(f, store)
        assert report.max_rel_error < 1e-6, (process.kind, report)


@st.composite
def posterior_cases(draw):
    """A process, scalar or per-example times s <= t (0 and 1 included), and
    z_t, hard x and soft x (softmax of bounded logits) of shape (B, D)."""
    process = DiffusionProcess(draw(st.sampled_from(["masked", "uniform"])),
                               draw(st.integers(2, 4)),
                               NoiseSchedule(draw(st.sampled_from(["linear", "cosine"]))))
    B, D, K = draw(st.integers(1, 3)), draw(st.integers(1, 3)), process.vocab
    per_example = draw(st.booleans())
    time = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    s, t = np.sort(np.array([[draw(time), draw(time)] for _ in range(B if per_example else 1)]),
                   axis=1).T
    if not per_example:
        s, t = float(s[0]), float(t[0])

    def tokens(n):
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=B * D,
                                      max_size=B * D))).reshape(B, D)

    logits = draw(st.lists(st.floats(-5.0, 5.0), min_size=B * D * K, max_size=B * D * K))
    return (process, s, t, tokens(process.vocab_eff), tokens(K),
            softmax(np.reshape(logits, (B, D, K))))


@settings(max_examples=300, deadline=None)
@given(posterior_cases())
def test_posterior_reads_the_table(case):
    # hard x reads rows of posterior_table bit for bit; soft x (the Bayes
    # mixture of those rows) equals the raw closed form of the oracle
    # wherever its denominator is defined, and revealed positions carry over
    process, s, t, z_t, x, soft = case
    post = Posterior(z_t, s, t, process)
    table, lik = posterior_table(process, s, t)
    carry = z_t != process.mask_id if process.masked else np.zeros(z_t.shape, dtype=bool)
    rows = np.empty(z_t.shape + (process.vocab_eff,))
    underflow = np.zeros(z_t.shape, dtype=bool)
    for (b, d), z in np.ndenumerate(z_t):
        tab, lk = (table, lik) if np.ndim(s) == 0 else (table[b], lik[b])
        rows[b, d] = tab[z, x[b, d]]
        underflow[b, d] = lk[z, x[b, d]] < DENOM_FLOOR
    np.testing.assert_array_equal(rows[carry], one_hot(z_t[carry], process.vocab_eff))
    if np.any(underflow & ~carry):
        with pytest.raises(ProcessError):
            post(x)
    else:
        np.testing.assert_array_equal(post(x), rows)

    with np.errstate(divide="ignore", invalid="ignore"):
        raw = oracle_posterior(soft, z_t, s, t, process, denom_floor=0.0)
    defined = np.all(np.isfinite(raw), axis=-1)
    if np.any(~defined & ~carry):
        with pytest.raises(ProcessError):
            post(soft)
        return
    q = post(soft)
    np.testing.assert_allclose(q[defined], raw[defined], rtol=0, atol=1e-13)
    np.testing.assert_array_equal(q[carry], one_hot(z_t[carry], process.vocab_eff))


GRID = [(0.0, 0.3), (0.2, 0.5), (0.25, 0.5), (0.4, 0.9), (0.0, 1.0),
        (0.5, 0.5), (0.1, 0.8), (0.6, 0.95), (0.3, 0.35)]


@pytest.mark.parametrize("process", [MASKED, UNIFORM], ids=["masked", "uniform"])
def test_posterior_sample_frequencies(process):
    # empirical posterior_sample frequencies vs the analytic vector, TV < 0.01
    n = 100_000
    rng = RngState(11)
    for s, t in GRID:
        x = np.zeros((1, 1), dtype=np.int64)
        z_t = (np.full((1, 1), process.mask_id, dtype=np.int64) if process.masked
               else np.ones((1, 1), dtype=np.int64))
        analytic = posterior(x, z_t, s, t, process)[0, 0]
        draws = posterior_sample(np.tile(x, (n, 1)), np.tile(z_t, (n, 1)), s, t,
                                 process, rng)
        freqs = np.bincount(draws[:, 0], minlength=process.vocab_eff) / n
        tv = 0.5 * np.sum(np.abs(freqs - analytic))
        assert tv < 0.01, (s, t, tv)


@pytest.mark.parametrize("process", [MASKED, UNIFORM], ids=["masked", "uniform"])
def test_marginal_consistency(process):
    # diffuse to t, posterior-sample to s: marginal must be
    # alpha_s x + (1 - alpha_s) pi, within TV 0.01 at N=100000
    n = 100_000
    rng = RngState(13)
    for s, t in GRID:
        x = np.zeros((n, 1), dtype=np.int64)
        z_t = diffuse(x, t, process, rng)
        z_s = posterior_sample(x, z_t, s, t, process, rng)
        freqs = np.bincount(z_s[:, 0], minlength=process.vocab_eff) / n
        alpha_s = float(process.schedule.alpha(s))
        expected = alpha_s * one_hot(np.array(0), process.vocab_eff) + (1 - alpha_s) * process.pi
        tv = 0.5 * np.sum(np.abs(freqs - expected))
        assert tv < 0.01, (s, t, tv)


def test_ancestral_sample_resolved_positions_stay_fixed():
    # masked carry-over across a whole chain: once revealed, never changed
    seen = []

    def predict(z, t):
        seen.append(z.copy())
        return np.full(z.shape + (2,), 0.5)

    rng = RngState(17)
    out = ancestral_sample(predict, MASKED, 8, rng, 64, 3)
    assert out.shape == (64, 3)
    assert np.all(out < 2)
    for earlier, later in zip(seen[:-1], seen[1:]):
        revealed = earlier != MASKED.mask_id
        np.testing.assert_array_equal(earlier[revealed], later[revealed])


def test_ancestral_sample_uniform_predictor_is_uniform():
    # 1-step chain with a uniform predictor: all 4 outcomes equally likely
    def predict(z, t):
        return np.full(z.shape + (2,), 0.5)

    rng = RngState(19)
    out = ancestral_sample(predict, MASKED, 1, rng, 200_000, 2)
    idx = out[:, 0] * 2 + out[:, 1]
    freqs = np.bincount(idx, minlength=4) / out.shape[0]
    assert 0.5 * np.sum(np.abs(freqs - 0.25)) < 0.02
