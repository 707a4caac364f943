"""Enumeration oracle and metric tests. The oracles are cross-checked against
Monte Carlo sampling so that no analytic path verifies itself."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddlab.data import ENUM_GUARD, all_sequences, make_dataset, seq_index
from ddlab.metrics import (GM_ROWS_PER_CALL, ExactDistribution, GradientMomentResult,
                           MetricError, ReferenceModel, exact_chain_distribution,
                           factorized_oracle_chain, generative_perplexity,
                           generator_output_entropy, gradient_moment, kl,
                           oracle_denoiser, sample_entropy)
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState
from ddlab.process import DiffusionProcess, NoiseSchedule, ancestral_sample
from oracle import enumerated_oracle_denoiser, mean_grad_log_likelihood as oracle_mean_grad, tv

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
CB = make_dataset("correlated_bits", 2, 2)
Q = ExactDistribution(2, 2, CB.exact_q())


def test_exact_distribution_validates():
    with pytest.raises(MetricError):
        ExactDistribution(2, 2, np.array([0.6, 0.2, 0.1, 0.2]))
    with pytest.raises(MetricError):
        ExactDistribution(2, 2, np.array([1.0]))
    for bad in ([np.nan, np.nan], [1.5, -0.5], [np.inf, 0.0]):
        with pytest.raises(MetricError, match="finite and non-negative"):
            ExactDistribution(2, 1, np.array(bad))


def test_kl_hand_values():
    delta = ExactDistribution(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    uniform = ExactDistribution(2, 2, np.full(4, 0.25))
    np.testing.assert_allclose(kl(delta, uniform), np.log(4.0), atol=1e-12)
    # correlated bits vs its product of marginals (uniform over 4)
    np.testing.assert_allclose(kl(Q, uniform), np.log(2.0), atol=1e-12)
    assert kl(Q, Q) == 0.0


def test_kl_space_mismatch():
    with pytest.raises(MetricError):
        kl(Q, ExactDistribution(2, 3, np.full(8, 0.125)))


def test_tv_hand_value():
    assert tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv(np.array([0.5, 0.5]), np.array([0.25, 0.75])) == 0.25


def test_perfect_teacher_one_step_is_uniform():
    # at the all-MASK state the oracle marginals are [0.5, 0.5] per position,
    # so the factorized 1-step chain is uniform over the 4 outcomes
    dist = factorized_oracle_chain(Q, MASKED, 1)
    np.testing.assert_allclose(dist.probs, 0.25, atol=1e-12)


def test_factorization_error_curve():
    kls = [kl(Q, factorized_oracle_chain(Q, MASKED, k)) for k in (1, 2, 4, 8, 16, 32, 64)]
    np.testing.assert_allclose(kls[0], np.log(2.0), atol=1e-6)
    assert kls[-1] <= 0.01
    assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))


def test_exact_chain_matches_monte_carlo():
    predict = oracle_denoiser(Q, MASKED)
    dist = exact_chain_distribution(predict, MASKED, 4, 2)
    samples = ancestral_sample(predict, MASKED, 4, RngState(0), 200_000, 2)
    freqs = np.bincount(seq_index(samples, 2), minlength=4) / samples.shape[0]
    assert tv(freqs, dist.probs) < 0.02


def test_exact_chain_uniform_process():
    ds = make_dataset("markov_chain", 2, 2, seed=3)
    q = ExactDistribution(2, 2, ds.exact_q())
    uniform = DiffusionProcess("uniform", 2, NoiseSchedule("linear"))
    predict = oracle_denoiser(q, uniform)
    dist = exact_chain_distribution(predict, uniform, 32, 2)
    assert kl(q, dist) < 0.05


def test_exact_chain_with_noise_draws_averages_jointly():
    # a "generator" that copies its noise sign into both positions should give
    # a perfectly correlated chain, not the product of marginals
    def predict(z, t, eps):
        hot = (eps[:, 0] > 0).astype(np.float64)
        out = np.stack([1.0 - hot, hot], axis=-1)  # (N, 2)
        return np.tile(out[:, None, :], (1, 2, 1))

    draws = RngState(1).normal((512, 1))
    dist = exact_chain_distribution(predict, MASKED, 1, 2, noise_draws=draws)
    assert tv(dist.probs, Q.probs) < 0.05
    assert dist.probs[1] < 1e-12 and dist.probs[2] < 1e-12


def test_oracle_denoiser_marginals():
    predict = oracle_denoiser(Q, MASKED)
    # fully masked: marginal is 0.5/0.5; one revealed position pins the other
    all_mask = np.array([[2, 2]])
    np.testing.assert_allclose(predict(all_mask, 1.0), 0.5, atol=1e-12)
    half = np.array([[1, 2]])
    out = predict(half, 0.5)
    np.testing.assert_allclose(out[0, 0], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(out[0, 1], [0.0, 1.0], atol=1e-12)


def _q_with_zeros(K: int, D: int, seed: int) -> ExactDistribution:
    # about a third of the sequences at zero: some noisy states fall outside the support
    gen = np.random.default_rng(seed)
    w = gen.uniform(0.1, 1.0, size=K ** D) * (gen.uniform(size=K ** D) > 0.3)
    w[0] = max(w[0], 0.1)
    return ExactDistribution(K, D, w / w.sum())


@pytest.mark.parametrize("schedule", ["linear", "cosine"])
@pytest.mark.parametrize("kind", ["masked", "uniform"])
@pytest.mark.parametrize("K, D", [(K, D) for K in (2, 3, 4) for D in (1, 2, 3, 5)])
def test_oracle_denoiser_matches_enumeration(kind, K, D, schedule):
    process = DiffusionProcess(kind, K, NoiseSchedule(schedule))
    assert process.vocab_eff ** D <= ENUM_GUARD
    q = _q_with_zeros(K, D, seed=10 * K + D)
    z = all_sequences(D, process.vocab_eff)
    # per-row times, t = 0 and t = 1 among them
    per_row = np.random.default_rng(K * D).uniform(size=len(z))
    per_row[::3], per_row[1::5] = 0.0, 1.0
    predict, reference = oracle_denoiser(q, process), enumerated_oracle_denoiser(q, process)
    for t in (0.0, 0.2, 0.9, 1.0, per_row):
        np.testing.assert_allclose(predict(z, t), reference(z, t), rtol=0, atol=1e-13,
                                   err_msg=f"t={t}")


def test_masked_oracle_table_does_not_depend_on_time():
    process = DiffusionProcess("masked", 4)
    predict = oracle_denoiser(_q_with_zeros(4, 3, seed=1), process)
    z = all_sequences(3, 5)
    np.testing.assert_array_equal(predict(z, 0.2), predict(z, 0.9))


def test_oracle_denoiser_rejects_spaces_past_guard():
    # masked K=4 D=7: 4^7 clean sequences pass the guard, 5^7 noisy states do not
    q = ExactDistribution(4, 7, np.full(4 ** 7, 4.0 ** -7))
    oracle_denoiser(q, DiffusionProcess("uniform", 4))
    with pytest.raises(MetricError, match="exceeds enumeration guard"):
        oracle_denoiser(q, DiffusionProcess("masked", 4))


def test_reference_model_fit_exact_is_stationary():
    ref = ReferenceModel(Q)
    # expected data gradient at the MLE is exactly zero
    seqs = np.array([[0, 0], [1, 1]])
    grad = ref.mean_grad_log_likelihood(seqs[:, None])  # one batch per sequence
    assert grad.shape == (2, ref.n_params)
    np.testing.assert_allclose(0.5 * grad.sum(axis=0), 0.0, atol=1e-9)
    # and the model reproduces q exactly
    np.testing.assert_allclose(np.exp(ref.log_likelihood(seqs)), [0.5, 0.5], atol=1e-9)


def test_reference_model_gradients_match_finite_differences():
    ref = ReferenceModel(Q)
    ref.logits = RngState(2).normal(ref.logits.shape)
    x = np.array([[0, 1], [1, 1], [0, 0]])
    analytic = ref.mean_grad_log_likelihood(x[None])[0]
    eps = 1e-6
    flat = ref.logits.ravel()
    for i in RngState(3).integers(0, flat.size, size=8):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(np.mean(ref.log_likelihood(x)))
        flat[i] = orig - eps
        down = float(np.mean(ref.log_likelihood(x)))
        flat[i] = orig
        np.testing.assert_allclose(analytic[i], (up - down) / (2 * eps), atol=1e-4)


@given(n=st.integers(1, 4), B=st.sampled_from([1, 3, 64]), D=st.sampled_from([1, 2, 5]),
       K=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 16))
def test_reference_model_batched_gradient_matches_loop(n, B, D, K, seed):
    # the two bincounts give each batch's mean gradient as the per-position scatter loop does
    rng = RngState(seed)
    ref = ReferenceModel(ExactDistribution(K, D, np.full(K ** D, float(K) ** -D)))
    ref.logits = 2.0 * rng.normal(ref.logits.shape)
    x = rng.integers(0, K, size=(n, B, D))
    batched = ref.mean_grad_log_likelihood(x)
    assert batched.shape == (n, ref.n_params)
    loop = np.stack([oracle_mean_grad(ref, batch) for batch in x])
    np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-14)


def test_gradient_moment_soundness():
    ref = ReferenceModel(Q)
    rng = RngState(4)

    def data_sampler(n, r):
        return CB.sample(n, r)

    def uniform_sampler(n, r):
        return r.integers(0, 2, size=(n, 2))

    def corrupted_sampler(n, r):
        x = CB.sample(n, r)
        flip = r.uniform(size=x.shape) < 0.1
        rand = r.integers(0, 2, size=x.shape)
        return np.where(flip, rand, x)

    gm_data = gradient_moment(ref, data_sampler, data_sampler, 64, 200, rng.child(0))
    gm_unif = gradient_moment(ref, uniform_sampler, data_sampler, 64, 200, rng.child(1))
    gm_corr = gradient_moment(ref, corrupted_sampler, data_sampler, 64, 200, rng.child(2))
    assert abs(gm_data.estimate) <= 3 * gm_data.stderr
    assert gm_unif.estimate > 5 * gm_unif.stderr
    assert gm_data.estimate < gm_corr.estimate < gm_unif.estimate
    assert isinstance(gm_data, GradientMomentResult)


def _recording_sampler(side, seed, calls):
    """sampler(n, rng) that logs (side, n, rows) and returns fixed rows: data
    rows for "data", uniform tokens otherwise, from its own stream per call."""
    def sampler(n, rng):
        r = RngState(seed).child(len(calls))
        rows = CB.sample(n, r) if side == "data" else r.integers(0, 2, size=(n, 2))
        calls.append((side, n, rows))
        return rows
    return sampler


def test_gradient_moment_draws_each_side_in_one_call():
    ref = ReferenceModel(Q)
    calls = []
    gradient_moment(ref, _recording_sampler("gen", 1, calls),
                    _recording_sampler("data", 2, calls), 64, 200, RngState(0))
    assert [(side, n) for side, n, _ in calls] == [("gen", 25_600), ("data", 25_600)]


def test_gradient_moment_calls_hold_whole_pairs_within_budget():
    # batch size 1 and more pairs than one call's row budget holds
    ref = ReferenceModel(Q)
    calls = []
    n_pairs = GM_ROWS_PER_CALL // 2 + 3
    res = gradient_moment(ref, _recording_sampler("gen", 1, calls),
                          _recording_sampler("data", 2, calls), 1, n_pairs, RngState(0))
    assert [(side, n) for side, n, _ in calls] == [
        ("gen", GM_ROWS_PER_CALL), ("data", GM_ROWS_PER_CALL), ("gen", 6), ("data", 6)]

    # by hand: batch 2i pairs with batch 2i + 1, in draw order; a batch of
    # one sequence has that sequence's gradient
    per_seq = np.stack([oracle_mean_grad(ref, seq[None]) for seq in all_sequences(2, 2)])

    def batch_grads(side):
        return per_seq[seq_index(np.concatenate([r for s, _, r in calls if s == side]), 2)]

    g, q = batch_grads("gen"), batch_grads("data")
    vals = np.array([(g[2 * i] - q[2 * i]) @ (g[2 * i + 1] - q[2 * i + 1])
                     for i in range(n_pairs)])
    np.testing.assert_allclose(res.estimate, vals.mean(), rtol=1e-12)
    np.testing.assert_allclose(res.stderr, vals.std(ddof=1) / np.sqrt(n_pairs), rtol=1e-12)
    np.testing.assert_allclose(res.data_grad_norm, np.linalg.norm(q.mean(axis=0)), rtol=1e-12)


def test_sample_entropy_uniform_tokens():
    samples = RngState(5).integers(0, 4, size=(100_000, 1))
    assert abs(sample_entropy(samples) - np.log(4.0)) < 0.02


def test_sample_entropy_orders_collapse():
    data = CB.sample(2000, RngState(6))
    collapsed = np.zeros((2000, 2), dtype=np.int64)
    assert sample_entropy(data) >= sample_entropy(collapsed)
    with pytest.raises(MetricError):
        sample_entropy(data[:100])


def test_generator_output_entropy_uniform_model():
    model = Denoiser(ModelConfig(seq_len=2, vocab=2, masked=True), RngState(7))
    ent = generator_output_entropy(model, MASKED, 16, RngState(8))
    np.testing.assert_allclose(ent, np.log(2.0), atol=1e-9)


def test_generative_perplexity():
    ref = ReferenceModel(Q)
    data_ppl = generative_perplexity(ref, CB.sample(5000, RngState(9)))
    unif_ppl = generative_perplexity(ref, RngState(10).integers(0, 2, size=(5000, 2)))
    assert unif_ppl >= data_ppl
    # greedy decoding under ref (here: one of its two modes) hits
    # near-minimal perplexity, the cautionary failure mode of the metric
    best_ppl = generative_perplexity(ref, np.zeros((1000, 2), dtype=np.int64))
    assert best_ppl <= data_ppl + 1e-9
