"""Enumeration oracle and metric tests. The oracles are cross-checked against
Monte Carlo sampling so that no analytic path verifies itself."""

import numpy as np
import pytest

from ddlab.data import make_dataset, seq_index
from ddlab.metrics import (ExactDistribution, GradientMomentResult, MetricError,
                           ReferenceModel, exact_chain_distribution,
                           factorized_oracle_chain, generative_perplexity,
                           generator_output_entropy, gradient_moment, kl,
                           oracle_denoiser, sample_entropy)
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState
from ddlab.process import DiffusionProcess, NoiseSchedule, ancestral_sample
from oracle import tv

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
CB = make_dataset("correlated_bits", 2, 2)
Q = ExactDistribution(2, 2, CB.exact_q())


def test_exact_distribution_validates():
    with pytest.raises(MetricError):
        ExactDistribution(2, 2, np.array([0.6, 0.2, 0.1, 0.2]))
    with pytest.raises(MetricError):
        ExactDistribution(2, 2, np.array([1.0]))


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


def test_reference_model_fit_exact_is_stationary():
    ref = ReferenceModel(2, 2)
    ref.fit_exact(Q)
    # expected data gradient at the MLE is exactly zero
    seqs = np.array([[0, 0], [1, 1]])
    grad = 0.5 * (ref.mean_grad_log_likelihood(seqs[:1]) +
                  ref.mean_grad_log_likelihood(seqs[1:]))
    np.testing.assert_allclose(grad, 0.0, atol=1e-9)
    # and the model reproduces q exactly
    np.testing.assert_allclose(np.exp(ref.log_likelihood(seqs)), [0.5, 0.5], atol=1e-9)


def test_reference_model_gradients_match_finite_differences():
    ref = ReferenceModel(2, 2)
    ref.logits = RngState(2).normal(ref.logits.shape)
    ref.fitted = True
    x = np.array([[0, 1], [1, 1], [0, 0]])
    analytic = ref.mean_grad_log_likelihood(x)
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


def test_gradient_moment_soundness():
    ref = ReferenceModel(2, 2)
    ref.fit_exact(Q)
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


def test_gradient_moment_requires_fitted_reference():
    ref = ReferenceModel(2, 2)
    with pytest.raises(MetricError):
        gradient_moment(ref, CB.sample, CB.sample, 8, 2, RngState(0))


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
    ref = ReferenceModel(2, 2)
    ref.fit_exact(Q)
    data_ppl = generative_perplexity(ref, CB.sample(5000, RngState(9)))
    unif_ppl = generative_perplexity(ref, RngState(10).integers(0, 2, size=(5000, 2)))
    assert unif_ppl >= data_ppl
    # greedy decoding under ref (here: one of its two modes) hits
    # near-minimal perplexity, the cautionary failure mode of the metric
    best_ppl = generative_perplexity(ref, np.zeros((1000, 2), dtype=np.int64))
    assert best_ppl <= data_ppl + 1e-9
