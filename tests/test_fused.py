"""The fused network and loss heads against the autodiff tape, their oracle."""

import numpy as np
import pytest

import oracle as ad
from ddlab import nets
from ddlab.autodiff import ParamStore
from ddlab.data import make_dataset
from ddlab.distill import (_head_weights, auxiliary_loss_head, generator_loss_head,
                           posterior_kl_head)
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState, log_softmax, one_hot, softmax
from ddlab.process import DiffusionProcess, NoiseSchedule
from ddlab.teacher import cross_entropy_head, position_mask, teacher_step
from oracle import (auxiliary_loss, auxiliary_loss_posterior, finite_diff_check,
                    generator_loss, generator_loss_posterior, leaves, tape_forward,
                    teacher_loss)

MASKED = DiffusionProcess("masked", 3, NoiseSchedule("linear"))
UNIFORM = DiffusionProcess("uniform", 3, NoiseSchedule("linear"))


def _random_model(masked, n_noise, depth, seed=0):
    cfg = ModelConfig(seq_len=4, vocab=3, masked=masked, emb=8, hidden=12,
                      depth=depth, time_width=4, n_noise=n_noise)
    model = Denoiser(cfg, RngState(seed))
    model.store.values[:] = RngState(seed + 1).normal(model.store.values.shape) * 0.5
    return model


def _inputs(model, batch, per_example_t, seed=10):
    cfg = model.config
    z = RngState(seed).integers(0, cfg.vocab_in, size=(batch, cfg.seq_len))
    t = RngState(seed + 1).uniform(size=batch) if per_example_t else 0.37
    noise = RngState(seed + 2).normal((batch, cfg.n_noise)) if cfg.n_noise else None
    return z, t, noise


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("n_noise", [0, 8])
@pytest.mark.parametrize("per_example_t", [True, False])
def test_nograd_forward_equals_tape_forward(masked, n_noise, per_example_t):
    model = _random_model(masked, n_noise, depth=2)
    cfg = model.config
    rows = nets._block_rows(cfg)
    batch = 2 * rows + 37  # two row blocks; the last one takes the 37-row remainder
    z, t, noise = _inputs(model, batch, per_example_t)
    fused = model.forward(z, t, noise=noise)
    tape = tape_forward(model, z, t, noise=noise)
    assert isinstance(tape, ad.Var)
    assert np.array_equal(fused, tape.value)


@pytest.mark.parametrize("seq_len", [1, 3])
def test_denoiser_forward_equals_tape_forward(seq_len):
    # default widths and K = 2: a narrow head, where BLAS rounds the trailing
    # rows of a product its own way
    cfg = ModelConfig(seq_len=seq_len, vocab=2, masked=True, depth=2)
    model = Denoiser(cfg, RngState(3))
    model.store.values[:] = RngState(4).normal(model.store.values.shape)
    batch = 3 * nets._block_rows(cfg) + 1
    z = RngState(5).integers(0, cfg.vocab_in, size=(batch, seq_len))
    tape = tape_forward(model, z, 0.5).value
    assert np.array_equal(model.forward(z, 0.5), tape)


def _tape_grads(model, z, t, noise, dlogits):
    ad.zero_grad(model.store)
    logits = tape_forward(model, z, t, noise=noise)
    ad.backward(ad.reduce_sum(ad.mul(logits, dlogits)))
    return {name: g.copy() for name, g in model.store.grad_arrays().items()}


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("n_noise", [0, 8])
@pytest.mark.parametrize("depth", [1, 2])
def test_fused_gradients_match_tape(masked, n_noise, depth):
    model = _random_model(masked, n_noise, depth, seed=20)
    z, t, noise = _inputs(model, 64, per_example_t=True, seed=30)
    dlogits = RngState(40).normal((64, model.config.seq_len, model.config.vocab))
    tape = _tape_grads(model, z, t, noise, dlogits)

    model.store.grads[:] = np.nan  # the fused backward overwrites every block
    cache = {}
    logits = model.forward(z, t, noise=noise, params=model.store.arrays(), cache=cache)
    model.backward(cache, dlogits)
    for name, got in model.store.grad_arrays().items():
        want = tape[name]
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) / scale < 1e-10, name
    assert np.array_equal(logits, model.forward(z, t, noise=noise))


def _logits_leaf(shape, seed):
    store = ParamStore({"logits": RngState(seed).normal(shape)})
    return store, leaves(store)["logits"]


def _assert_head_matches(loss_tape, store, loss, dlogits):
    ad.zero_grad(store)
    ad.backward(loss_tape)
    np.testing.assert_allclose(loss, float(loss_tape.value), rtol=1e-12)
    want = store.grad_arrays()["logits"]
    assert np.max(np.abs(dlogits - want)) / np.max(np.abs(want)) < 1e-10


def _batch_weights(seed, shape=(6, 4)):
    w = 1.0 + RngState(seed).uniform(size=shape[0])[:, None]
    pos_mask = (RngState(seed + 1).uniform(size=shape) < 0.6).astype(np.float64)
    return w, pos_mask


def test_teacher_head_matches_tape():
    store, leaf = _logits_leaf((6, 4, 3), 50)
    x = RngState(51).integers(0, 3, size=(6, 4))
    w, pos = _batch_weights(52)
    denom = max(pos.sum(), 1.0)
    ce = ad.mul(ad.take_along_last(ad.log_softmax(leaf), x), -1.0)
    loss_tape = ad.div(ad.reduce_sum(ad.mul(ce, w * pos)), denom)
    loss, dlogits = cross_entropy_head(leaf.value, one_hot(x, 3), w * pos / denom)
    _assert_head_matches(loss_tape, store, loss, dlogits)


def test_generator_head_matches_tape():
    store, leaf = _logits_leaf((6, 4, 3), 60)
    teacher_logp = log_softmax(RngState(61).normal((6, 4, 3)))
    aux_logp = log_softmax(RngState(62).normal((6, 4, 3)))
    w, pos = _batch_weights(63)
    loss_tape = generator_loss(ad.softmax(leaf), teacher_logp, aux_logp, w, pos)
    loss, dlogits = generator_loss_head(softmax(leaf.value), teacher_logp, aux_logp,
                                        _head_weights(w, pos))
    _assert_head_matches(loss_tape, store, loss, dlogits)


@pytest.mark.parametrize("soft", [False, True])
def test_auxiliary_head_matches_tape(soft):
    store, leaf = _logits_leaf((6, 4, 3), 70)
    teacher_probs = softmax(RngState(71).normal((6, 4, 3)))
    if soft:
        target = softmax(RngState(72).normal((6, 4, 3)))
    else:
        target = RngState(72).integers(0, 3, size=(6, 4))
    w, pos = _batch_weights(73)
    loss_tape = auxiliary_loss(target, teacher_probs, ad.log_softmax(leaf), MASKED, w, pos)
    loss, dlogits = auxiliary_loss_head(target, teacher_probs, leaf.value, MASKED,
                                        _head_weights(w, pos))
    _assert_head_matches(loss_tape, store, loss, dlogits)


@pytest.mark.parametrize("process", [MASKED, UNIFORM], ids=["masked", "uniform"])
@pytest.mark.parametrize("gen_phase", [True, False], ids=["gen", "aux"])
def test_posterior_kl_head_matches_tape(process, gen_phase):
    # per-example s; for the masked process z_s mixes MASK and revealed positions
    store, leaf = _logits_leaf((6, 4, 3), 100)
    teacher_probs = softmax(RngState(101).normal((6, 4, 3)))
    fixed = softmax(RngState(102).normal((6, 4, 3)))  # the aux row, or the gen row
    z_s = RngState(103).integers(0, process.vocab_eff, size=(6, 4))
    s = RngState(104).uniform(size=6)
    w = 1.0 + RngState(105).uniform(size=6)[:, None]
    pos = position_mask(z_s, process)
    if process.masked:
        assert 0 < pos.sum() < pos.size
    if gen_phase:
        loss_tape = generator_loss_posterior(ad.softmax(leaf), teacher_probs, fixed,
                                             z_s, s, 1 / 64, process, w, pos)
        gen_probs, aux_probs = softmax(leaf.value), fixed
    else:
        loss_tape = auxiliary_loss_posterior(fixed, teacher_probs, ad.softmax(leaf),
                                             z_s, s, 1 / 64, process, w, pos)
        gen_probs, aux_probs = fixed, softmax(leaf.value)
    loss, dlogits = posterior_kl_head(gen_probs, teacher_probs, aux_probs, z_s, s, 1 / 64,
                                      process, _head_weights(w, pos), gen_phase)
    _assert_head_matches(loss_tape, store, loss, dlogits)


@pytest.mark.parametrize("process", [MASKED, UNIFORM], ids=["masked", "uniform"])
def test_teacher_step_matches_tape_teacher_loss(process):
    cfg = ModelConfig(seq_len=3, vocab=3, masked=process.masked, emb=8, hidden=12, depth=2)
    model = Denoiser(cfg, RngState(80))
    model.store.values[:] = RngState(81).normal(model.store.values.shape) * 0.4
    x = make_dataset("markov_chain", 3, 3, seed=1).sample(64, RngState(82))
    ad.zero_grad(model.store)
    loss_tape = teacher_loss(model, x, process, RngState(83), params=leaves(model.store))
    ad.backward(loss_tape)
    tape = model.store.grads.copy()
    loss = teacher_step(model, x, process, RngState(83))
    np.testing.assert_allclose(loss, float(loss_tape.value), rtol=1e-12)
    assert np.max(np.abs(model.store.grads - tape)) / np.max(np.abs(tape)) < 1e-10


def test_fused_teacher_step_matches_finite_differences():
    cfg = ModelConfig(seq_len=2, vocab=2, masked=True, emb=4, hidden=6, depth=2, time_width=4)
    model = Denoiser(cfg, RngState(90))
    model.store.values[:] = RngState(91).normal(model.store.values.shape) * 0.3
    x = make_dataset("correlated_bits", 2, 2).sample(8, RngState(92))
    process = DiffusionProcess("masked", 2, NoiseSchedule("linear"))

    def f():
        return teacher_step(model, x, process, RngState(93))

    report = finite_diff_check(f, model.store, max_coords=60, rng=RngState(94))
    assert report.max_rel_error < 1e-4, report
