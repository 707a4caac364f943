"""Distillation loss, logit surgery, and alternating-loop tests."""

import numpy as np
import pytest
from scipy import stats

import oracle as ad
from ddlab.autodiff import ParamStore
from ddlab.data import make_dataset
from ddlab.distill import (DistillConfig, DistillError, Distiller, posterior_kl_head,
                           sample_times, teacher_logits)
from ddlab.nets import (Denoiser, ModelConfig, init_from_teacher, model_from_checkpoint,
                        save_checkpoint)
from ddlab.numerics import RngState, log_softmax, softmax
from ddlab.process import DiffusionProcess, NoiseSchedule, ProcessError, ancestral_sample
from ddlab.teacher import position_mask
from oracle import (auxiliary_loss, auxiliary_loss_posterior, backward, finite_diff_check,
                    generator_loss, generator_loss_posterior, leaves)

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
UNIFORM = DiffusionProcess("uniform", 2, NoiseSchedule("linear"))
CB = make_dataset("correlated_bits", 2, 2)


def test_config_validation():
    with pytest.raises(DistillError):
        DistillConfig(k=0)
    with pytest.raises(DistillError):
        DistillConfig(tau=0.0)
    with pytest.raises(DistillError):
        DistillConfig(top_p=1.5)
    with pytest.raises(DistillError):
        DistillConfig(delta=-1.0)
    with pytest.raises(DistillError):
        DistillConfig(loss_variant="mse")
    with pytest.raises(DistillError):
        DistillConfig(aux_per_gen=0)


def test_sample_times_bounds():
    rng = RngState(0)
    for k in (1, 4, 64):
        for _ in range(200):
            s, t = sample_times(rng, k)
            assert 0.0 <= s <= t <= 1.0
            assert t - s <= 1.0 / k + 1e-12


def test_sample_times_s_is_uniform():
    rng = RngState(1)
    draws = np.array([sample_times(rng, 4)[0] for _ in range(100_000)])
    stat, pval = stats.kstest(draws, "uniform")
    assert pval > 1e-4, (stat, pval)


def test_sample_times_vectorized_matches_bounds():
    s, t = sample_times(RngState(2), 8, size=5000)
    assert s.shape == t.shape == (5000,)
    assert np.all((0.0 <= s) & (s <= t) & (t <= 1.0))
    assert np.all(t - s <= 1.0 / 8 + 1e-12)


def _toy_teacher(logp_rows):
    """A stand-in whose forward() returns fixed log-probabilities."""

    class Fixed:
        def forward(self, z_s, s):
            return np.broadcast_to(logp_rows, z_s.shape + (logp_rows.shape[-1],)).copy()

    return Fixed()


def test_teacher_logits_hand_example():
    # probs [0.5, 0.3, 0.2], p = 0.7: cumulative 0.5, 0.8: categories {0, 1}
    # kept ("just over p"), category 2 lowered by exactly delta = 2
    teacher = _toy_teacher(np.log([0.5, 0.3, 0.2]))
    out = teacher_logits(teacher, np.zeros((1, 1), dtype=np.int64), 0.5,
                         tau=1.0, top_p=0.7, delta=2.0)
    np.testing.assert_allclose(out[0, 0, :2], np.log([0.5, 0.3]), atol=1e-12)
    np.testing.assert_allclose(out[0, 0, 2], np.log(0.2) - 2.0, atol=1e-12)


def test_teacher_logits_temperature_first():
    teacher = _toy_teacher(np.log([0.5, 0.3, 0.2]))
    out = teacher_logits(teacher, np.zeros((1, 1), dtype=np.int64), 0.5,
                         tau=0.5, top_p=1.0)
    np.testing.assert_allclose(out[0, 0], np.log([0.5, 0.3, 0.2]) / 0.5, atol=1e-12)


def test_teacher_logits_bounded_by_delta():
    # no intermediate value may exceed |log-prob|/tau + delta
    rng = RngState(3)
    teacher = _toy_teacher(rng.normal((4,)))
    z = np.zeros((2, 3), dtype=np.int64)
    for tau in (1.0, 0.5):
        for p in (0.6, 0.9):
            out = teacher_logits(teacher, z, 0.5, tau=tau, top_p=p, delta=2.0)
            bound = np.max(np.abs(log_softmax(teacher.forward(z, 0.5)))) / tau + 2.0
            assert np.max(np.abs(out)) <= bound + 1e-9


def test_teacher_logits_naive_sentinel():
    teacher = _toy_teacher(np.log([0.5, 0.3, 0.2]))
    out = teacher_logits(teacher, np.zeros((1, 1), dtype=np.int64), 0.5,
                         top_p=0.7, delta=1e20)
    assert out[0, 0, 2] < -1e19


def test_generator_loss_hand_value():
    # xhat = [0.5, 0.5], teacher log[0.8, 0.2], aux log[0.5, 0.5]:
    # loss = -0.5 ln(0.8/0.5) - 0.5 ln(0.2/0.5) = -0.5 ln 1.6 - 0.5 ln 0.4
    gen = np.array([[[0.5, 0.5]]])
    teacher_logp = np.log([[[0.8, 0.2]]])
    aux_logp = np.log([[[0.5, 0.5]]])
    loss = generator_loss(gen, teacher_logp, aux_logp)
    expected = -0.5 * np.log(1.6) - 0.5 * np.log(0.4)
    np.testing.assert_allclose(float(loss), expected, atol=1e-9)
    np.testing.assert_allclose(expected, 0.2231, atol=1e-4)


def test_generator_loss_zero_at_aux_equals_teacher():
    logp = np.log([[[0.7, 0.3]]])
    loss = generator_loss(np.array([[[0.2, 0.8]]]), logp, logp)
    np.testing.assert_allclose(float(loss), 0.0, atol=1e-12)


def test_generator_loss_gradient_matches_finite_differences():
    store = ParamStore({"logits": RngState(4).normal((2, 3, 2))})
    teacher_logp = log_softmax(RngState(5).normal((2, 3, 2)))
    aux_logp = log_softmax(RngState(6).normal((2, 3, 2)))

    def f():
        xhat = ad.softmax(leaves(store)["logits"])
        return generator_loss(xhat, teacher_logp, aux_logp)

    report = finite_diff_check(f, store)
    assert report.max_rel_error < 1e-4, report


def test_auxiliary_loss_hand_value():
    # hard target 0, teacher [0.5, 0.5], uniform aux: ln 2 + ln 2
    loss = auxiliary_loss(np.array([[0]]), np.array([[[0.5, 0.5]]]),
                          np.log([[[0.5, 0.5]]]), MASKED)
    np.testing.assert_allclose(float(loss), 2 * np.log(2.0), atol=1e-9)


def test_auxiliary_loss_stationary_at_mixture():
    # the minimizer is aux = (target + teacher) / 2; gradient vanishes there
    teacher_probs = np.array([[[0.7, 0.3]]])
    target = np.array([[0]], dtype=np.int64)
    optimum = 0.5 * (np.array([[[1.0, 0.0]]]) + teacher_probs)
    store = ParamStore({"logits": np.log(optimum[0])})

    def f():
        aux_logp = ad.log_softmax(leaves(store)["logits"])
        return auxiliary_loss(target, teacher_probs, ad.expand_dims(aux_logp, 0), MASKED)

    ad.zero_grad(store)
    backward(f())
    np.testing.assert_allclose(store.grads, 0.0, atol=1e-9)


def test_auxiliary_loss_soft_targets_masked_only():
    soft = np.array([[[0.6, 0.4]]])
    teacher_probs = np.array([[[0.5, 0.5]]])
    aux_logp = np.log([[[0.5, 0.5]]])
    loss = auxiliary_loss(soft, teacher_probs, aux_logp, MASKED)
    np.testing.assert_allclose(float(loss), 2 * np.log(2.0), atol=1e-9)
    with pytest.raises(DistillError):
        auxiliary_loss(soft, teacher_probs, aux_logp, UNIFORM)


def test_auxiliary_loss_gradient_matches_finite_differences():
    store = ParamStore({"logits": RngState(7).normal((2, 3, 2))})
    teacher_probs = softmax(RngState(8).normal((2, 3, 2)))
    target = RngState(9).integers(0, 2, size=(2, 3))

    def f():
        aux_logp = ad.log_softmax(leaves(store)["logits"])
        return auxiliary_loss(target, teacher_probs, aux_logp, MASKED)

    report = finite_diff_check(f, store)
    assert report.max_rel_error < 1e-4, report


def test_posterior_variant_gradients_match_finite_differences():
    # both posterior-KL loss variants, on a 1-position uniform instance
    z_s = np.array([[0], [1]])
    teacher_probs = softmax(RngState(10).normal((2, 1, 2)))
    s, ds = 0.5, 1.0 / 64.0

    gen_store = ParamStore({"logits": RngState(11).normal((2, 1, 2))})
    aux_probs = softmax(RngState(12).normal((2, 1, 2)))

    def f_gen():
        xhat = ad.softmax(leaves(gen_store)["logits"])
        return generator_loss_posterior(xhat, teacher_probs, aux_probs,
                                        z_s, s, ds, UNIFORM)

    report = finite_diff_check(f_gen, gen_store)
    assert report.max_rel_error < 1e-4, report

    aux_store = ParamStore({"logits": RngState(13).normal((2, 1, 2))})
    gen_probs = softmax(RngState(14).normal((2, 1, 2)))

    def f_aux():
        aux = ad.softmax(leaves(aux_store)["logits"])
        return auxiliary_loss_posterior(gen_probs, teacher_probs, aux,
                                        z_s, s, ds, UNIFORM)

    report = finite_diff_check(f_aux, aux_store)
    assert report.max_rel_error < 1e-4, report


@pytest.mark.parametrize("gen_phase", [True, False], ids=["gen", "aux"])
def test_posterior_kl_head_survives_underflow_on_revealed_positions(gen_phase):
    # a row with < 1e-30 on a token z_s has already revealed: the raw posterior
    # is 0/0 there, but carry-over keeps the row fixed and pos_mask drops it
    z_s = np.array([[0, MASKED.mask_id]])
    tiny = [1e-31, 1.0 - 1e-31]
    gen, aux, teacher = (np.array([[tiny, masked_row]])
                         for masked_row in ([0.4, 0.6], [0.7, 0.3], [0.2, 0.8]))
    s, ds, pos = np.array([0.5]), 1 / 64, position_mask(z_s, MASKED)
    loss, dlogits = posterior_kl_head(gen, teacher, aux, z_s, s, ds, MASKED, pos, gen_phase)
    assert np.isfinite(loss) and loss != 0.0
    assert np.all(np.isfinite(dlogits))
    assert np.all(dlogits[0, 0] == 0.0) and np.any(dlogits[0, 1] != 0.0)
    # the raw formula of the tape oracle has no carry-over and rejects the pair
    tape_loss = generator_loss_posterior if gen_phase else auxiliary_loss_posterior
    with pytest.raises(ProcessError):
        tape_loss(gen, teacher, aux, z_s, s, ds, MASKED, 1.0, pos)


def test_posterior_variant_zero_at_fixed_point():
    z_s = np.array([[0], [1]])
    probs = softmax(RngState(15).normal((2, 1, 2)))
    loss = generator_loss_posterior(probs, probs, probs, z_s, 0.5, 1 / 64, UNIFORM)
    np.testing.assert_allclose(float(loss), 0.0, atol=1e-12)


def _make_distiller(n_noise=0, **overrides):
    teacher, _ = _trained_toy_teacher()
    cfg = DistillConfig(**overrides)
    return Distiller(teacher, CB, MASKED, cfg, RngState(21), n_noise=n_noise)


_teacher_cache = {}


def _trained_toy_teacher():
    if "t" not in _teacher_cache:
        teacher = Denoiser(ModelConfig(seq_len=2, vocab=2, masked=True, emb=8,
                                       hidden=12, depth=1), RngState(20))
        teacher.store.values[:] = RngState(22).normal(teacher.store.values.shape) * 0.2
        _teacher_cache["t"] = teacher
    return _teacher_cache["t"], None


def test_alternation_parity():
    dist = _make_distiller(aux_per_gen=1, steps=8)
    phases = [dist.step()[0] for _ in range(6)]
    assert phases == ["gen", "aux", "gen", "aux", "gen", "aux"]
    dist = _make_distiller(aux_per_gen=3, steps=8)
    phases = [dist.step()[0] for _ in range(8)]
    assert phases == ["gen", "aux", "aux", "aux", "gen", "aux", "aux", "aux"]


def test_soft_targets_require_masked_process():
    teacher = Denoiser(ModelConfig(seq_len=2, vocab=2, masked=False), RngState(0))
    with pytest.raises(DistillError):
        Distiller(teacher, CB, UNIFORM, DistillConfig(soft_targets=True), RngState(1))


def test_fixed_point_generator_gradient_is_zero():
    # generator = auxiliary = teacher: the generator loss and its gradient
    # vanish identically, for any batch
    teacher, _ = _trained_toy_teacher()
    cfg = DistillConfig(k=1, soft_targets=True, steps=2)
    dist = Distiller(teacher, CB, MASKED, cfg, RngState(25), n_noise=0)
    phase, loss = dist.step()
    assert phase == "gen"
    assert abs(loss) < 1e-12
    assert np.max(np.abs(dist.generator.store.grads)) < 1e-12


def test_fixed_point_is_stable():
    # generator = auxiliary = teacher: 100 alternating steps must not drift
    # beyond optimizer noise on probe states. The aux sees per-batch noise
    # (its target lives at z_t, its input at z_s), so Adam moves it at the
    # learning-rate scale each step; the budget below keeps that walk,
    # and the generator's response to it, under the drift bound.
    teacher, _ = _trained_toy_teacher()
    cfg = DistillConfig(k=1, soft_targets=True, gen_lr=1e-5, aux_lr=1e-5, steps=100)
    dist = Distiller(teacher, CB, MASKED, cfg, RngState(23), n_noise=0)
    probes = np.array([[2, 2], [0, 2], [2, 1], [0, 1]])
    before = teacher.probs(probes, 0.5)
    for _ in range(100):
        dist.step()
    after = dist.generator.probs(probes, 0.5)
    assert 0.5 * np.max(np.sum(np.abs(after - before), axis=-1)) < 1e-3


def test_student_sample_shapes_and_range():
    # the k-step student sampler: ancestral sampling with fresh generator noise per step
    dist = _make_distiller(n_noise=4)
    gen = dist.generator

    def student_sample(k, rng, batch):
        def predict(z, t):
            return gen.probs(z, t, noise=rng.normal((len(z), 4)))
        return ancestral_sample(predict, MASKED, k, rng, batch, 2)

    out = student_sample(2, RngState(24), 128)
    assert out.shape == (128, 2)
    assert np.all((out >= 0) & (out < 2))
    with pytest.raises(ProcessError):
        student_sample(0, RngState(24), 8)


def test_distiller_state_round_trip(tmp_path):
    # resume from a saved state: continuation must be bit-exact
    dist_a = _make_distiller(n_noise=4, steps=40)
    for _ in range(10):
        dist_a.step()
    path = tmp_path / "state.npz"
    dist_a.save_state(path)

    dist_b = _make_distiller(n_noise=4, steps=40)
    dist_b.load_state_file(path)
    assert dist_b.step_index == 10
    for _ in range(10):
        dist_a.step()
        dist_b.step()
    np.testing.assert_array_equal(dist_a.generator.store.values,
                                  dist_b.generator.store.values)
    np.testing.assert_array_equal(dist_a.auxiliary.store.values,
                                  dist_b.auxiliary.store.values)


def _assert_views_read_buffers(store):
    # each named view is the slice of the flat buffer at its place in the layout
    start = 0
    for (name, value), grad in zip(store.arrays().items(), store.grad_arrays().values()):
        stop = start + value.size
        assert np.shares_memory(value, store.values), name
        assert np.shares_memory(grad, store.grads), name
        np.testing.assert_array_equal(value.ravel(), store.values[start:stop])
        np.testing.assert_array_equal(grad.ravel(), store.grads[start:stop])
        start = stop
    assert start == store.values.size == store.grads.size


def test_store_views_follow_in_place_updates(tmp_path):
    # adam_step, load_state_file and model_from_checkpoint write the flat
    # buffers in place: the named views read every update, and a copy taken
    # earlier keeps its own values
    dist = _make_distiller(n_noise=4, steps=8)
    state = tmp_path / "state.npz"
    dist.save_state(state)
    store = dist.generator.store
    initial, before = store.values.copy(), store.copy()

    assert dist.step()[0] == "gen"  # fused backward into grads, adam_step on values
    assert np.any(store.grads != 0.0) and not np.array_equal(store.values, initial)
    _assert_views_read_buffers(store)
    np.testing.assert_array_equal(before.values, initial)
    stepped, stepped_values = store.copy(), store.values.copy()

    dist.load_state_file(state)
    np.testing.assert_array_equal(store.values, initial)
    _assert_views_read_buffers(store)
    np.testing.assert_array_equal(stepped.values, stepped_values)

    ckpt = tmp_path / "gen.ckpt"
    save_checkpoint(ckpt, dist.generator.config, stepped)
    model, _ = model_from_checkpoint(ckpt)
    np.testing.assert_array_equal(model.store.values, stepped_values)
    _assert_views_read_buffers(model.store)
    z, noise = np.array([[2, 2], [0, 2]]), RngState(25).normal((2, 4))
    np.testing.assert_array_equal(model.forward(z, 0.5, noise=noise),
                                  dist.generator.forward(z, 0.5, noise=noise,
                                                         params=stepped.arrays()))


def test_distiller_run_logs():
    dist = _make_distiller(steps=10, eval_every=5)
    rows = dist.run(10, eval_fn=lambda d: 0.5)
    assert {"step", "phase", "loss", "gen_output_entropy", "eval_kl"} <= set(rows[0])
    assert rows[0]["step"] == 0 and rows[-1]["step"] == 9
    assert all(row["eval_kl"] == 0.5 for row in rows)


def test_distiller_runs_posterior_variant():
    dist = _make_distiller(loss_variant="posterior_kl", steps=6)
    for _ in range(6):
        phase, loss = dist.step()
        assert np.isfinite(loss)


def test_init_from_teacher_fixed_point_losses_are_zero():
    # at init (gen = aux = teacher) the generator loss is exactly zero
    teacher, _ = _trained_toy_teacher()
    gen, aux = init_from_teacher(teacher, 0)
    z_s = np.array([[2, 2], [0, 2]])
    teacher_logp = log_softmax(teacher.forward(z_s, 0.5))
    aux_logp = log_softmax(aux.forward(z_s, 0.5))
    xhat = gen.probs(z_s, 0.5)
    loss = generator_loss(xhat, teacher_logp, aux_logp)
    np.testing.assert_allclose(float(loss), 0.0, atol=1e-12)
