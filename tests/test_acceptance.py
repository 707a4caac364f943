"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints "ACCEPT n PASS" (or fails loudly). Tolerances are fixed
here, not tuned to runs; the exact-enumeration oracles in ddlab.metrics are
the ground truth throughout.

Run with `pytest tests/test_acceptance.py -v -s`. The whole file finishes in
well under 15 minutes on a laptop; the heavy criteria (5, 6) cache their
trained teachers at module scope.
"""

import os
import time

import numpy as np
import pytest

import oracle as ad
from ddlab.autodiff import ParamStore
from ddlab.cli import main
from ddlab.data import SyntheticDataset, make_dataset
from ddlab.distill import (DistillConfig, DistillDivergence, Distiller, posterior_kl_head,
                           teacher_logits)
from ddlab.metrics import (ExactDistribution, ReferenceModel,
                           exact_chain_distribution, factorized_oracle_chain,
                           generator_output_entropy, gradient_moment, kl)
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState, log_softmax, one_hot, softmax
from ddlab.process import (DiffusionProcess, NoiseSchedule, diffuse, posterior,
                           posterior_sample)
from ddlab.teacher import TeacherTrainConfig, position_mask, train_teacher
from oracle import (auxiliary_loss, auxiliary_loss_posterior, finite_diff_check,
                    generator_loss, generator_loss_posterior, leaves, teacher_loss, tv)

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
UNIFORM = DiffusionProcess("uniform", 2, NoiseSchedule("linear"))
CB = make_dataset("correlated_bits", 2, 2)
Q_CB = ExactDistribution(2, 2, CB.exact_q())

_cache = {}


def _cb_teacher():
    """Converged masked teacher on correlated_bits, shared by criteria 5/9/10."""
    if "cb_teacher" not in _cache:
        cfg = ModelConfig(seq_len=2, vocab=2, masked=True)
        tcfg = TeacherTrainConfig(steps=3000, eval_every=1000)
        model, rows = train_teacher(CB, MASKED, cfg, tcfg, RngState(7),
                                    record_wallclock=False)
        _cache["cb_teacher"] = (model, rows)
    return _cache["cb_teacher"]


def _student_kl(generator, process, dataset, k, exact_q, draws=64, tag=99):
    if generator.config.n_noise > 0:
        noise = RngState(tag).normal((draws, generator.config.n_noise))

        def predict(z, t, eps):
            return generator.probs(z, t, noise=eps)

        dist = exact_chain_distribution(predict, process, k, dataset.seq_len,
                                        noise_draws=noise)
    else:
        dist = exact_chain_distribution(generator.probs, process, k, dataset.seq_len)
    return kl(exact_q, dist)


def _teacher_kl(model, process, dataset, k, exact_q):
    dist = exact_chain_distribution(model.probs, process, k, dataset.seq_len)
    return kl(exact_q, dist)


def _distill_best_kl(teacher, dataset, process, exact_q, cfg, seed, n_noise,
                     max_steps, eval_every=1000):
    """Run distillation up to max_steps, returning the best generator found."""
    dist = Distiller(teacher, dataset, process, cfg, RngState(seed), n_noise=n_noise)
    best, best_vals = np.inf, dist.generator.store.values.copy()
    steps = 0
    while steps < max_steps:
        for _ in range(eval_every):
            dist.step()
        steps += eval_every
        v = _student_kl(dist.generator, process, dataset, cfg.k, exact_q)
        if v < best:
            best, best_vals = v, dist.generator.store.values.copy()
    dist.generator.store.values[:] = best_vals
    return best, dist.generator, steps


def test_accept_1_gradient_correctness():
    """All five losses, on the tape and in the closed-form posterior-KL head:
    analytic gradients vs central differences, < 1e-4."""
    worst = 0.0

    # teacher loss, masked and uniform
    for process in (MASKED, UNIFORM):
        cfg = ModelConfig(seq_len=2, vocab=2, masked=process.masked, emb=4,
                          hidden=6, depth=1, time_width=4)
        model = Denoiser(cfg, RngState(30))
        model.store.values[:] = RngState(31).normal(model.store.values.shape) * 0.3
        x = CB.sample(8, RngState(32))

        def f_teacher():
            return teacher_loss(model, x, process, RngState(33),
                                params=leaves(model.store))

        worst = max(worst, finite_diff_check(f_teacher, model.store,
                                             max_coords=60, rng=RngState(34)).max_rel_error)

    rng = RngState(35)
    teacher_logp = log_softmax(rng.normal((2, 3, 2)))
    aux_logp = log_softmax(rng.normal((2, 3, 2)))
    teacher_probs, aux_probs = np.exp(teacher_logp), np.exp(aux_logp)
    z_s = rng.integers(0, 2, size=(2, 3))
    target = rng.integers(0, 2, size=(2, 3))

    # L_GEN (generator side)
    gen_store = ParamStore({"logits": rng.normal((2, 3, 2))})

    def f_gen():
        return generator_loss(ad.softmax(leaves(gen_store)["logits"]),
                              teacher_logp, aux_logp)

    worst = max(worst, finite_diff_check(f_gen, gen_store).max_rel_error)

    # L_AUX (auxiliary side)
    aux_store = ParamStore({"logits": rng.normal((2, 3, 2))})

    def f_aux():
        return auxiliary_loss(target, teacher_probs,
                              ad.log_softmax(leaves(aux_store)["logits"]), MASKED)

    worst = max(worst, finite_diff_check(f_aux, aux_store).max_rel_error)

    # posterior-KL variants, 1-position uniform instance
    gen_probs = softmax(rng.normal((2, 1, 2)))
    aux_probs1 = softmax(rng.normal((2, 1, 2)))
    teacher_probs1 = softmax(rng.normal((2, 1, 2)))
    z1 = rng.integers(0, 2, size=(2, 1))

    pg_store = ParamStore({"logits": rng.normal((2, 1, 2))})

    def f_pgen():
        return generator_loss_posterior(ad.softmax(leaves(pg_store)["logits"]),
                                        teacher_probs1, aux_probs1, z1, 0.5,
                                        1 / 64, UNIFORM)

    worst = max(worst, finite_diff_check(f_pgen, pg_store).max_rel_error)

    pa_store = ParamStore({"logits": rng.normal((2, 1, 2))})

    def f_paux():
        return auxiliary_loss_posterior(gen_probs, teacher_probs1,
                                        ad.softmax(leaves(pa_store)["logits"]),
                                        z1, 0.5, 1 / 64, UNIFORM)

    worst = max(worst, finite_diff_check(f_paux, pa_store).max_rel_error)

    # the closed-form posterior-KL head that training runs, both phases, with
    # per-example s and (masked) revealed positions in z_s
    rng = RngState(36)
    for process in (MASKED, UNIFORM):
        z_h = rng.integers(0, process.vocab_eff, size=(2, 3))
        s_h = rng.uniform(size=2)
        teacher_h, fixed_h = softmax(rng.normal((2, 3, 2))), softmax(rng.normal((2, 3, 2)))
        for gen_phase in (True, False):
            head_store = ParamStore({"logits": rng.normal((2, 3, 2))})

            def f_head():
                probs = softmax(head_store.arrays()["logits"])
                gen, aux = (probs, fixed_h) if gen_phase else (fixed_h, probs)
                loss, dlogits = posterior_kl_head(gen, teacher_h, aux, z_h, s_h, 1 / 64, process,
                                                  position_mask(z_h, process), gen_phase)
                head_store.grads[:] = dlogits.ravel()
                return loss

            worst = max(worst, finite_diff_check(f_head, head_store).max_rel_error)

    assert worst < 1e-4, worst
    print(f"ACCEPT 1 PASS gradient correctness: max rel err {worst:.3g} < 1e-4")


GRID = [(0.0, 0.3), (0.2, 0.5), (0.25, 0.5), (0.4, 0.9), (0.0, 1.0),
        (0.5, 0.5), (0.1, 0.8), (0.6, 0.95), (0.3, 0.35)]


def test_accept_2_posterior_exactness():
    """Empirical posterior_sample frequencies match the analytic posterior."""
    n = 100_000
    rng = RngState(40)
    worst = 0.0
    for process in (MASKED, UNIFORM):
        for s, t in GRID:
            x = np.zeros((1, 1), dtype=np.int64)
            z_t = (np.full((1, 1), process.mask_id, dtype=np.int64)
                   if process.masked else np.ones((1, 1), dtype=np.int64))
            analytic = posterior(x, z_t, s, t, process)[0, 0]
            draws = posterior_sample(np.tile(x, (n, 1)), np.tile(z_t, (n, 1)),
                                     s, t, process, rng)
            freqs = np.bincount(draws[:, 0], minlength=process.vocab_eff) / n
            worst = max(worst, tv(freqs, analytic))
    # masked carry-over is exact, not just sampled
    carry = posterior(np.array([[1]]), np.array([[0]]), 0.2, 0.7, MASKED)
    np.testing.assert_array_equal(carry[0, 0], [1.0, 0.0, 0.0])
    assert worst < 0.01, worst
    print(f"ACCEPT 2 PASS posterior exactness: max TV {worst:.4f} < 0.01 at N={n}")


def test_accept_3_marginal_consistency():
    """diffuse to t then posterior-sample to s == alpha_s x + (1-alpha_s) pi."""
    n = 100_000
    rng = RngState(41)
    worst = 0.0
    for process in (MASKED, UNIFORM):
        for s, t in GRID:
            x = np.zeros((n, 1), dtype=np.int64)
            z_t = diffuse(x, t, process, rng)
            z_s = posterior_sample(x, z_t, s, t, process, rng)
            freqs = np.bincount(z_s[:, 0], minlength=process.vocab_eff) / n
            alpha_s = float(process.schedule.alpha(s))
            expected = (alpha_s * one_hot(np.array(0), process.vocab_eff)
                        + (1 - alpha_s) * process.pi)
            worst = max(worst, tv(freqs, expected))
    assert worst < 0.01, worst
    print(f"ACCEPT 3 PASS marginal consistency: max TV {worst:.4f} < 0.01 at N={n}")


def test_accept_4_factorization_error_curve():
    """Oracle chain on correlated_bits: ln 2 at k=1, <= 0.01 at k=64, monotone."""
    ks = (1, 2, 4, 8, 16, 32, 64)
    kls = [kl(Q_CB, factorized_oracle_chain(Q_CB, MASKED, k)) for k in ks]
    assert abs(kls[0] - np.log(2.0)) < 1e-6, kls[0]
    assert kls[-1] <= 0.01, kls[-1]
    assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:])), kls
    curve = ", ".join(f"k={k}:{v:.4f}" for k, v in zip(ks, kls))
    print(f"ACCEPT 4 PASS factorization-error curve: {curve}")


@pytest.mark.slow
def test_accept_5_dmmd_headline():
    """k=1 student beats the 1-step teacher by >= 10x on correlated_bits."""
    t0 = time.time()
    teacher, _ = _cb_teacher()
    teacher_k1 = _teacher_kl(teacher, MASKED, CB, 1, Q_CB)
    teacher_k16 = _teacher_kl(teacher, MASKED, CB, 16, Q_CB)
    assert teacher_k1 >= 0.6, teacher_k1
    assert teacher_k16 <= 0.05, teacher_k16

    cfg = DistillConfig(k=1, steps=12000, gen_lr=1e-3, aux_lr=3e-3,
                        aux_per_gen=2, soft_targets=True)
    student_kl, student, steps = _distill_best_kl(teacher, CB, MASKED, Q_CB, cfg,
                                                  seed=11, n_noise=8,
                                                  max_steps=12000)
    assert steps <= 20000
    assert student_kl <= 0.05, student_kl
    assert teacher_k1 / student_kl >= 10.0, (teacher_k1, student_kl)
    teacher_ent = generator_output_entropy(teacher, MASKED, 64, RngState(50))
    student_ent = generator_output_entropy(student, MASKED, 64, RngState(50))
    assert student_ent < teacher_ent, (student_ent, teacher_ent)
    print(f"ACCEPT 5 PASS D-MMD headline: teacher k=1 {teacher_k1:.4f}, "
          f"k=16 {teacher_k16:.4f}; student k=1 {student_kl:.4f} "
          f"({teacher_k1 / student_kl:.0f}x better, {steps} steps, "
          f"{time.time() - t0:.0f}s)")


@pytest.mark.slow
def test_accept_6_noise_conditioning():
    """On mode_mixture, noise conditioning helps and collapses output entropy."""
    t0 = time.time()
    ds = SyntheticDataset("mode_mixture", 2, 2, modes=np.array([[0, 1], [1, 0]]))
    proc = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
    q = ExactDistribution(2, 2, ds.exact_q())
    mcfg = ModelConfig(seq_len=2, vocab=2, masked=True)
    teacher, _ = train_teacher(ds, proc, mcfg,
                               TeacherTrainConfig(steps=4000, eval_every=2000),
                               RngState(7), record_wallclock=False)
    teacher_entropy = generator_output_entropy(teacher, proc, 64, RngState(50))

    results = {}
    for n_noise in (8, 0):
        cfg = DistillConfig(k=1, steps=10000, gen_lr=1e-3, aux_lr=3e-3,
                            aux_per_gen=2, soft_targets=True)
        best, gen, _ = _distill_best_kl(teacher, ds, proc, q, cfg, seed=11,
                                        n_noise=n_noise, max_steps=10000)
        ent = generator_output_entropy(gen, proc, 64, RngState(51))
        results[n_noise] = (best, ent, gen)

    (noise_kl, noise_ent, noise_gen), (plain_kl, _, _) = results[8], results[0]
    assert noise_kl <= plain_kl, results
    assert noise_ent < teacher_entropy, (noise_ent, teacher_entropy)
    # output diversity: different noise draws commit to different modes
    eps = RngState(52).normal((16, 8))
    z = np.full((16, 2), proc.mask_id, dtype=np.int64)
    argmaxes = np.argmax(noise_gen.probs(z, 1.0, noise=eps), axis=-1)
    patterns = {tuple(row) for row in argmaxes}
    assert len(patterns) >= 2, patterns
    print(f"ACCEPT 6 PASS noise conditioning: KL with noise {noise_kl:.4f} <= "
          f"without {plain_kl:.4f}; entropy {noise_ent:.3f} < teacher "
          f"{teacher_entropy:.3f}; {len(patterns)} argmax patterns over noise "
          f"draws ({time.time() - t0:.0f}s)")


def test_accept_7_fixed_point():
    """generator = auxiliary = teacher: 100 steps leave outputs in place."""
    teacher, _ = _cb_teacher()
    cfg = DistillConfig(k=1, soft_targets=True, gen_lr=1e-5, aux_lr=1e-5, steps=100)
    dist = Distiller(teacher, CB, MASKED, cfg, RngState(23), n_noise=0)
    probes = np.array([[2, 2], [0, 2], [2, 1], [1, 1]])
    before = teacher.probs(probes, 0.5)
    for _ in range(100):
        dist.step()
    after = dist.generator.probs(probes, 0.5)
    drift = 0.5 * float(np.max(np.sum(np.abs(after - before), axis=-1)))
    assert drift < 1e-3, drift
    print(f"ACCEPT 7 PASS fixed point: max probe TV {drift:.2e} < 1e-3 after 100 steps")


def test_accept_8_gradient_moment_soundness():
    """GM(data) ~ 0; GM(uniform) > 5 SE; corrupted data strictly between."""
    ref = ReferenceModel(2, 2)
    ref.fit_exact(Q_CB)
    rng = RngState(60)

    def uniform_sampler(n, r):
        return r.integers(0, 2, size=(n, 2))

    def corrupted_sampler(n, r):
        x = CB.sample(n, r)
        flip = r.uniform(size=x.shape) < 0.1
        return np.where(flip, r.integers(0, 2, size=x.shape), x)

    gm_data = gradient_moment(ref, CB.sample, CB.sample, 64, 200, rng.child(0))
    gm_unif = gradient_moment(ref, uniform_sampler, CB.sample, 64, 200, rng.child(1))
    gm_corr = gradient_moment(ref, corrupted_sampler, CB.sample, 64, 200, rng.child(2))
    assert abs(gm_data.estimate) <= 3 * gm_data.stderr, gm_data
    assert gm_unif.estimate > 5 * gm_unif.stderr, gm_unif
    assert gm_data.estimate < gm_corr.estimate < gm_unif.estimate, \
        (gm_data.estimate, gm_corr.estimate, gm_unif.estimate)
    print(f"ACCEPT 8 PASS gradient moment: data {gm_data.estimate:.2e} "
          f"(SE {gm_data.stderr:.2e}), corrupted {gm_corr.estimate:.2e}, "
          f"uniform {gm_unif.estimate:.2e}")


@pytest.mark.slow
def test_accept_9_top_p_surgery():
    """Nucleus surgery exact; Delta-shift trains; naive -1e20 masking diverges."""
    t0 = time.time()

    class Fixed:
        def forward(self, z_s, s):
            return np.broadcast_to(np.log([0.5, 0.3, 0.2]),
                                   z_s.shape + (3,)).copy()

    out = teacher_logits(Fixed(), np.zeros((1, 1), dtype=np.int64), 0.5,
                         tau=1.0, top_p=0.7, delta=2.0)
    np.testing.assert_allclose(out[0, 0, :2], np.log([0.5, 0.3]), atol=1e-12)
    np.testing.assert_allclose(out[0, 0, 2], np.log(0.2) - 2.0, atol=1e-12)
    # boundedness: nothing exceeds |log-prob|/tau + Delta
    for tau in (1.0, 0.5):
        mod = teacher_logits(Fixed(), np.zeros((2, 3), dtype=np.int64), 0.5,
                             tau=tau, top_p=0.6, delta=2.0)
        assert np.max(np.abs(mod)) <= abs(np.log(0.2)) / tau + 2.0 + 1e-9

    teacher, _ = _cb_teacher()
    cfg = DistillConfig(k=1, steps=4000, gen_lr=1e-3, aux_lr=3e-3,
                        aux_per_gen=2, soft_targets=True, top_p=0.85, delta=2.0)
    dist = Distiller(teacher, CB, MASKED, cfg, RngState(11), n_noise=8)
    for _ in range(4000):
        phase, loss = dist.step()
        assert np.isfinite(loss)

    naive_cfg = DistillConfig(k=1, steps=4000, gen_lr=1e-3, aux_lr=3e-3,
                              aux_per_gen=2, soft_targets=True, top_p=0.85,
                              delta=1e20)
    naive = Distiller(teacher, CB, MASKED, naive_cfg, RngState(11), n_noise=8)
    with pytest.raises(DistillDivergence):
        for _ in range(4000):
            naive.step()
    print(f"ACCEPT 9 PASS top-p surgery: unit values exact, Delta-shift run "
          f"finite for 4000 steps, naive -1e20 masking diverges "
          f"({time.time() - t0:.0f}s)")


ACCEPT_10_CONFIG = """
[dataset]
kind = correlated_bits
seq_len = 2
vocab = 2

[process]
kind = masked

[model]
emb = 8
hidden = 12
depth = 1
n_noise = 4

[teacher]
steps = 300
eval_every = 150
eval_steps = 4

[distill]
k = 1
steps = 80
eval_every = 40
noise_marginal_draws = 8

[eval]
n_samples = 2000
gm_pairs = 20

[run]
record_wallclock = false
"""


def test_accept_10_determinism(tmp_path):
    """Every subcommand, run twice with one seed: byte-identical artifacts."""
    config = tmp_path / "exp.ini"
    config.write_text(ACCEPT_10_CONFIG)

    def run_all(out):
        assert main(["train-teacher", "--config", str(config), "--out", out,
                     "--seed", "5"]) == 0
        teacher = os.path.join(out, "teacher.ckpt")
        assert main(["distill", "--config", str(config), "--teacher", teacher,
                     "--out", out, "--seed", "5"]) == 0
        gen = os.path.join(out, "generator.ckpt")
        assert main(["sample", "--config", str(config), "--checkpoint", gen,
                     "--out", out, "--seed", "5", "--n", "100"]) == 0
        assert main(["eval", "--config", str(config), "--checkpoint", gen,
                     "--out", out, "--seed", "5",
                     "--metrics", "exact_kl,sample_entropy,gen_output_entropy"]) == 0
        assert main(["sweep", "--config", str(config), "--axis", "distill.k",
                     "--values", "1,2,4", "--out", out, "--seed", "5"]) == 0

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_all(out_a)
    run_all(out_b)
    checked = 0
    for name in sorted(os.listdir(out_a)):
        pa, pb = os.path.join(out_a, name), os.path.join(out_b, name)
        if name.endswith(".npz"):
            # the zip container embeds timestamps; compare the payload
            with np.load(pa) as za, np.load(pb) as zb:
                assert sorted(za.files) == sorted(zb.files)
                for key in za.files:
                    np.testing.assert_array_equal(za[key], zb[key])
        else:
            assert open(pa, "rb").read() == open(pb, "rb").read(), name
        checked += 1
    assert checked >= 11
    print(f"ACCEPT 10 PASS determinism: {checked} artifacts byte-identical "
          f"across repeated seeded runs")
