"""Teacher loss and training loop tests."""

import numpy as np
import pytest

from ddlab.data import make_dataset
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState
from ddlab.process import DiffusionProcess, NoiseSchedule
from ddlab.teacher import TeacherTrainConfig, loss_weight, train_teacher
from oracle import finite_diff_check, leaves, teacher_loss

MASKED = DiffusionProcess("masked", 2, NoiseSchedule("linear"))
UNIFORM = DiffusionProcess("uniform", 2, NoiseSchedule("linear"))


def test_loss_weight_unit():
    t = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(loss_weight(t, MASKED, "unit"), np.ones(3))


def test_loss_weight_mdlm():
    # linear schedule: -alpha'/(1-alpha) = 1/t
    t = np.array([0.25, 0.5])
    np.testing.assert_allclose(loss_weight(t, MASKED, "mdlm"), 1.0 / t, atol=1e-9)
    with pytest.raises(ValueError):
        loss_weight(t, MASKED, "cosine")


def test_uniform_output_model_loss_is_ln2():
    # the zero-head init predicts uniform over K=2 everywhere
    model = Denoiser(ModelConfig(seq_len=2, vocab=2, masked=True), RngState(0))
    x = make_dataset("correlated_bits", 2, 2).sample(256, RngState(1))
    loss = teacher_loss(model, x, MASKED, RngState(2))
    np.testing.assert_allclose(float(loss), np.log(2.0), atol=1e-9)


def test_teacher_loss_gradient_matches_finite_differences():
    for process in (MASKED, UNIFORM):
        cfg = ModelConfig(seq_len=2, vocab=2, masked=process.masked, emb=4,
                          hidden=6, depth=1, time_width=4)
        model = Denoiser(cfg, RngState(3))
        model.store.values[:] = RngState(4).normal(model.store.values.shape) * 0.3
        x = make_dataset("correlated_bits", 2, 2).sample(8, RngState(5))

        def f():
            return teacher_loss(model, x, process, RngState(6),
                                params=leaves(model.store))

        report = finite_diff_check(f, model.store, max_coords=60, rng=RngState(7))
        assert report.max_rel_error < 1e-4, report


def test_train_teacher_reaches_low_kl():
    ds = make_dataset("correlated_bits", 2, 2)
    cfg = ModelConfig(seq_len=2, vocab=2, masked=True)
    tcfg = TeacherTrainConfig(steps=1500, eval_every=500)
    model, rows = train_teacher(ds, MASKED, cfg, tcfg, RngState(7),
                                record_wallclock=False)
    assert rows[-1]["eval_kl"] < 0.1
    assert rows[-1]["eval_kl"] < rows[0]["eval_kl"]
    assert all(row["wallclock_ms"] == 0.0 for row in rows)


def test_train_teacher_loss_decreases():
    ds = make_dataset("markov_chain", 3, 2, seed=1)
    cfg = ModelConfig(seq_len=3, vocab=2, masked=False)
    tcfg = TeacherTrainConfig(steps=800, eval_every=100, eval_steps=8)
    _, rows = train_teacher(ds, UNIFORM, cfg, tcfg, RngState(8),
                            record_wallclock=False)
    losses = [row["loss"] for row in rows]
    assert np.mean(losses[-3:]) < np.mean(losses[:3])


def test_train_teacher_is_deterministic():
    ds = make_dataset("correlated_bits", 2, 2)
    cfg = ModelConfig(seq_len=2, vocab=2, masked=True)
    tcfg = TeacherTrainConfig(steps=50, eval_every=25)
    m1, r1 = train_teacher(ds, MASKED, cfg, tcfg, RngState(9), record_wallclock=False)
    m2, r2 = train_teacher(ds, MASKED, cfg, tcfg, RngState(9), record_wallclock=False)
    np.testing.assert_array_equal(m1.store.values, m2.store.values)
    assert r1 == r2

