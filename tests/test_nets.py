"""Model architecture and checkpoint round-trip tests."""

import numpy as np
import pytest

from ddlab.nets import (CHECKPOINT_MAGIC, Denoiser, ModelConfig,
                        ModelError, init_from_teacher, load_checkpoint,
                        model_from_checkpoint, save_checkpoint, time_features)
from ddlab.numerics import RngState

CFG = ModelConfig(seq_len=3, vocab=2, masked=True)


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(seq_len=0, vocab=2, masked=True)
    with pytest.raises(ModelError):
        ModelConfig(seq_len=2, vocab=2, masked=True, time_width=7)
    assert CFG.vocab_in == 3
    assert ModelConfig(seq_len=2, vocab=4, masked=False).vocab_in == 4


def test_time_features_shape_and_range():
    feat = time_features(0.3, 8, batch=5)
    assert feat.shape == (5, 8)
    assert np.all(np.abs(feat) <= 1.0)
    per_example = time_features(np.array([0.0, 1.0]), 8, batch=2)
    assert not np.array_equal(per_example[0], per_example[1])


def test_untrained_model_is_uniform():
    # zero head: the fresh model predicts exactly uniform everywhere
    model = Denoiser(CFG, RngState(0))
    z = np.array([[0, 1, CFG.vocab], [2, 2, 2]])
    probs = model.probs(z, 0.5)
    np.testing.assert_allclose(probs, 0.5, atol=1e-12)


def test_forward_validates_tokens():
    model = Denoiser(CFG, RngState(0))
    with pytest.raises(ModelError):
        model.forward(np.array([[0, 1]]), 0.5)  # wrong length
    with pytest.raises(ModelError):
        model.forward(np.array([[0, 1, 3]]), 0.5)  # id out of range
    with pytest.raises(ModelError, match="no row"):
        model.forward(np.zeros((0, 3), dtype=np.int64), 0.5)
    with pytest.raises(ModelError, match="integers"):
        model.forward(np.array([[0.0, 1.0, 2.0]]), 0.5)
    z = np.zeros((4, 3), dtype=np.int64)
    for t in (np.full(3, 0.5), np.full(5, 0.5), np.full((4, 1), 0.5), np.full(1, 0.5)):
        with pytest.raises(ModelError, match="t must be"):
            model.forward(z, t)  # per-row t of a shape other than (batch,)
    assert model.forward(z, np.full(4, 0.5)).shape == (4, 3, CFG.vocab)


def test_cross_position_mixing():
    model = Denoiser(CFG, RngState(1))
    # perturb the head so outputs are not uniform
    model.store.arrays()["head_w"][:] = RngState(2).normal((CFG.emb, CFG.vocab))
    a = model.forward(np.array([[0, 0, 0]]), 0.5)
    b = model.forward(np.array([[0, 0, 1]]), 0.5)
    # output at position 0 must react to the change at position 2
    assert np.max(np.abs(a[0, 0] - b[0, 0])) > 1e-8


def test_output_depends_on_time():
    model = Denoiser(CFG, RngState(1))
    model.store.arrays()["head_w"][:] = RngState(2).normal((CFG.emb, CFG.vocab))
    z = np.array([[0, 1, CFG.vocab]])
    assert np.max(np.abs(model.forward(z, 0.1) - model.forward(z, 0.9))) > 1e-8


def test_generator_noise_projection():
    gen_cfg = ModelConfig(seq_len=3, vocab=2, masked=True, n_noise=4)
    gen = Denoiser(gen_cfg, RngState(3))
    z = np.array([[2, 2, 2]])
    base = gen.probs(z, 1.0, noise=np.zeros((1, 4)))
    # zero-initialized projection: noise has no effect until trained
    np.testing.assert_allclose(gen.probs(z, 1.0, noise=np.ones((1, 4))), base, atol=1e-12)
    gen.store.arrays()["noise_w"][:] = RngState(4).normal((4, gen_cfg.emb))
    gen.store.arrays()["head_w"][:] = RngState(5).normal((gen_cfg.emb, 2))
    changed = gen.probs(z, 1.0, noise=np.ones((1, 4)))
    assert np.max(np.abs(changed - gen.probs(z, 1.0, noise=np.zeros((1, 4))))) > 1e-8


def test_noise_shape_enforced():
    gen = Denoiser(ModelConfig(seq_len=3, vocab=2, masked=True, n_noise=4), RngState(0))
    with pytest.raises(ModelError):
        gen.forward(np.array([[0, 1, 2]]), 0.5, noise=np.zeros((1, 3)))
    plain = Denoiser(ModelConfig(seq_len=3, vocab=2, masked=True), RngState(0))
    with pytest.raises(ModelError):
        plain.forward(np.array([[0, 1, 2]]), 0.5, noise=np.zeros((1, 4)))


def test_init_from_teacher_matches_bit_for_bit():
    teacher = Denoiser(CFG, RngState(6))
    teacher.store.arrays()["head_w"][:] = RngState(7).normal((CFG.emb, CFG.vocab))
    gen, aux = init_from_teacher(teacher, n_noise=8)
    z = np.array([[2, 0, 2], [1, 2, 2]])
    for t in (0.25, 1.0):
        np.testing.assert_array_equal(gen.probs(z, t, noise=np.zeros((2, 8))),
                                      teacher.probs(z, t))
        np.testing.assert_array_equal(aux.probs(z, t), teacher.probs(z, t))
    # and the copies are independent
    aux.store.values += 1.0
    np.testing.assert_array_equal(gen.probs(z, 0.5, noise=np.zeros((2, 8))),
                                  teacher.probs(z, 0.5))


def test_checkpoint_round_trip(tmp_path):
    gen_cfg = ModelConfig(seq_len=3, vocab=2, masked=True, n_noise=4)
    gen = Denoiser(gen_cfg, RngState(8))
    gen.store.values[:] = RngState(9).normal(gen.store.values.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen_cfg, gen.store, extra={"seed": 3, "role": "generator"})
    cfg, values, extra = load_checkpoint(path)
    assert cfg == gen_cfg
    np.testing.assert_array_equal(values, gen.store.values)
    assert extra == {"seed": "3", "role": "generator"}

    model, _ = model_from_checkpoint(path)
    assert isinstance(model, Denoiser)
    z = np.array([[2, 2, 2]])
    eps = RngState(10).normal((1, 4))
    np.testing.assert_array_equal(model.probs(z, 1.0, noise=eps),
                                  gen.probs(z, 1.0, noise=eps))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n---\n")
    with pytest.raises(ModelError):
        load_checkpoint(path)
    assert CHECKPOINT_MAGIC.startswith("ddlab-checkpoint")


def test_checkpoint_param_count_checked(tmp_path):
    model = Denoiser(CFG, RngState(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, CFG, model.store)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # truncate one parameter
    with pytest.raises(ModelError):
        load_checkpoint(path)
