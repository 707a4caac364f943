"""Tests for the parameter store and Adam, and for the tape oracle of
`tests/oracle.py`: every tape gradient is checked against central finite
differences, never against itself."""

import importlib
import pkgutil

import numpy as np
import pytest

import ddlab
import oracle as ad
from ddlab.autodiff import AdamState, AutodiffError, ParamStore, adam_step
from ddlab.numerics import NumericsError, RngState, one_hot
from oracle import Var, backward, finite_diff_check, leaves


def _store_with(name, array):
    store = ParamStore()
    store.add(name, array)
    return store


def test_ops_fall_through_without_vars():
    a, b = np.ones((2, 3)), np.full((2, 3), 2.0)
    assert isinstance(ad.add(a, b), np.ndarray)
    assert isinstance(ad.softmax(a), np.ndarray)
    assert isinstance(ad.reduce_sum(a), np.floating)


def test_softmax_cross_entropy_gradient():
    # d/dv CE(one-hot, log_softmax(v)) = softmax(v) - one-hot
    v = np.array([0.3, -1.2, 0.7])
    store = _store_with("v", v)
    leaf = leaves(store)["v"]
    logp = ad.log_softmax(leaf)
    loss = ad.mul(ad.reduce_sum(ad.mul(logp, one_hot(np.array(1), 3))), -1.0)
    backward(loss)
    expected = ad.softmax(v) - one_hot(np.array(1), 3)
    np.testing.assert_allclose(store.grad("v"), expected, atol=1e-12)


def test_quadratic_gradient():
    store = _store_with("x", np.array([1.0, -2.0, 3.0]))
    leaf = leaves(store)["x"]
    loss = ad.reduce_sum(ad.mul(leaf, leaf))
    backward(loss)
    np.testing.assert_allclose(store.grad("x"), 2.0 * store.get("x"), atol=1e-12)


def test_gradient_accumulates_across_reuse():
    store = _store_with("x", np.array([2.0]))
    leaf = leaves(store)["x"]
    loss = ad.reduce_sum(ad.add(ad.mul(leaf, 3.0), ad.mul(leaf, leaf)))
    backward(loss)
    np.testing.assert_allclose(store.grad("x"), [3.0 + 4.0], atol=1e-12)


def test_backward_is_linear():
    # grad of (f + g) equals grad f plus grad g
    x = np.array([0.4, -1.1])
    grads = []
    for combo in ("f", "g", "fg"):
        store = _store_with("x", x)
        leaf = leaves(store)["x"]
        f = ad.reduce_sum(ad.tanh(leaf))
        g = ad.reduce_sum(ad.exp(leaf))
        loss = {"f": f, "g": g, "fg": ad.add(f, g)}[combo]
        backward(loss)
        grads.append(store.grad("x").copy())
    np.testing.assert_allclose(grads[2], grads[0] + grads[1], atol=1e-12)


def test_stop_gradient_blocks():
    store = _store_with("x", np.array([1.0, 2.0]))
    leaf = leaves(store)["x"]
    blocked = ad.stop_gradient(ad.mul(leaf, leaf))
    loss = ad.reduce_sum(ad.mul(leaf, blocked))
    backward(loss)
    # blocked acts as a constant, so the grad is just blocked itself
    np.testing.assert_allclose(store.grad("x"), store.get("x") ** 2, atol=1e-12)


def test_backward_rejects_nonscalar_and_plain_arrays():
    store = _store_with("x", np.ones(3))
    leaf = leaves(store)["x"]
    with pytest.raises(AutodiffError):
        backward(ad.mul(leaf, 2.0))
    with pytest.raises(AutodiffError):
        backward(np.ones(1))


def test_matmul_requires_2d_rhs():
    with pytest.raises(AutodiffError):
        ad.matmul(np.ones((2, 2)), np.ones(2))


@pytest.mark.parametrize("build", [
    lambda leaf: ad.reduce_sum(ad.tanh(ad.matmul(leaf, np.arange(12.0).reshape(4, 3)))),
    lambda leaf: ad.reduce_mean(ad.exp(ad.mul(leaf, 0.3))),
    lambda leaf: ad.reduce_sum(ad.log(ad.add(ad.mul(leaf, leaf), 1.0))),
    lambda leaf: ad.reduce_sum(ad.mul(ad.softmax(leaf, axis=-1), np.arange(8.0).reshape(2, 4))),
    lambda leaf: ad.reduce_sum(ad.mul(ad.log_softmax(leaf), np.ones((2, 4)))),
    lambda leaf: ad.reduce_sum(ad.take_along_last(leaf, np.array([1, 3]))),
    lambda leaf: ad.reduce_sum(ad.div(leaf, ad.add(ad.mul(leaf, leaf), 2.0))),
])
def test_composite_ops_match_finite_differences(build):
    rng = RngState(5)
    store = _store_with("w", rng.normal((2, 4)))

    def f():
        return build(leaves(store)["w"])

    report = finite_diff_check(f, store)
    assert report.max_rel_error < 1e-6, report


def test_take_rows_gradient():
    store = _store_with("table", RngState(1).normal((5, 3)))
    idx = np.array([[0, 2], [2, 2]])

    def f():
        return ad.reduce_sum(ad.mul(ad.take_rows(leaves(store)["table"], idx), 2.0))

    report = finite_diff_check(f, store)
    assert report.max_rel_error < 1e-6, report


def test_unbroadcast_bias_gradient():
    store = _store_with("b", np.zeros(3))

    def f():
        return ad.reduce_sum(ad.tanh(ad.add(np.ones((4, 3)), leaves(store)["b"])))

    report = finite_diff_check(f, store)
    assert report.max_rel_error < 1e-6, report


def test_param_store_segments():
    store = ParamStore()
    store.add("a", np.arange(6.0).reshape(2, 3))
    store.add("b", np.array([7.0]))
    assert store.values.size == 7
    np.testing.assert_array_equal(store.get("a")[1], [3.0, 4.0, 5.0])
    store.set("b", np.array([9.0]))
    assert store.get("b")[0] == 9.0
    with pytest.raises(AutodiffError):
        store.add("a", np.zeros(2))


def test_param_store_copy_is_independent():
    store = ParamStore()
    store.add("a", np.ones(3))
    dup = store.copy()
    dup.set("a", np.zeros(3))
    np.testing.assert_array_equal(store.get("a"), np.ones(3))


def test_adam_step_size_approaches_lr():
    # with a constant gradient the Adam update converges to lr
    store = _store_with("x", np.array([0.0]))
    state = AdamState.for_store(store)
    lr = 1e-2
    for _ in range(500):
        store.grads[:] = 1.0
        before = store.values.copy()
        adam_step(store, state, lr=lr)
    assert abs((before - store.values)[0] - lr) < 1e-4


def test_adam_rejects_nonfinite_gradients():
    store = _store_with("x", np.array([0.0]))
    state = AdamState.for_store(store)
    store.grads[:] = np.nan
    with pytest.raises(NumericsError):
        adam_step(store, state)


def test_finite_diff_check_flags_wrong_gradient():
    # an op with a deliberately corrupted backward rule must be caught
    store = _store_with("x", np.array([0.5, -0.3]))

    def f():
        leaf = leaves(store)["x"]
        good = ad.tanh(leaf)
        bad = Var(good.value, ((leaf, lambda g: 2.0 * g),))  # wrong jacobian
        return ad.reduce_sum(bad)

    report = finite_diff_check(f, store)
    assert report.max_rel_error > 0.1


def test_package_holds_no_tape():
    # the tape is a test oracle only: no ddlab module defines or imports it
    names = ["ddlab"] + [m.name for m in pkgutil.iter_modules(ddlab.__path__, "ddlab.")]
    assert "ddlab.autodiff" in names and "ddlab.distill" in names
    for name in names:
        module = importlib.import_module(name)
        for banned in ("Var", "backward", "finite_diff_check"):
            assert not hasattr(module, banned), (name, banned)
