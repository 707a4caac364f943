"""The reverse-mode autodiff tape: the tests' gradient oracle.

Training in `ddlab` runs one plain-numpy forward, a hand-derived backward and
closed-form loss heads. This module is a second, independent route to the
same numbers: a tape of `Var` nodes, rebuilt on every forward pass, whose
ops accept a mix of `Var` and plain arrays (with no `Var` an op falls
through to numpy). On top of the ops it holds the tape forms of the network
(`tape_forward`), of every training loss, and of the soft-x posterior, and
`finite_diff_check`, which checks a gradient against central differences.
The tests compare the package's closed forms against these. Two small
helpers only the tests use sit here too, `zero_grad` and `tv`, and the
per-batch loop form of the reference model's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddlab import numerics
from ddlab.autodiff import ParamStore
from ddlab.distill import DistillError
from ddlab.nets import Denoiser, _check_inputs, time_features
from ddlab.numerics import one_hot
from ddlab.process import DiffusionProcess, ProcessError
from ddlab.teacher import _noised_batch


class AutodiffError(ValueError):
    pass


class Var:
    __slots__ = ("value", "parents", "grad", "store_ref")

    def __init__(self, value, parents=(), store_ref=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents  # tuple of (Var, grad_fn(out_grad) -> grad wrt parent)
        self.grad = None
        self.store_ref = store_ref  # (ParamStore, name) for leaves (see `leaves`)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value_of(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _any_var(*args):
    return any(isinstance(a, Var) for a in args)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    if not _any_var(a, b):
        return value_of(a) + value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av + bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g, bv.shape)))
    return Var(out, tuple(parents))


def sub(a, b):
    return add(a, mul(b, -1.0))


def mul(a, b):
    if not _any_var(a, b):
        return value_of(a) * value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av * bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g * bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g * av, bv.shape)))
    return Var(out, tuple(parents))


def div(a, b):
    if not _any_var(a, b):
        return value_of(a) / value_of(b)
    av, bv = value_of(a), value_of(b)
    out = av / bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g / bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)))
    return Var(out, tuple(parents))


def _rows_matmul(x, w):
    """x @ w as one 2-D product over all leading axes of x, as the fused
    network in `ddlab.nets` runs it (a stack of matrices rounds differently)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[-1],))


def matmul(a, b):
    """a @ b with b a 2-D weight matrix (the only case the models need)."""
    av, bv = value_of(a), value_of(b)
    if bv.ndim != 2:
        raise AutodiffError("matmul expects a 2-D right operand")
    out = _rows_matmul(av, bv)
    if not _any_var(a, b):
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _rows_matmul(g, bv.T)))
    if isinstance(b, Var):
        parents.append((b, lambda g: av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])))
    return Var(out, tuple(parents))


def tanh(a):
    if not _any_var(a):
        return np.tanh(value_of(a))
    out = np.tanh(a.value)
    return Var(out, ((a, lambda g: g * (1.0 - out * out)),))


def exp(a):
    if not _any_var(a):
        return np.exp(value_of(a))
    out = np.exp(a.value)
    return Var(out, ((a, lambda g: g * out),))


def log(a, floor: float = 0.0):
    if not _any_var(a):
        return np.log(value_of(a) + floor) if floor else np.log(value_of(a))
    av = a.value + floor if floor else a.value
    out = np.log(av)
    return Var(out, ((a, lambda g: g / av),))


def reduce_sum(a, axis=None, keepdims=False):
    if not _any_var(a):
        return np.sum(value_of(a), axis=axis, keepdims=keepdims)
    av = a.value
    out = np.sum(av, axis=axis, keepdims=keepdims)

    def back(g):
        g = np.asarray(g)
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return Var(out, ((a, back),))


def reduce_mean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return div(reduce_sum(a, axis=axis, keepdims=keepdims), float(n))


def expand_dims(a, axis):
    if not _any_var(a):
        return np.expand_dims(value_of(a), axis)
    out = np.expand_dims(a.value, axis)
    return Var(out, ((a, lambda g: np.squeeze(g, axis=axis)),))


def swap_last_axes(a):
    if not _any_var(a):
        return np.swapaxes(value_of(a), -1, -2)
    out = np.swapaxes(a.value, -1, -2)
    return Var(out, ((a, lambda g: np.swapaxes(g, -1, -2)),))


def take_rows(table, indices):
    """Embedding lookup: table[indices] for a 2-D table and integer index array."""
    indices = np.asarray(indices)
    if not _any_var(table):
        return value_of(table)[indices]
    tv = table.value

    def back(g):
        out = np.zeros_like(tv)
        np.add.at(out, indices.ravel(), g.reshape(-1, tv.shape[-1]))
        return out

    return Var(tv[indices], ((table, back),))


def take_along_last(a, indices):
    """Gather scalar entries along the last axis (per-row class selection)."""
    indices = np.asarray(indices)
    if not _any_var(a):
        return np.take_along_axis(value_of(a), indices[..., None], axis=-1)[..., 0]
    av = a.value
    out = np.take_along_axis(av, indices[..., None], axis=-1)[..., 0]

    def back(g):
        full = np.zeros_like(av)
        np.put_along_axis(full, indices[..., None], g[..., None], axis=-1)
        return full

    return Var(out, ((a, back),))


def log_softmax(a, axis: int = -1):
    out = numerics.log_softmax(value_of(a), axis=axis)
    if not _any_var(a):
        return out
    p = np.exp(out)
    return Var(out, ((a, lambda g: g - p * np.sum(g, axis=axis, keepdims=True)),))


def softmax(a, axis: int = -1):
    out = numerics.softmax(value_of(a), axis=axis)
    if not _any_var(a):
        return out
    return Var(out, ((a, lambda g: out * (g - np.sum(g * out, axis=axis, keepdims=True))),))


def stop_gradient(a):
    return value_of(a).copy() if isinstance(a, Var) else np.asarray(a, dtype=np.float64)


def backward(loss: Var) -> None:
    """Reverse-accumulate d(loss)/d(leaf) into each leaf's ParamStore grads.

    Visits every node exactly once in reverse topological order.
    """
    if not isinstance(loss, Var):
        raise AutodiffError("loss is not part of the tape")
    if loss.value.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.value.shape}")

    topo: list[Var] = []
    state: dict[int, int] = {}  # 0 = entered, 1 = done
    stack = [loss]
    while stack:
        node = stack.pop()
        sid = id(node)
        if sid in state:
            if state[sid] == 0:
                state[sid] = 1
                topo.append(node)
            continue
        state[sid] = 0
        stack.append(node)
        for parent, _ in node.parents:
            if id(parent) not in state:
                stack.append(parent)
            elif state[id(parent)] == 0 and parent is not node:
                # ancestor still open: the tape is a DAG built append-only,
                # so a genuine back-edge cannot occur; guard anyway
                raise AutodiffError("cycle in tape")

    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node.grad is None:
            continue
        for parent, grad_fn in node.parents:
            contrib = grad_fn(node.grad)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + contrib
        if node.store_ref is not None:
            store, name = node.store_ref
            store.grad_arrays()[name] += node.grad


def leaves(store: ParamStore) -> dict[str, Var]:
    """One leaf Var per parameter block; `backward` adds into `store.grads`."""
    return {name: Var(value, store_ref=(store, name)) for name, value in store.arrays().items()}


def zero_grad(store: ParamStore) -> None:
    store.grads[:] = 0.0


def tv(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance between two probability vectors."""
    return 0.5 * float(np.sum(np.abs(np.asarray(a) - np.asarray(b))))


def mean_grad_log_likelihood(ref, x: np.ndarray) -> np.ndarray:
    """Batch-mean gradient of `ref`'s log p(x) wrt its logits, flattened, for
    one batch x (B, D): the per-position scatter loop that
    `ReferenceModel.mean_grad_log_likelihood` replaces with two bincounts."""
    x = np.asarray(x)
    prev = np.empty_like(x)
    prev[:, 0] = ref.vocab  # BOS
    prev[:, 1:] = x[:, :-1]
    p = np.exp(numerics.log_softmax(ref.logits, axis=-1))
    grad = np.zeros_like(ref.logits)
    for d in range(ref.seq_len):
        np.add.at(grad[d], (prev[:, d], x[:, d]), 1.0)
        np.add.at(grad[d], (prev[:, d],), -p[d, prev[:, d]])
    return grad.ravel() / x.shape[0]


@dataclass
class FiniteDiffReport:
    max_rel_error: float
    worst_index: int
    analytic_at_worst: float
    numeric_at_worst: float
    n_checked: int


def finite_diff_check(f, store: ParamStore, epsilon=1e-5, max_coords=None, rng=None) -> FiniteDiffReport:
    """Compare analytic gradients against central differences of the scalar `f()`.

    `f` returns a tape Var, whose backward() gives the gradient, or a plain
    loss after writing its own gradient into `store.grads` (a fused step or
    a closed-form head).
    It must be deterministic given the parameter values (fix its RngState).
    Checks all coordinates, or a random subset of `max_coords` for big stores.
    """
    zero_grad(store)
    loss = f()
    if isinstance(loss, Var):
        backward(loss)
    analytic = store.grads.copy()

    n = store.values.size
    coords = np.arange(n)
    if max_coords is not None and n > max_coords:
        gen = np.random.Generator(np.random.PCG64(0 if rng is None else rng.seed))
        coords = gen.choice(n, size=max_coords, replace=False)

    max_rel, worst, a_w, n_w = 0.0, -1, 0.0, 0.0
    for i in coords:
        orig = store.values[i]
        store.values[i] = orig + epsilon
        up = float(value_of(f()))
        store.values[i] = orig - epsilon
        down = float(value_of(f()))
        store.values[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        scale = max(abs(analytic[i]), abs(numeric), 1e-6)
        rel = abs(analytic[i] - numeric) / scale
        if rel > max_rel:
            max_rel, worst, a_w, n_w = rel, int(i), float(analytic[i]), float(numeric)
    return FiniteDiffReport(max_rel, worst, a_w, n_w, len(coords))


# -- tape forms of the network and the losses ----------------------------------


def tape_forward(model: Denoiser, z, t, noise=None, params=None):
    """The logits of `model.forward` on the tape; `params` maps names to
    Vars (the model's `leaves` by default). The same ops in the same order
    as `ddlab.nets._fused_forward`, so the values are equal bit for bit."""
    config = model.config
    params = leaves(model.store) if params is None else params
    z, noise = _check_inputs(config, params, z, noise)
    h = take_rows(params["embed"], z)  # (B, D, E)
    tfeat = time_features(t, config.time_width, z.shape[0])
    h = add(h, expand_dims(matmul(tfeat, params["time_w"]), 1))
    if noise is not None:
        h = add(h, expand_dims(matmul(noise, params["noise_w"]), 1))

    for b in range(config.depth):
        u = tanh(add(matmul(h, params[f"blk{b}_ch_w1"]), params[f"blk{b}_ch_b1"]))
        h = add(h, add(matmul(u, params[f"blk{b}_ch_w2"]), params[f"blk{b}_ch_b2"]))
        ht = swap_last_axes(h)  # (B, E, D): mix across positions
        p = tanh(add(matmul(ht, params[f"blk{b}_pos_w"]), params[f"blk{b}_pos_b"]))
        h = add(h, swap_last_axes(p))

    return add(matmul(h, params["head_w"]), params["head_b"])


def teacher_loss(model: Denoiser, batch: np.ndarray, process: DiffusionProcess,
                 rng, weighting: str = "unit", params=None):
    """Mean w(t) * CE(x | softmax(model(z_t, t))) with per-example t ~ U(0,1),
    restricted to masked positions for masked processes.

    The tape form of `ddlab.teacher.teacher_step`, which draws the same batch
    from the same `rng`. With `params` (leaf Vars) it returns a Var; without,
    a plain value from the fused forward.
    """
    batch = np.asarray(batch)
    t, z_t, wpos, denom = _noised_batch(batch, process, rng, weighting)
    logits = model.forward(z_t, t) if params is None else tape_forward(model, z_t, t, params=params)
    ce = mul(take_along_last(log_softmax(logits), batch), -1.0)  # (B, D)
    return div(reduce_sum(mul(ce, wpos)), denom)


def _masked_mean(per_pos, weight, pos_mask: np.ndarray | None):
    if pos_mask is None:
        pos_mask = np.ones(value_of(per_pos).shape)
    denom = max(pos_mask.sum(), 1.0)
    return div(reduce_sum(mul(per_pos, weight * pos_mask)), denom)


def generator_loss(gen_probs, teacher_logp: np.ndarray, aux_logp: np.ndarray,
                   weight=1.0, pos_mask: np.ndarray | None = None):
    """-sum_c xhat_c (log teacher - log aux)_c, mean over batch and positions.

    Only `gen_probs` may carry gradient. The tape form of
    `ddlab.distill.generator_loss_head`.
    """
    tv_, av_ = np.asarray(teacher_logp), np.asarray(aux_logp)
    if value_of(gen_probs).shape != tv_.shape or tv_.shape != av_.shape:
        raise DistillError("shape mismatch in generator loss")
    per_pos = reduce_sum(mul(gen_probs, av_ - tv_), axis=-1)
    return _masked_mean(per_pos, weight, pos_mask)


def auxiliary_loss(target, teacher_probs: np.ndarray, aux_logp,
                   process: DiffusionProcess, weight=1.0,
                   pos_mask: np.ndarray | None = None):
    """CE(target | aux) + CE(teacher | aux); target is hard tokens or soft rows
    (masked processes only). The tape form of `ddlab.distill.auxiliary_loss_head`."""
    target_arr = np.asarray(value_of(target) if isinstance(target, Var) else target)
    soft = target_arr.dtype.kind == "f"
    if soft and not process.masked:
        raise DistillError("soft auxiliary targets are only valid for masked diffusion")
    if soft:
        ce_target = mul(reduce_sum(mul(aux_logp, target_arr), axis=-1), -1.0)
    else:
        ce_target = mul(take_along_last(aux_logp, target_arr.astype(np.int64)), -1.0)
    ce_teacher = mul(reduce_sum(mul(aux_logp, np.asarray(teacher_probs)), axis=-1), -1.0)
    return _masked_mean(add(ce_target, ce_teacher), weight, pos_mask)


def _soft_x(x, process: DiffusionProcess):
    """Soft rows over the data vocabulary, with a zero MASK column appended
    for masked processes; a Var stays on the tape."""
    width = value_of(x).shape[-1]
    if width == process.vocab_eff:
        return x
    if width != process.vocab:
        raise ProcessError(f"soft x has width {width}, expected {process.vocab}")
    if not isinstance(x, Var):
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    padded = np.concatenate([x.value, np.zeros(x.value.shape[:-1] + (1,))], axis=-1)
    return Var(padded, ((x, lambda g: g[..., :-1]),))


def posterior(x, z_t: np.ndarray, s, t, process: DiffusionProcess, denom_floor: float = 1e-30):
    """q(z_s | z_t, x) for soft rows x (Var or array) by the raw formula, with
    no carry-over: the tape form of `ddlab.process.Posterior` on soft x, equal
    to it wherever the formula is defined."""
    sched = process.schedule
    alpha_s = sched.alpha(s)
    alpha_t = sched.alpha(t)
    a_ts = np.where(alpha_s > 0, alpha_t / np.maximum(alpha_s, 1e-300), 1.0)
    if alpha_s.ndim == 1:
        alpha_t2, alpha_s3, a_ts3 = alpha_t[:, None], alpha_s[:, None, None], a_ts[:, None, None]
    else:
        alpha_t2, alpha_s3, a_ts3 = float(alpha_t), float(alpha_s), float(a_ts)
    z_t = np.asarray(z_t)
    pi = process.pi
    xs = _soft_x(x, process)
    bracket1 = a_ts3 * one_hot(z_t, process.vocab_eff) + (1.0 - a_ts3) * pi[z_t][..., None]
    bracket2 = add(mul(xs, alpha_s3), (1.0 - alpha_s3) * pi)
    denom = add(mul(take_along_last(xs, z_t), alpha_t2), (1.0 - alpha_t2) * pi[z_t])
    if np.any(value_of(denom) < denom_floor):
        raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")
    return div(mul(bracket1, bracket2), expand_dims(denom, -1))


def _posterior_logs(probs, z_s, s, ds, process):
    lo = np.maximum(0.0, np.asarray(s, dtype=np.float64) - ds)
    post = posterior(probs, z_s, lo, s, process)
    return post, log(post, floor=1e-30)


def generator_loss_posterior(gen_probs, teacher_probs: np.ndarray, aux_probs: np.ndarray,
                             z_s: np.ndarray, s, ds: float, process: DiffusionProcess,
                             weight=1.0, pos_mask: np.ndarray | None = None):
    """The generator phase of `ddlab.distill.posterior_kl_head` on the tape."""
    post_eta, _ = _posterior_logs(gen_probs, z_s, s, ds, process)
    _, log_phi = _posterior_logs(np.asarray(aux_probs), z_s, s, ds, process)
    _, log_theta = _posterior_logs(np.asarray(teacher_probs), z_s, s, ds, process)
    per_pos = reduce_sum(mul(post_eta, log_phi - log_theta), axis=-1)
    return _masked_mean(per_pos, weight, pos_mask)


def auxiliary_loss_posterior(gen_probs: np.ndarray, teacher_probs: np.ndarray, aux_probs,
                             z_s: np.ndarray, s, ds: float, process: DiffusionProcess,
                             weight=1.0, pos_mask: np.ndarray | None = None):
    """CE(post(gen) | post(aux)) + CE(post(teacher) | post(aux)): the auxiliary
    phase of `ddlab.distill.posterior_kl_head` on the tape."""
    _, log_phi = _posterior_logs(aux_probs, z_s, s, ds, process)
    post_eta, _ = _posterior_logs(np.asarray(gen_probs), z_s, s, ds, process)
    post_theta, _ = _posterior_logs(np.asarray(teacher_probs), z_s, s, ds, process)
    ce1 = mul(reduce_sum(mul(log_phi, np.asarray(post_eta)), axis=-1), -1.0)
    ce2 = mul(reduce_sum(mul(log_phi, np.asarray(post_theta)), axis=-1), -1.0)
    return _masked_mean(add(ce1, ce2), weight, pos_mask)
