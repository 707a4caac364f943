"""Alternating moment-matching distillation of a discrete diffusion teacher.

Even steps update the few-step generator, odd steps the auxiliary model that
tracks the generator's conditional expectation. Teacher logits pass through
optional temperature scaling and a finite-shift nucleus cutoff before use.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, adam_step, backward
from .data import SyntheticDataset
from .nets import Denoiser, Generator, init_from_teacher
from .numerics import RngState, categorical_sample, log_softmax, one_hot, softmax
from .process import DiffusionProcess, diffuse, posterior, posterior_sample
from .teacher import cross_entropy_head, loss_weight


class DistillError(ValueError):
    pass


class DistillDivergence(RuntimeError):
    def __init__(self, step: int, tau: float, top_p: float, max_logit: float, loss: float):
        self.step, self.tau, self.top_p, self.max_logit, self.loss = step, tau, top_p, max_logit, loss
        super().__init__(
            f"distillation diverged at step {step}: loss={loss:.6g}, "
            f"tau={tau}, top_p={top_p}, max|logit|={max_logit:.6g}")


@dataclass
class DistillConfig:
    k: int = 1
    tau: float = 1.0
    top_p: float = 1.0
    delta: float = 2.0
    soft_targets: bool = False  # masked processes only
    loss_variant: str = "cross_entropy"  # cross_entropy | posterior_kl
    weighting: str = "unit"
    steps: int = 8000
    batch: int = 64
    gen_lr: float = 1e-3
    aux_lr: float = 2e-3
    ds: float = 1.0 / 64.0  # discretization gap of the posterior_kl variant
    aux_per_gen: int = 1  # auxiliary updates per generator update
    naive_topp_mask: bool = False  # negative-control fixture: -1e20 masking
    eval_every: int = 1000
    noise_marginal_draws: int = 64

    def __post_init__(self):
        if self.k < 1:
            raise DistillError("k must be >= 1")
        if not (0.0 < self.tau <= 1.0) or not (0.0 < self.top_p <= 1.0):
            raise DistillError("tau and top_p must lie in (0, 1]")
        if self.delta < 0:
            raise DistillError("delta must be >= 0")
        if self.loss_variant not in ("cross_entropy", "posterior_kl"):
            raise DistillError(f"unknown loss variant {self.loss_variant!r}")
        if self.aux_per_gen < 1:
            raise DistillError("aux_per_gen must be >= 1")


def sample_times(rng: RngState, k: int, size=None):
    """s ~ U(0,1), t = min(1, s + U(0, 1/k)); always 0 <= s <= t <= 1, t-s <= 1/k.

    With `size` set, draws one (s, t) pair per example (lower gradient
    variance at small batch sizes than a shared scalar pair).
    """
    s = rng.uniform(size=size)
    dt = rng.uniform(size=size, low=0.0, high=1.0 / k)
    t = np.minimum(1.0, s + dt)
    if size is None:
        return float(s), float(t)
    return s, t


def teacher_logits(teacher: Denoiser, z_s: np.ndarray, s: float, tau: float = 1.0,
                   top_p: float = 1.0, delta: float = 2.0, naive: bool = False) -> np.ndarray:
    """Teacher log-probabilities after temperature scaling and nucleus shift.

    Temperature first: logits = log-probs / tau. The nucleus is the minimal
    prefix of the tau-scaled distribution (probability descending, index
    ascending on ties) with cumulative mass >= top_p; out-of-nucleus logits
    are lowered by the finite constant delta, never set to a sentinel.
    """
    logp = log_softmax(teacher.forward(z_s, s))
    scaled = logp / tau
    if top_p >= 1.0:
        return scaled
    probs = softmax(scaled)
    order = np.argsort(-probs, axis=-1, kind="stable")
    sorted_p = np.take_along_axis(probs, order, axis=-1)
    cum = np.cumsum(sorted_p, axis=-1)
    keep_sorted = np.zeros_like(probs, dtype=bool)
    keep_sorted[..., 0] = True
    keep_sorted[..., 1:] = cum[..., :-1] < top_p
    keep = np.zeros_like(keep_sorted)
    np.put_along_axis(keep, order, keep_sorted, axis=-1)
    shift = -1e20 if naive else -delta
    return np.where(keep, scaled, scaled + shift)


def _position_mask(z_s: np.ndarray, process: DiffusionProcess) -> np.ndarray:
    """Positions that carry matching signal: masked slots for masked processes.

    At positions already revealed in z_s the teacher was never trained, so
    its output there is noise; both distillation losses skip them.
    """
    if process.masked:
        return (z_s == process.mask_id).astype(np.float64)
    return np.ones(z_s.shape, dtype=np.float64)


def _masked_mean(per_pos, weight: float, pos_mask: np.ndarray):
    denom = max(pos_mask.sum(), 1.0)
    return ad.div(ad.reduce_sum(ad.mul(per_pos, weight * pos_mask)), denom)


def generator_loss(gen_probs, teacher_logp: np.ndarray, aux_logp: np.ndarray,
                   weight: float = 1.0, pos_mask: np.ndarray | None = None):
    """-sum_c xhat_c (log teacher - log aux)_c, mean over batch and positions.

    Only `gen_probs` may carry gradient; the log-probability arguments are
    plain arrays (already stop-gradient by construction). The tape form of
    `generator_loss_head`, which training runs.
    """
    tv_, av_ = np.asarray(teacher_logp), np.asarray(aux_logp)
    if ad.value_of(gen_probs).shape != tv_.shape or tv_.shape != av_.shape:
        raise DistillError("shape mismatch in generator loss")
    if pos_mask is None:
        pos_mask = np.ones(tv_.shape[:-1])
    per_pos = ad.reduce_sum(ad.mul(gen_probs, av_ - tv_), axis=-1)
    return _masked_mean(per_pos, weight, pos_mask)


def auxiliary_loss(target, teacher_probs: np.ndarray, aux_logp,
                   process: DiffusionProcess, weight: float = 1.0,
                   pos_mask: np.ndarray | None = None):
    """CE(target | aux) + CE(teacher | aux); target is hard tokens or soft rows.

    Soft targets are only valid for masked diffusion: a masked z_s slot gives
    no information about x, so the generator's soft vector is as valid a
    target as the hard sample. For uniform diffusion z_s is correlated with
    the hard x that produced it, so only hard targets are unbiased. The tape
    form of `auxiliary_loss_head`, which training runs.
    """
    target_arr = np.asarray(ad.value_of(target) if isinstance(target, ad.Var) else target)
    soft = target_arr.dtype.kind == "f"
    if soft and not process.masked:
        raise DistillError("soft auxiliary targets are only valid for masked diffusion")
    if pos_mask is None:
        pos_mask = np.ones(np.asarray(teacher_probs).shape[:-1])
    if soft:
        ce_target = ad.mul(ad.reduce_sum(ad.mul(aux_logp, target_arr), axis=-1), -1.0)
    else:
        ce_target = ad.mul(ad.take_along_last(aux_logp, target_arr.astype(np.int64)), -1.0)
    ce_teacher = ad.mul(ad.reduce_sum(ad.mul(aux_logp, np.asarray(teacher_probs)), axis=-1), -1.0)
    return _masked_mean(ad.add(ce_target, ce_teacher), weight, pos_mask)


def _head_weights(weight, pos_mask: np.ndarray) -> np.ndarray:
    """Per-row factors of `_masked_mean`: weight * pos_mask / denom."""
    return weight * pos_mask / max(pos_mask.sum(), 1.0)


def generator_loss_head(gen_probs: np.ndarray, teacher_logp: np.ndarray,
                        aux_logp: np.ndarray, weight: np.ndarray):
    """`generator_loss` of gen_probs = softmax(logits), with d/d(logits) in closed form.

    `weight` holds one factor per row (`_head_weights`). Returns (loss, dlogits).
    """
    diff = aux_logp - teacher_logp
    per_pos = np.sum(gen_probs * diff, axis=-1)
    dlogits = (weight[..., None] * gen_probs) * (diff - per_pos[..., None])
    return float(np.sum(weight * per_pos)), dlogits


def auxiliary_loss_head(target, teacher_probs: np.ndarray, aux_logits: np.ndarray,
                        process: DiffusionProcess, weight: np.ndarray):
    """`auxiliary_loss` of log_softmax(aux_logits), with d/d(logits) in closed form.

    Both cross-entropies share the aux log-probabilities, so they are one
    cross-entropy against the sum of the two target rows.
    """
    target = np.asarray(target)
    if target.dtype.kind == "f":
        if not process.masked:
            raise DistillError("soft auxiliary targets are only valid for masked diffusion")
    else:
        target = one_hot(target, teacher_probs.shape[-1])
    return cross_entropy_head(aux_logits, target + teacher_probs, weight)


def _posterior_logs(probs, z_s, s, ds, process):
    lo = np.maximum(0.0, np.asarray(s, dtype=np.float64) - ds)
    post = posterior(probs, z_s, lo, s, process)
    return post, ad.log(post, floor=1e-30)


def generator_loss_posterior(gen_probs, teacher_probs: np.ndarray, aux_probs: np.ndarray,
                             z_s: np.ndarray, s: float, ds: float,
                             process: DiffusionProcess, weight: float = 1.0,
                             pos_mask: np.ndarray | None = None):
    """Posterior-KL variant: losses on posterior-transformed vectors.

    All three soft outputs are pushed through the analytic posterior from s
    to s - ds at z_s before matching; the fixed point (aux = teacher) still
    gives an exactly zero loss.
    """
    if pos_mask is None:
        pos_mask = np.ones(z_s.shape, dtype=np.float64)
    post_eta, _ = _posterior_logs(gen_probs, z_s, s, ds, process)
    _, log_phi = _posterior_logs(np.asarray(aux_probs), z_s, s, ds, process)
    _, log_theta = _posterior_logs(np.asarray(teacher_probs), z_s, s, ds, process)
    per_pos = ad.reduce_sum(ad.mul(post_eta, log_phi - log_theta), axis=-1)
    return _masked_mean(per_pos, weight, pos_mask)


def auxiliary_loss_posterior(gen_probs: np.ndarray, teacher_probs: np.ndarray, aux_probs,
                             z_s: np.ndarray, s: float, ds: float,
                             process: DiffusionProcess, weight: float = 1.0,
                             pos_mask: np.ndarray | None = None):
    """CE(post(gen) | post(aux)) + CE(post(teacher) | post(aux))."""
    if pos_mask is None:
        pos_mask = np.ones(z_s.shape, dtype=np.float64)
    _, log_phi = _posterior_logs(aux_probs, z_s, s, ds, process)
    post_eta, _ = _posterior_logs(np.asarray(gen_probs), z_s, s, ds, process)
    post_theta, _ = _posterior_logs(np.asarray(teacher_probs), z_s, s, ds, process)
    ce1 = ad.mul(ad.reduce_sum(ad.mul(log_phi, np.asarray(post_eta)), axis=-1), -1.0)
    ce2 = ad.mul(ad.reduce_sum(ad.mul(log_phi, np.asarray(post_theta)), axis=-1), -1.0)
    return _masked_mean(ad.add(ce1, ce2), weight, pos_mask)


def student_sample(generator: Generator, process: DiffusionProcess, k: int,
                   rng: RngState, batch: int) -> np.ndarray:
    """k-step ancestral sampling with fresh input noise at every step."""
    if k < 1:
        raise DistillError("k must be >= 1")
    D = generator.config.seq_len
    if process.masked:
        z = np.full((batch, D), process.mask_id, dtype=np.int64)
    else:
        z = rng.integers(0, process.vocab, size=(batch, D))
    for i in range(k, 0, -1):
        t, s = i / k, (i - 1) / k
        noise = rng.normal((batch, generator.config.n_noise)) if generator.config.n_noise else None
        probs = generator.probs(z, t, noise=noise)
        x = categorical_sample(probs, rng)
        z = posterior_sample(x, z, s, t, process, rng)
    return z


class Distiller:
    """Owns the three models and the alternating optimization state."""

    def __init__(self, teacher: Denoiser, dataset: SyntheticDataset,
                 process: DiffusionProcess, config: DistillConfig,
                 rng: RngState, n_noise: int = 0,
                 generator: Generator | None = None, auxiliary: Denoiser | None = None):
        if config.soft_targets and not process.masked:
            raise DistillError("soft targets require a masked process")
        self.teacher = teacher
        self.dataset = dataset
        self.process = process
        self.config = config
        self.rng = rng
        if generator is None or auxiliary is None:
            generator, auxiliary = init_from_teacher(teacher, n_noise)
        self.generator = generator
        self.auxiliary = auxiliary
        self.gen_opt = AdamState.for_store(generator.store)
        self.aux_opt = AdamState.for_store(auxiliary.store)
        self.step_index = 0
        self.log_rows: list[dict] = []

    def _teacher_logp(self, z_s, s):
        cfg = self.config
        logits = teacher_logits(self.teacher, z_s, s, cfg.tau, cfg.top_p, cfg.delta,
                                naive=cfg.naive_topp_mask)
        return log_softmax(logits)

    def step(self) -> tuple[str, float]:
        """One alternating update; even indices train the generator, odd the auxiliary."""
        i = self.step_index
        cfg = self.config
        s, t = sample_times(self.rng, cfg.k, size=cfg.batch)
        x_data = self.dataset.sample(cfg.batch, self.rng)
        z_t = diffuse(x_data, t, self.process, self.rng)
        n_noise = self.generator.config.n_noise
        eps = self.rng.normal((cfg.batch, n_noise)) if n_noise else None
        w = loss_weight(s, self.process, cfg.weighting)[:, None]
        cache = {}

        if i % (1 + cfg.aux_per_gen) == 0:
            phase, model, opt, lr = "gen", self.generator, self.gen_opt, cfg.gen_lr
            logits = model.forward(z_t, t, noise=eps, params=model.store.arrays(), cache=cache)
            xhat = ad.softmax(logits)
            x = categorical_sample(xhat, self.rng)
            z_s = posterior_sample(x, z_t, s, t, self.process, self.rng)
            pos_mask = _position_mask(z_s, self.process)
            teacher_logp = self._teacher_logp(z_s, s)
            aux_logits = self.auxiliary.forward(z_s, s)
            if cfg.loss_variant == "cross_entropy":
                loss, dlogits = generator_loss_head(xhat, teacher_logp, log_softmax(aux_logits),
                                                    _head_weights(w, pos_mask))
            else:
                loss, dlogits = self._tape_head(logits, i, lambda probs: generator_loss_posterior(
                    probs, np.exp(teacher_logp), softmax(aux_logits),
                    z_s, s, cfg.ds, self.process, w, pos_mask))
        else:
            phase, model, opt, lr = "aux", self.auxiliary, self.aux_opt, cfg.aux_lr
            xhat = softmax(self.generator.forward(z_t, t, noise=eps))
            x = categorical_sample(xhat, self.rng)
            z_s = posterior_sample(x, z_t, s, t, self.process, self.rng)
            pos_mask = _position_mask(z_s, self.process)
            teacher_probs = np.exp(self._teacher_logp(z_s, s))
            logits = model.forward(z_s, s, params=model.store.arrays(), cache=cache)
            target = xhat if cfg.soft_targets else x
            if cfg.loss_variant == "cross_entropy":
                loss, dlogits = auxiliary_loss_head(target, teacher_probs, logits, self.process,
                                                    _head_weights(w, pos_mask))
            else:
                loss, dlogits = self._tape_head(logits, i, lambda probs: auxiliary_loss_posterior(
                    xhat, teacher_probs, probs, z_s, s, cfg.ds, self.process, w, pos_mask))

        self._check_loss(loss, i)
        model.backward(cache, dlogits)
        adam_step(model.store, opt, lr=lr)
        self.step_index += 1
        return phase, loss

    def _tape_head(self, logits, i, loss_of_probs):
        """A loss of softmax(logits) on the tape; returns (loss, d loss / d logits)."""
        leaf = ad.Var(logits)
        loss = loss_of_probs(ad.softmax(leaf))
        val = self._check_loss(float(ad.value_of(loss)), i)
        backward(loss)
        return val, leaf.grad

    def _check_loss(self, val: float, i: int) -> float:
        if not np.isfinite(val) or abs(val) > 1e15:
            cfg = self.config
            max_logit = _max_abs_teacher_logit(self)
            raise DistillDivergence(i, cfg.tau, cfg.top_p, max_logit, val)
        return val

    def run(self, steps: int, eval_fn=None) -> list[dict]:
        """Run `steps` alternating updates, recording a CSV-ready log."""
        cfg = self.config
        for _ in range(steps):
            phase, loss = self.step()
            i = self.step_index - 1
            if i % cfg.eval_every == 0 or i == steps - 1:
                from .metrics import generator_output_entropy

                ent = generator_output_entropy(self.generator, self.process, 64,
                                               self.rng.child(10_000 + i))
                row = {"step": i, "phase": phase, "loss": loss,
                       "gen_output_entropy": ent, "eval_kl": float("nan")}
                if eval_fn is not None:
                    row["eval_kl"] = eval_fn(self)
                self.log_rows.append(row)
        return self.log_rows

    def state(self) -> dict:
        return {
            "step_index": self.step_index,
            "gen_values": self.generator.store.values.copy(),
            "aux_values": self.auxiliary.store.values.copy(),
            "gen_m": self.gen_opt.m.copy(), "gen_v": self.gen_opt.v.copy(),
            "gen_step": self.gen_opt.step,
            "aux_m": self.aux_opt.m.copy(), "aux_v": self.aux_opt.v.copy(),
            "aux_step": self.aux_opt.step,
            "rng": self.rng.state(),
        }

    def load_state(self, state: dict) -> None:
        self.step_index = int(state["step_index"])
        self.generator.store.values[:] = state["gen_values"]
        self.auxiliary.store.values[:] = state["aux_values"]
        self.gen_opt.m[:] = state["gen_m"]
        self.gen_opt.v[:] = state["gen_v"]
        self.gen_opt.step = int(state["gen_step"])
        self.aux_opt.m[:] = state["aux_m"]
        self.aux_opt.v[:] = state["aux_v"]
        self.aux_opt.step = int(state["aux_step"])
        self.rng = RngState.from_state(state["rng"])

    def save_state(self, path) -> None:
        st = self.state()
        rng = st.pop("rng")
        np.savez(path, **st, rng_seed=rng["seed"], rng_path=np.asarray(rng["path"], dtype=np.int64),
                 rng_counter=rng["counter"])

    def load_state_file(self, path) -> None:
        with np.load(path) as z:
            state = {k: z[k] for k in ("step_index", "gen_values", "aux_values",
                                       "gen_m", "gen_v", "gen_step", "aux_m", "aux_v", "aux_step")}
            state["rng"] = {"seed": int(z["rng_seed"]), "path": z["rng_path"].tolist(),
                            "counter": int(z["rng_counter"])}
        self.load_state(state)


def _max_abs_teacher_logit(distiller: Distiller) -> float:
    cfg = distiller.config
    D = distiller.teacher.config.seq_len
    probe = (np.full((1, D), distiller.process.mask_id, dtype=np.int64)
             if distiller.process.masked else np.zeros((1, D), dtype=np.int64))
    logits = teacher_logits(distiller.teacher, probe, 0.5, cfg.tau, cfg.top_p,
                            cfg.delta, naive=cfg.naive_topp_mask)
    return float(np.max(np.abs(logits)))


def write_distill_log(path, rows) -> None:
    fields = ["step", "phase", "loss", "gen_output_entropy", "eval_kl"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.10g}" if isinstance(v, float) else v)
                             for k, v in row.items()})
