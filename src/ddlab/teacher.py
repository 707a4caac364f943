"""Weighted cross-entropy training of the denoiser."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, adam_step
from .data import SyntheticDataset
from .nets import Denoiser, ModelConfig
from .numerics import NumericsError, RngState, log_softmax, one_hot
from .process import DiffusionProcess, diffuse


@dataclass
class TeacherTrainConfig:
    steps: int = 3000
    batch: int = 64
    lr: float = 3e-3
    weighting: str = "unit"  # unit | mdlm (alpha'/(1-alpha))
    eval_every: int = 500
    eval_steps: int = 16  # chain length used for the periodic exact-KL probe

    def __post_init__(self):
        if self.weighting not in ("unit", "mdlm"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if min(self.batch, self.eval_every, self.eval_steps) < 1:
            raise ValueError("batch, eval_every and eval_steps must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0.0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")


def loss_weight(t: np.ndarray, process: DiffusionProcess, weighting: str) -> np.ndarray:
    if weighting == "unit":
        return np.ones_like(t)
    if weighting == "mdlm":
        alpha = process.schedule.alpha(t)
        return -process.schedule.alpha_prime(t) / np.maximum(1.0 - alpha, 1e-6)
    raise ValueError(f"unknown weighting {weighting!r}")


def position_mask(z: np.ndarray, process: DiffusionProcess) -> np.ndarray:
    """Positions of a noised z that carry signal: the MASK slots of a masked
    process (revealed positions carry none under absorbing noise), every
    position of a uniform one."""
    if process.masked:
        return (z == process.mask_id).astype(np.float64)
    return np.ones(z.shape, dtype=np.float64)


def _noised_batch(batch: np.ndarray, process: DiffusionProcess, rng: RngState,
                  weighting: str):
    """Draws per-example t ~ U(0,1) and z_t; returns (t, z_t, w(t) * positions, denom)."""
    t = rng.uniform(size=batch.shape[0])
    z_t = diffuse(batch, t, process, rng)
    w = loss_weight(t, process, weighting)[:, None]
    pos = position_mask(z_t, process)
    return t, z_t, w * pos, max(pos.sum(), 1.0)


def cross_entropy_head(logits: np.ndarray, target: np.ndarray, weight: np.ndarray):
    """sum(weight * CE(target | softmax(logits))) and its gradient wrt the logits.

    `target` holds rows over the classes (one-hot, soft, or a sum of such
    rows) and `weight` one factor per row; d/d(logits) is, in closed form,
    weight * (softmax * sum(target) - target).
    """
    logp = log_softmax(logits)
    loss = -float(np.sum(weight * np.sum(target * logp, axis=-1)))
    dlogits = weight[..., None] * (np.exp(logp) * np.sum(target, axis=-1, keepdims=True) - target)
    return loss, dlogits


def teacher_step(model: Denoiser, batch: np.ndarray, process: DiffusionProcess,
                 rng: RngState, weighting: str = "unit") -> float:
    """The teacher loss on the fused net: writes its gradient into
    `model.store.grads` and returns its value."""
    batch = np.asarray(batch)
    t, z_t, wpos, denom = _noised_batch(batch, process, rng, weighting)
    cache = {}
    logits = model.forward(z_t, t, params=model.store.arrays(), cache=cache)
    loss, dlogits = cross_entropy_head(logits, one_hot(batch, model.config.vocab), wpos / denom)
    model.backward(cache, dlogits)
    return loss


def train_teacher(dataset: SyntheticDataset, process: DiffusionProcess,
                  model_config: ModelConfig, train_config: TeacherTrainConfig,
                  rng: RngState, record_wallclock: bool = True, last_probe=None):
    """Returns (trained Denoiser, log rows). Log: step, loss, eval_kl, wallclock_ms.

    `last_probe(model)`, if given, returns the last step's eval_kl in place
    of `_eval_kl`: the caller's own pass over the trained model's chains."""
    init_rng, step_rng = rng.child(0), rng.child(1)
    model = Denoiser(model_config, init_rng)
    opt = AdamState.for_store(model.store)
    rows = []
    t0 = time.monotonic()
    for step in range(train_config.steps):
        x = dataset.sample(train_config.batch, step_rng)
        loss_val = teacher_step(model, x, process, step_rng, train_config.weighting)
        if not np.isfinite(loss_val):
            raise NumericsError(f"teacher loss diverged at step {step}")
        adam_step(model.store, opt, lr=train_config.lr)
        if step % train_config.eval_every == 0 or step == train_config.steps - 1:
            if step == train_config.steps - 1 and last_probe is not None:
                eval_kl = last_probe(model)
            else:
                eval_kl = _eval_kl(model, dataset, process, train_config.eval_steps)
            ms = (time.monotonic() - t0) * 1000.0 if record_wallclock else 0.0
            rows.append({"step": step, "loss": loss_val, "eval_kl": eval_kl,
                         "wallclock_ms": round(ms, 3)})
    return model, rows


def _eval_kl(model: Denoiser, dataset: SyntheticDataset, process: DiffusionProcess,
             steps: int) -> float:
    from .metrics import ExactDistribution, chain_enumerable, exact_chain_distribution, kl

    if not chain_enumerable(process, dataset.seq_len):
        return float("nan")
    q = ExactDistribution(dataset.vocab, dataset.seq_len, dataset.exact_q())
    p = exact_chain_distribution(model.probs, process, steps, dataset.seq_len)
    return kl(q, p)

