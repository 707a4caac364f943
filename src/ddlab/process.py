"""Forward noising (masked / uniform), the analytic reverse posterior, and
ancestral sampling.

Conventions: tokens are int arrays of shape (batch, D). For masked processes
the effective vocabulary is K+1 with MASK id = K; clean data never contains
MASK. Probability vectors over the effective vocabulary have shape
(batch, D, K_eff).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .numerics import RngState, one_hot


class ProcessError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """alpha(t): fraction of signal kept at time t; alpha(0)=1, alpha(1)=0."""

    kind: str = "linear"  # linear | cosine

    def __post_init__(self):
        if self.kind not in ("linear", "cosine"):
            raise ProcessError(f"unknown schedule kind {self.kind!r}")

    def alpha(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "linear":
            return 1.0 - t
        return np.cos(0.5 * np.pi * t) ** 2

    def alpha_prime(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "linear":
            return -np.ones_like(t)
        return -0.5 * np.pi * np.sin(np.pi * t)


@dataclass(frozen=True)
class DiffusionProcess:
    kind: str  # masked | uniform
    vocab: int  # data vocabulary size K
    schedule: NoiseSchedule = NoiseSchedule("linear")

    def __post_init__(self):
        if self.kind not in ("masked", "uniform"):
            raise ProcessError(f"unknown process kind {self.kind!r}")

    @property
    def masked(self) -> bool:
        return self.kind == "masked"

    @property
    def mask_id(self) -> int:
        if not self.masked:
            raise ProcessError("uniform process has no MASK token")
        return self.vocab

    @property
    def vocab_eff(self) -> int:
        return self.vocab + 1 if self.masked else self.vocab

    @property
    def pi(self) -> np.ndarray:
        """Stationary distribution over the effective vocabulary."""
        if self.masked:
            p = np.zeros(self.vocab + 1)
            p[self.vocab] = 1.0
            return p
        return np.full(self.vocab, 1.0 / self.vocab)

    def validate_data(self, x: np.ndarray) -> None:
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.vocab):
            raise ProcessError("data tokens out of range (MASK is input-only)")


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ProcessError(f"time outside [0,1]: {t}")
    return t


def diffuse(x: np.ndarray, t, process: DiffusionProcess, rng: RngState) -> np.ndarray:
    """z_t ~ Cat(alpha_t x + (1 - alpha_t) pi), elementwise.

    `t` may be a scalar or a per-example array of shape (batch,).
    """
    x = np.asarray(x)
    process.validate_data(x)
    t = _check_time(t)
    alpha = process.schedule.alpha(t)
    if alpha.ndim == 1:
        alpha = alpha[:, None]
    keep = rng.uniform(size=x.shape) < alpha
    if process.masked:
        noise = np.full_like(x, process.mask_id)
    else:
        noise = rng.integers(0, process.vocab, size=x.shape)
    return np.where(keep, x, noise)


def _soft_x(x, process: DiffusionProcess):
    """Lift x to a distribution over the effective vocabulary.

    Hard tokens become one-hot rows; soft rows over the data vocabulary get a
    zero MASK column appended for masked processes. Returns Var-compatible
    output when x is a Var.
    """
    if isinstance(x, ad.Var) or np.asarray(x).dtype.kind == "f":
        width = ad.value_of(x).shape[-1]
        if width == process.vocab_eff:
            return x
        if width != process.vocab:
            raise ProcessError(f"soft x has width {width}, expected {process.vocab}")
        if not process.masked:
            return x
        if isinstance(x, ad.Var):
            pad_shape = x.value.shape[:-1] + (1,)
            padded = np.concatenate([x.value, np.zeros(pad_shape)], axis=-1)
            out = ad.Var(padded, ((x, lambda g: g[..., :-1]),))
            return out
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    return one_hot(np.asarray(x), process.vocab_eff)


def posterior(x, z_t: np.ndarray, s, t, process: DiffusionProcess, denom_floor: float = 1e-30):
    """q(z_s | z_t, x) per position.

    `x` may be hard tokens, or soft rows over the data vocabulary (the
    x-parameterized reverse step); soft rows are plugged into the analytic
    posterior directly. Differentiable in soft x (Var input -> Var output).
    `s` and `t` may be scalars or per-example arrays of shape (batch,).
    """
    s = _check_time(s)
    t = _check_time(t)
    if np.any(s > t):
        raise ProcessError(f"posterior needs s <= t, got s={s} t={t}")
    z_t = np.asarray(z_t)
    sched = process.schedule
    alpha_s = sched.alpha(s)
    alpha_t = sched.alpha(t)
    a_ts = np.where(alpha_s > 0, alpha_t / np.maximum(alpha_s, 1e-300), 1.0)
    if alpha_s.ndim == 1:
        # per-example times: align with (B, D) and (B, D, K_eff) operands
        alpha_s2, alpha_t2 = alpha_s[:, None], alpha_t[:, None]
        alpha_s3, alpha_t3, a_ts3 = alpha_s[:, None, None], alpha_t[:, None, None], a_ts[:, None, None]
    else:
        alpha_s2 = alpha_s3 = float(alpha_s)
        alpha_t2 = alpha_t3 = float(alpha_t)
        a_ts3 = float(a_ts)

    pi = process.pi
    xs = _soft_x(x, process)  # (B, D, K_eff), possibly a Var
    zt_onehot = one_hot(z_t, process.vocab_eff)
    pi_zt = pi[z_t][..., None]  # pi^T z_t, shape (B, D, 1)

    bracket1 = a_ts3 * zt_onehot + (1.0 - a_ts3) * pi_zt  # constant wrt x
    bracket2 = ad.add(ad.mul(xs, alpha_s3), (1.0 - alpha_s3) * pi)
    x_at_zt = ad.take_along_last(xs, z_t)  # (B, D)
    denom = ad.add(ad.mul(x_at_zt, alpha_t2), (1.0 - alpha_t2) * pi[z_t])

    if process.masked and not isinstance(x, ad.Var) and np.asarray(x).dtype.kind != "f":
        # carry-over: an already-revealed position stays put regardless of x;
        # the raw formula is 0/0 there when a hard x disagrees with z_t
        unmasked = z_t != process.mask_id
        dv = ad.value_of(denom)
        if np.any(dv[~unmasked] < denom_floor):
            raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")
        safe = np.where(unmasked, 1.0, dv)
        out = ad.value_of(ad.mul(bracket1, bracket2)) / safe[..., None]
        out[unmasked] = zt_onehot[unmasked]
        return out

    dv = ad.value_of(denom)
    if np.any(dv < denom_floor):
        raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")
    return ad.div(ad.mul(bracket1, bracket2), ad.expand_dims(denom, -1))


def posterior_sample(x, z_t, s, t, process: DiffusionProcess, rng: RngState) -> np.ndarray:
    """Sample z_s ~ q(z_s | z_t, x). Always a hard (stop-gradient) sample."""
    probs = ad.stop_gradient(posterior(x, z_t, s, t, process))
    from .numerics import categorical_sample

    return categorical_sample(probs, rng)


def ancestral_sample(model_probs_fn, process: DiffusionProcess, steps: int,
                     rng: RngState, batch: int, seq_len: int) -> np.ndarray:
    """Reverse-sample `batch` sequences with a uniform time grid of `steps` steps.

    `model_probs_fn(z, t)` returns per-position probabilities over the data
    vocabulary, shape (batch, D, K); logit surgery, if any, is the caller's
    to bake into that function.
    """
    if steps < 1:
        raise ProcessError("steps must be >= 1")
    D = seq_len
    if process.masked:
        z = np.full((batch, D), process.mask_id, dtype=np.int64)
    else:
        z = rng.integers(0, process.vocab, size=(batch, D))
    for i in range(steps, 0, -1):
        t = i / steps
        s = (i - 1) / steps
        probs = model_probs_fn(z, t)
        from .numerics import categorical_sample

        x = categorical_sample(probs, rng)
        z = posterior_sample(x, z, s, t, process, rng)
    return z
