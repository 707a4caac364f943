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


# a posterior denominator below this means the forward process could not
# have produced z_t from x: the (x, z_t) pair is inconsistent
DENOM_FLOOR = 1e-30


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


def _soft_x(x, process: DiffusionProcess) -> np.ndarray:
    """Lift x to a distribution over the effective vocabulary.

    Hard tokens become one-hot rows; soft rows over the data vocabulary get a
    zero MASK column appended for masked processes.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        return one_hot(x, process.vocab_eff)
    width = x.shape[-1]
    if width == process.vocab_eff:
        return x
    if width != process.vocab:
        raise ProcessError(f"soft x has width {width}, expected {process.vocab}")
    return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)


class Posterior:
    """q(z_s | z_t, x) at one (z_t, s, t), as a map of x.

    Per position, q_c = bracket1_c (alpha_s x_c + (1 - alpha_s) pi_c) / denom
    with denom = alpha_t x_{z_t} + (1 - alpha_t) pi_{z_t}: linear in x above
    and below, so its Jacobian has a closed form (`vjp`). The x-free parts
    are built once here and shared by every x the map is applied to.

    `x` may be hard tokens, or soft rows over the data vocabulary (the
    x-parameterized reverse step). A position a masked z_t has already
    revealed stays put whatever x says (carry-over): its row is the one-hot
    of z_t and its gradient is zero, where the raw formula is 0/0 for an x
    that puts no mass on the revealed token. `s` and `t` may be scalars or
    per-example arrays of shape (batch,).
    """

    def __init__(self, z_t: np.ndarray, s, t, process: DiffusionProcess):
        s = _check_time(s)
        t = _check_time(t)
        if np.any(s > t):
            raise ProcessError(f"posterior needs s <= t, got s={s} t={t}")
        self.process = process
        self.z_t = z_t = np.asarray(z_t)
        sched = process.schedule
        alpha_s = sched.alpha(s)
        alpha_t = sched.alpha(t)
        a_ts = np.where(alpha_s > 0, alpha_t / np.maximum(alpha_s, 1e-300), 1.0)
        if alpha_s.ndim == 1:
            # per-example times: align with (B, D) and (B, D, K_eff) operands
            self.alpha_t2 = alpha_t[:, None]
            self.alpha_s3, a_ts3 = alpha_s[:, None, None], a_ts[:, None, None]
        else:
            self.alpha_t2 = float(alpha_t)
            self.alpha_s3, a_ts3 = float(alpha_s), float(a_ts)
        self.pi = process.pi
        self.pi_zt = self.pi[z_t]  # pi^T z_t, shape (B, D)
        self.zt_onehot = one_hot(z_t, process.vocab_eff)
        self.bracket1 = a_ts3 * self.zt_onehot + (1.0 - a_ts3) * self.pi_zt[..., None]
        self.carry = z_t != process.mask_id if process.masked else None

    def _denom(self, xs: np.ndarray) -> np.ndarray:
        """The per-position denominator, 1 on carried positions; raises on underflow."""
        x_at_zt = np.take_along_axis(xs, self.z_t[..., None], axis=-1)[..., 0]
        denom = x_at_zt * self.alpha_t2 + (1.0 - self.alpha_t2) * self.pi_zt
        live = denom if self.carry is None else denom[~self.carry]
        if np.any(live < DENOM_FLOOR):
            raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")
        return denom if self.carry is None else np.where(self.carry, 1.0, denom)

    def __call__(self, x) -> np.ndarray:
        xs = _soft_x(x, self.process)  # (B, D, K_eff)
        bracket2 = xs * self.alpha_s3 + (1.0 - self.alpha_s3) * self.pi
        out = self.bracket1 * bracket2 / self._denom(xs)[..., None]
        if self.carry is not None:
            out[self.carry] = self.zt_onehot[self.carry]
        return out

    def vjp(self, x: np.ndarray, q: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """d sum(grad * q) / dx for soft rows x and q = self(x), shape of x.

        dq_c/dx_j = (alpha_s bracket1_j [c = j] - alpha_t q_c [j = z_t]) / denom.
        """
        xs = _soft_x(x, self.process)
        denom = self._denom(xs)[..., None]
        gx = self.alpha_s3 * self.bracket1 * grad / denom
        gx -= self.zt_onehot * (self.alpha_t2 * np.sum(grad * q, axis=-1))[..., None] / denom
        if self.carry is not None:
            gx[self.carry] = 0.0
        return gx[..., :np.shape(x)[-1]]


def posterior(x, z_t: np.ndarray, s, t, process: DiffusionProcess) -> np.ndarray:
    """q(z_s | z_t, x) per position, for hard tokens or soft rows x (see `Posterior`)."""
    return Posterior(z_t, s, t, process)(x)


def posterior_sample(x, z_t, s, t, process: DiffusionProcess, rng: RngState) -> np.ndarray:
    """Sample hard tokens z_s ~ q(z_s | z_t, x)."""
    from .numerics import categorical_sample

    return categorical_sample(posterior(x, z_t, s, t, process), rng)


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
