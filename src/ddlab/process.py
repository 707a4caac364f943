"""Forward noising (masked / uniform), the analytic reverse posterior, and
ancestral sampling.

Conventions: tokens are int arrays of shape (batch, D). For masked processes
the effective vocabulary is K+1 with MASK id = K; clean data never contains
MASK. Probability vectors over the effective vocabulary have shape
(batch, D, K_eff).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, RngState, inverse_cdf_sample, row_error


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


def diffuse(x: np.ndarray, t, process: DiffusionProcess, rng: RngState) -> np.ndarray:
    """z_t ~ Cat(alpha_t x + (1 - alpha_t) pi), elementwise.

    `t` may be a scalar or a per-example array of shape (batch,).
    """
    x = np.asarray(x)
    process.validate_data(x)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ProcessError(f"time outside [0,1]: {t}")
    alpha = process.schedule.alpha(t)
    if alpha.ndim == 1:
        alpha = alpha[:, None]
    keep = rng.uniform(size=x.shape) < alpha
    if process.masked:
        noise = np.full_like(x, process.mask_id)
    else:
        noise = rng.integers(0, process.vocab, size=x.shape)
    return np.where(keep, x, noise)


def _aligned(alpha: np.ndarray):
    # scalar times as Python floats (cheaper against small arrays), per-example
    # ones as (batch, 1, 1) arrays against the (z, c) axes
    return float(alpha) if alpha.ndim == 0 else alpha[:, None, None]


def likelihood(process: DiffusionProcess, t) -> np.ndarray:
    """lik[..., z, c] = q(z_t=z | x=c) = alpha_t [z = c] + (1 - alpha_t) pi_z; a
    per-example `t` of shape (batch,) adds a leading batch axis."""
    alpha_t = _aligned(process.schedule.alpha(t))
    eye = np.eye(process.vocab_eff)[:, :process.vocab]
    return alpha_t * eye + (1.0 - alpha_t) * process.pi[:, None]


def _factors(process: DiffusionProcess, s, t):
    """(from_z, to_x, lik): q(z_s=j | z_t=z, x=c) = from_z[z, j] to_x[c, j] / lik[z, c]
    before `posterior_table`'s carry-over. Times as for `posterior_table`."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    # one test for all three bounds: the exact DP reads factors at thousands of times
    if not ((0.0 <= s) & (s <= t) & (t <= 1.0)).all():
        raise ProcessError(f"posterior needs 0 <= s <= t <= 1, got s={s} t={t}")
    alpha_s, alpha_t = process.schedule.alpha(s), process.schedule.alpha(t)
    a_ts = _aligned(np.where(alpha_s > 0, alpha_t / np.maximum(alpha_s, 1e-300), 1.0))
    alpha_s = _aligned(alpha_s)
    eye, pi = np.eye(process.vocab_eff), process.pi
    from_z = a_ts * eye + (1.0 - a_ts) * pi[:, None]  # (z, j)
    to_x = alpha_s * eye[:process.vocab] + (1.0 - alpha_s) * pi  # (c, j)
    return from_z, to_x, likelihood(process, t)


def _floored(lik: np.ndarray) -> np.ndarray:
    """lik, with inf for the pairs the forward process cannot produce."""
    return np.where(lik > DENOM_FLOOR, lik, np.inf)


def posterior_table(process: DiffusionProcess, s, t) -> tuple[np.ndarray, np.ndarray]:
    """(table, lik): table[..., z, c, j] = q(z_s=j | z_t=z, x=c) and lik = `likelihood`.

    By Bayes, table = (a_ts [z = j] + (1 - a_ts) pi_z)(alpha_s [c = j] +
    (1 - alpha_s) pi_j) / lik with a_ts = alpha_t / alpha_s; pairs the forward
    process cannot produce (lik <= DENOM_FLOOR) get an all-zero row. A token a
    masked z_t has revealed stays put whatever x says (carry-over): its rows
    are one-hot. Per-example `s`, `t` of shape (batch,) add a leading axis.
    """
    from_z, to_x, lik = _factors(process, s, t)
    table = from_z[..., :, None, :] * to_x[..., None, :, :] / _floored(lik)[..., None]
    if process.masked:
        K = process.vocab
        table[..., :K, :, :] = np.eye(process.vocab_eff)[:K, None, :]
    return table, lik


def step_mixture(probs: np.ndarray, z_t: np.ndarray, s, t,
                 process: DiffusionProcess) -> np.ndarray:
    """The reverse step q(z_s | z_t) = sum_c probs[..., c] q(z_s | z_t, x = c)
    per position, for rows `probs` (..., D, K) of p(x | z_t): (..., D, K_eff).

    Masked: probs @ table[MASK], the MASK row of the posterior table; the row
    of a token z_t has revealed is the caller's to replace by that token
    (carry-over). Uniform: from the table's factors, from_z[z_t] ⊙ ((probs /
    lik[z_t]) @ to_x), so no temporary is wider than K_eff per position.
    Per-step `s`, `t` of shape (n,) index a leading step axis of probs,
    (n, ..., D, K), against whose other axes z_t broadcasts.
    """
    from_z, to_x, lik = _factors(process, s, t)
    if process.masked:
        mask = process.mask_id
        return _product(probs, from_z[..., mask, None, :] * to_x
                        / _floored(lik[..., mask, :, None]))

    def at(a):  # a's rows at z_t; per-step ones with unit axes up to z_t's
        if a.ndim == 2:
            return a[z_t]
        lead = (len(a),) + (1,) * (probs.ndim - z_t.ndim - 2)
        return a[:, z_t].reshape(lead + z_t.shape + a.shape[-1:])

    return _product(probs / at(_floored(lik)), to_x) * at(from_z)


def _product(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows (..., K) @ m (K, J) as one matrix product, or one per step for
    per-step m (n, K, J) and rows (n, ..., K): numpy's stacked matmul of many
    small matrices is several times slower."""
    flat = rows.reshape(m.shape[:-2] + (-1, rows.shape[-1]))
    return (flat @ m).reshape(rows.shape[:-1] + m.shape[-1:])


class Posterior:
    """q(z_s | z_t, x) at one (z_t, s, t) as a map of x, read from `posterior_table`.

    Hard tokens x read the row table[z_t, x]. Soft rows x over the data
    vocabulary read the Bayes mixture sum_c w_c table[z_t, c] / sum_c w_c with
    w = x lik[z_t]: on the simplex, the posterior with x for the one-hot. It
    is linear in x above and below, so `vjp` is closed-form. Positions a
    masked z_t has revealed carry over for soft x too: a one-hot row and a
    zero gradient where the mixture is 0/0. Times as for `posterior_table`.
    """

    def __init__(self, z_t: np.ndarray, s, t, process: DiffusionProcess):
        self.process = process
        self.z_t = z_t = np.asarray(z_t)
        self.table, self.lik = posterior_table(process, s, t)
        # where z_t's rows sit: per-example tables have a leading batch axis
        self._at = (z_t,) if self.table.ndim == 3 else (np.arange(len(z_t))[:, None], z_t)
        self.carry = z_t != process.mask_id if process.masked else None

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """table[z_t] (B, D, K, K_eff) and lik[z_t] (B, D, K), gathered once for every soft x."""
        return self.table[self._at], self.lik[self._at]

    def _checked(self, denom: np.ndarray) -> np.ndarray:
        """The per-position denominator, 1 on carried positions; raises on underflow."""
        if self.carry is not None:
            denom = np.where(self.carry, 1.0, denom)
        if (denom < DENOM_FLOOR).any():
            raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")
        return denom

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype.kind != "f":
            self._checked(self.lik[self._at + (x,)])
            return self.table[self._at + (x,)]
        if x.shape[-1] != self.process.vocab:
            raise ProcessError(f"soft x has width {x.shape[-1]}, expected {self.process.vocab}")
        table, lik = self._rows
        w = x * lik
        out = np.einsum("...c,...cj->...j", w, table) / self._checked(w.sum(axis=-1))[..., None]
        if self.carry is not None:
            out[self.carry] = table[self.carry, 0]  # every row of a revealed token
        return out

    def vjp(self, x: np.ndarray, q: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """d sum(grad * q) / dx for soft rows x and q = self(x):
        dq_j/dx_c = lik[z_t, c] (table[z_t, c, j] - q_j) / sum_c x_c lik[z_t, c]."""
        table, lik = self._rows
        denom = self._checked(np.sum(x * lik, axis=-1))
        gx = np.einsum("...cj,...j->...c", table, grad) - np.sum(grad * q, axis=-1)[..., None]
        gx *= lik / denom[..., None]
        if self.carry is not None:
            gx[self.carry] = 0.0
        return gx


def posterior(x, z_t: np.ndarray, s, t, process: DiffusionProcess) -> np.ndarray:
    """q(z_s | z_t, x) per position, for hard tokens or soft rows x (see `Posterior`)."""
    return Posterior(z_t, s, t, process)(x)


def posterior_sample(x, z_t, s, t, process: DiffusionProcess, rng: RngState) -> np.ndarray:
    """Sample hard tokens z_s ~ q(z_s | z_t, x): the distiller's step, whose x
    is a training target (`ancestral_sample` draws from `step_mixture`)."""
    from .numerics import categorical_sample

    return categorical_sample(posterior(x, z_t, s, t, process), rng)


def ancestral_sample(model_probs_fn, process: DiffusionProcess, steps: int,
                     rng: RngState, batch: int, seq_len: int) -> np.ndarray:
    """Reverse-sample `batch` sequences with a uniform time grid of `steps` steps.

    `model_probs_fn(z, t)` returns per-position probabilities over the data
    vocabulary, shape (batch, D, K); logit surgery, if any, is the caller's
    to bake into that function. Each step is one draw per position from the
    `step_mixture` q(z_s | z_t), the row the exact-chain DP propagates, so a
    chain of `steps` steps takes `steps` draws (one more for a uniform start),
    each by inverse CDF: one uniform per position.
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
        probs = np.asarray(model_probs_fn(z, t), dtype=np.float64)
        # the model's rows, checked here: a mixture of them can hide a negative
        # entry, and the mixture of checked rows and process tables needs no check
        error = row_error(probs)
        if error is not None:
            raise NumericsError(error)
        draw = inverse_cdf_sample(step_mixture(probs, z, s, t, process), rng)
        # a token a masked chain has revealed carries over
        z = np.where(z == process.mask_id, draw, z) if process.masked else draw
    return z
