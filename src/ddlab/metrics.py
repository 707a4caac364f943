"""Exact enumeration oracles and sample-based evaluation metrics."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ENUM_GUARD, all_sequences
from .numerics import RngState, entropy, log_softmax, one_hot
from .process import DiffusionProcess, likelihood, posterior_table


class MetricError(ValueError):
    pass


KNOWN_METRICS = ("exact_kl", "gm", "generative_perplexity", "sample_entropy",
                 "gen_output_entropy")
# fewest samples `sample_entropy` accepts
SAMPLE_ENTROPY_MIN = 1000


@dataclass
class EvalConfig:
    """The [eval] section: the metrics `eval` reports, the teacher's sampling
    steps, the sample count and the gradient-moment batches."""

    metrics: str = "exact_kl,sample_entropy"
    steps: int = 16
    n_samples: int = 20000
    gm_pairs: int = 200
    gm_batch: int = 64

    def __post_init__(self):
        if min(self.steps, self.n_samples, self.gm_pairs, self.gm_batch) < 1:
            raise MetricError("steps, n_samples, gm_pairs and gm_batch must be >= 1")
        for name in self.names:
            if name not in KNOWN_METRICS:
                raise MetricError(f"unknown metric {name!r}; known: {', '.join(KNOWN_METRICS)}")
        if "sample_entropy" in self.names and self.n_samples < SAMPLE_ENTROPY_MIN:
            raise MetricError(f"sample_entropy needs n_samples >= {SAMPLE_ENTROPY_MIN}, "
                              f"got {self.n_samples}")

    @property
    def names(self) -> list[str]:
        return [m.strip() for m in self.metrics.split(",") if m.strip()]


def chain_enumerable(process: DiffusionProcess, seq_len: int) -> bool:
    """Whether the exact chain DP admits this space: vocab_eff^seq_len noisy
    states, (vocab + 1)^seq_len for a masked process, at most ENUM_GUARD."""
    return process.vocab_eff ** seq_len <= ENUM_GUARD


@dataclass
class ExactDistribution:
    """Probability per sequence over all vocab^seq_len outcomes (seq_index order)."""

    vocab: int
    seq_len: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = self.vocab ** self.seq_len
        if self.probs.shape != (n,):
            raise MetricError(f"expected {n} entries, got {self.probs.shape}")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise MetricError(f"probabilities sum to {self.probs.sum():.12f}")


def kl(q: ExactDistribution, p: ExactDistribution, floor: float = 1e-12) -> float:
    """KL(q || p) with p floored at 1e-12 (distilled chains can hit exact zeros)."""
    if (q.vocab, q.seq_len) != (p.vocab, p.seq_len):
        raise MetricError("distributions live on different spaces")
    qp = q.probs
    pp = np.maximum(p.probs, floor)
    support = qp > 0
    return float(np.sum(qp[support] * (np.log(qp[support]) - np.log(pp[support]))))


# Largest block, in bytes, that the exact-chain DP and the oracle denoiser
# build at once: both work through their source rows in chunks that fit it.
# A few thousand states still take one block per step (the two half joints
# of 1,024 uniform states take 640 KiB per draw); only larger spaces pay for
# more chunks.
CHUNK_BYTES = 32 * 2 ** 20


def _joint_rows(per_pos: np.ndarray) -> np.ndarray:
    """Product over positions of per-position rows: (..., D, J) -> (..., J^D)."""
    joint = per_pos[..., 0, :]
    for d in range(1, per_pos.shape[-2]):
        joint = joint[..., :, None] * per_pos[..., d, None, :]
        joint = joint.reshape(*joint.shape[:-2], -1)
    return joint


class _ChainPlan(NamedTuple):
    """Successor structure of one state space, grouped by free positions.

    A position is free when the chain may still change it: every position of
    a uniform chain, the MASK positions of a masked one. The states with a
    free position are listed in `order`, grouped by their number m of free
    positions; group g holds `order[bounds[g]:bounds[g + 1]]`. For each of
    its states a group lists the m free positions (`cols`) and the keff^m
    successors (`succ`), one per assignment of tokens to the free positions
    in lexicographic order. The all-free group (`succ` None) moves to every
    state. `kept` is 1.0 on the fully revealed states, which never move, and
    0.0 elsewhere.
    """

    states: np.ndarray  # (keff^D, D), all_sequences order
    order: np.ndarray
    bounds: tuple
    groups: tuple       # per group: (cols (n, m), succ (n, keff^m) or None)
    kept: np.ndarray


@functools.lru_cache(maxsize=4)
def _chain_plan(keff: int, seq_len: int, mask_id: int | None) -> _ChainPlan:
    states = all_sequences(seq_len, keff)
    free = np.ones_like(states, dtype=bool) if mask_id is None else states == mask_id
    n_free = free.sum(axis=1)
    order = np.argsort(n_free, kind="stable")
    order = order[n_free[order] > 0]
    sizes, starts = np.unique(n_free[order], return_index=True)
    bounds = (*starts.tolist(), len(order))
    place = keff ** np.arange(seq_len - 1, -1, -1)
    groups = []
    for m, lo, hi in zip(sizes.tolist(), bounds, bounds[1:]):
        rows = order[lo:hi]
        cols = np.nonzero(free[rows])[1].reshape(len(rows), m)
        succ = None
        if m < seq_len:
            # zero the free (MASK) digits, then add every token on each of them
            succ = (rows - mask_id * place[cols].sum(axis=1))[:, None]
            for d in range(m):
                succ = succ[:, :, None] + place[cols[:, d], None, None] * np.arange(keff)
                succ = succ.reshape(len(rows), -1)
        groups.append((cols, succ))
    for arr in (states, order, *(a for g in groups for a in g if a is not None)):
        arr.flags.writeable = False
    return _ChainPlan(states, order, bounds, tuple(groups), (n_free == 0).astype(np.float64))


def _spread(out: np.ndarray, mass: np.ndarray, rows: np.ndarray,
            succ: np.ndarray | None) -> None:
    """Add one group's outgoing mass to `out`, in row chunks of CHUNK_BYTES.

    rows (draws, N, m, keff) holds one predict call's per-draw rows over each
    source row's m free positions, and mass (N,) the source rows' mass times
    that call's share of the draws; the joint over the m positions is
    averaged over the call's draws after the product. Row n's share lands on
    succ[n], or on every state when `succ` is None.

    The all-free group adds sum_{r,n} mass[n] / draws * prod_d rows[r, n, d]
    to every state, in the lexicographic order of its m = D positions, which
    is one matrix product A.T @ B: A is the weighted joint over the first
    h = ceil(m/2) positions and B the joint over the other m - h (a column of
    ones when m = 1), one row per (draw, source row). The keff^m joint of a
    row is never built.
    """
    draws, n_rows, m, keff = rows.shape
    if succ is None:
        h = (m + 1) // 2
        step = max(1, CHUNK_BYTES // (8 * draws * (keff ** h + keff ** (m - h))))
        for lo in range(0, n_rows, step):
            chunk = rows[:, lo:lo + step]
            a = _joint_rows(chunk[:, :, :h]) * (mass[lo:lo + step, None] / draws)
            b = _joint_rows(chunk[:, :, h:]) if m > h else np.ones(chunk.shape[:2] + (1,))
            out += (a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])).ravel()
        return
    step = max(1, CHUNK_BYTES // (8 * keff ** m * (draws + 1)))
    for lo in range(0, n_rows, step):
        hi = lo + step
        joint = _joint_rows(rows[:, lo:hi])
        joint = joint[0] if draws == 1 else joint.mean(axis=0)
        # rows of one group can share successors, so the scatter must add repeats
        out += np.bincount(succ[lo:hi].ravel(), (mass[lo:hi, None] * joint).ravel(),
                           minlength=len(out))


def exact_chain_distribution(predict, process: DiffusionProcess, k: int, seq_len: int,
                             noise_draws: np.ndarray | None = None) -> ExactDistribution:
    """Exact distribution of the k-step ancestral sampler, by dynamic programming.

    `predict(z_states, t)` (or `predict(z_states, t, eps)` when `noise_draws`
    is given) returns per-position probabilities over the data vocabulary for
    a batch of states. Noise-conditioned generators are marginalized over the
    fixed `noise_draws` rows: each chain step stacks the draws over the live
    states into one `predict` call (split by whole draws into calls of at most
    ENUM_GUARD rows), and the joint per-state transition is averaged over
    draws after the product across positions, since positions are only
    independent given the noise. Each call's draws are spread as soon as it
    returns, weighted by that call's share of the draws, so no buffer holds
    the rows of every draw.

    Each state only reaches the states that differ from it in its free
    positions (all of them for a uniform chain, its MASK positions for a
    masked one), and fully revealed states never move. The DP visits only
    those successors and builds them in row chunks of at most CHUNK_BYTES.
    The all-free states, which reach every state, are spread by one matrix
    product of two half-length joints (see `_spread`). So memory is bounded
    per call, for every space up to ENUM_GUARD (20,000 states) and any
    number of draws.
    """
    keff, K = process.vocab_eff, process.vocab
    n_states = keff ** seq_len
    if not chain_enumerable(process, seq_len):
        raise MetricError(f"state space {keff}^{seq_len} exceeds enumeration guard")
    plan = _chain_plan(keff, seq_len, process.mask_id if process.masked else None)

    dist = np.zeros(n_states)
    if process.masked:
        dist[-1] = 1.0  # the all-MASK state
    else:
        dist[:] = 1.0 / n_states
    draws = 1 if noise_draws is None else len(noise_draws)

    # the tables of many steps per call (per-step times broadcast as per-example
    # ones do), at most CHUNK_BYTES of them at once
    block = max(1, CHUNK_BYTES // (8 * keff * K * keff))
    for i in range(k, 0, -1):
        if (k - i) % block == 0:
            first = max(0, i - block)
            tables, _ = posterior_table(process, np.arange(first, i) / k,
                                        np.arange(first + 1, i + 1) / k)
        t, table = i / k, tables[i - 1 - first]  # (z, c, j)
        new = dist * plan.kept
        live = np.flatnonzero(dist[plan.order] > 0)
        src = plan.order[live]
        z_src = plan.states[src]
        mass = dist[src]
        # the groups that hold mass: (live rows lo:hi, their free columns, successors)
        groups = []
        live_bounds = np.searchsorted(live, plan.bounds).tolist()
        for (cols, succ), lo, hi, start, stop in zip(plan.groups, live_bounds, live_bounds[1:],
                                                     plan.bounds, plan.bounds[1:]):
            if lo == hi:
                continue
            if hi - lo < stop - start:  # only part of the group holds mass
                rel = live[lo:hi] - start
                cols, succ = cols[rel], None if succ is None else succ[rel]
            groups.append((lo, hi, cols, succ))
        # whole draws per predict call, at most ENUM_GUARD rows unless one draw has more;
        # each call's draws are spread as soon as they return
        per_call = max(1, ENUM_GUARD // max(len(src), 1))
        for r in range(0, draws, per_call):
            if noise_draws is None:
                xhat = predict(z_src, t)
            else:
                eps = noise_draws[r:r + per_call]
                xhat = predict(np.tile(z_src, (len(eps), 1)), t, np.repeat(eps, len(src), axis=0))
            xhat = np.asarray(xhat).reshape(-1, len(src), seq_len, K)
            if process.masked:
                # the free positions of a masked chain all hold MASK
                per_pos = xhat @ table[-1]
            else:
                per_pos = np.einsum("rndc,ndcj->rndj", xhat, table[z_src])
            # this call's share of the average over draws (exactly `mass` for one call)
            share = mass * (len(per_pos) / draws)
            for lo, hi, cols, succ in groups:
                rows = (per_pos[:, lo:hi] if succ is None
                        else per_pos[:, np.arange(lo, hi)[:, None], cols])
                _spread(new, share[lo:hi], rows, succ)
        dist = new

    if process.masked:
        clean_probs = dist[plan.kept > 0]
        if dist.sum() - clean_probs.sum() > 1e-9:
            raise MetricError("chain left mass on MASK at s=0")
        dist = clean_probs / clean_probs.sum()
    return ExactDistribution(K, seq_len, dist)


def oracle_denoiser(q: ExactDistribution, process: DiffusionProcess):
    """The exact conditional-marginal denoiser for data distribution q.

    Returns predict(z_states, t) -> factorized probabilities q(x_d | z_t),
    computed by enumeration over the support of q, in row chunks of at most
    CHUNK_BYTES.
    """
    seqs = all_sequences(q.seq_len, q.vocab)  # (M, D)
    seq_oh = one_hot(seqs, q.vocab).reshape(len(seqs), -1)  # (M, D*K)
    step = max(1, CHUNK_BYTES // (8 * seqs.size))

    def predict(z_states, t):
        lik = likelihood(process, t)  # lik[z, c] = q(z_t=z | x=c)
        z_states = np.asarray(z_states)
        out = np.empty((z_states.shape[0], q.seq_len, q.vocab))
        for lo in range(0, z_states.shape[0], step):
            z = z_states[lo:lo + step]
            # prod_d q(z_d | x_d) for every (state, candidate x), one position
            # at a time: (n, M) arrays, never an (n, M, D) one
            joint = 1.0
            for d in range(q.seq_len):
                joint = joint * lik[z[:, d, None], seqs[:, d]]
            w = q.probs * joint  # (n, M)
            totals = w.sum(axis=1, keepdims=True)
            w /= np.maximum(totals, 1e-300)
            chunk = out[lo:lo + step]
            chunk[:] = (w @ seq_oh).reshape(chunk.shape)
            # states outside the support of q (a factorized sampler can produce
            # them) get a uniform prediction rather than an all-zero row
            chunk[totals[:, 0] <= 0.0] = 1.0 / q.vocab
        return out

    return predict


def factorized_oracle_chain(q: ExactDistribution, process: DiffusionProcess, k: int) -> ExactDistribution:
    """Chain distribution of the exact factorized-marginal denoiser."""
    return exact_chain_distribution(oracle_denoiser(q, process), process, k, q.seq_len)


class ReferenceModel:
    """Position-dependent bigram autoregressive model with analytic gradients.

    Parameters are logits[d, prev, c] with prev = BOS (index K) at d = 0.
    Fitting the exact conditionals of q puts the model at its MLE, where the
    expected data log-likelihood gradient is exactly zero.
    """

    def __init__(self, seq_len: int, vocab: int):
        self.seq_len = seq_len
        self.vocab = vocab
        self.logits = np.zeros((seq_len, vocab + 1, vocab))
        self.fitted = False

    @property
    def n_params(self) -> int:
        return self.logits.size

    def _prev(self, x: np.ndarray) -> np.ndarray:
        prev = np.empty_like(x)
        prev[:, 0] = self.vocab  # BOS
        prev[:, 1:] = x[:, :-1]
        return prev

    def fit_exact(self, q: ExactDistribution) -> None:
        seqs = all_sequences(q.seq_len, q.vocab)
        prev = self._prev(seqs)
        cond = np.zeros_like(self.logits)
        for d in range(self.seq_len):
            np.add.at(cond[d], (prev[:, d], seqs[:, d]), q.probs)
        rows = cond.sum(axis=2, keepdims=True)
        cond = np.where(rows > 0, cond / np.maximum(rows, 1e-300), 1.0 / self.vocab)
        self.logits = np.log(np.maximum(cond, 1e-12))
        self.fitted = True

    def log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """Per-sequence log p(x), shape (batch,)."""
        x = np.asarray(x)
        prev = self._prev(x)
        logp = log_softmax(self.logits, axis=-1)
        out = np.zeros(x.shape[0])
        for d in range(self.seq_len):
            out += logp[d, prev[:, d], x[:, d]]
        return out

    def mean_grad_log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """Batch-mean gradient of log p(x) wrt logits, flattened."""
        x = np.asarray(x)
        prev = self._prev(x)
        p = np.exp(log_softmax(self.logits, axis=-1))
        grad = np.zeros_like(self.logits)
        for d in range(self.seq_len):
            np.add.at(grad[d], (prev[:, d], x[:, d]), 1.0)
            np.add.at(grad[d], (prev[:, d],), -p[d, prev[:, d]])
        return grad.ravel() / x.shape[0]


@dataclass
class GradientMomentResult:
    estimate: float
    stderr: float
    data_grad_norm: float
    warning: str | None = None


def gradient_moment(ref: ReferenceModel, gen_sampler, data_sampler, batch_size: int,
                    n_pairs: int, rng: RngState) -> GradientMomentResult:
    """Paired-minibatch estimator of the centered squared gradient norm.

    Each pair draws four independent batches (two generated, two data) and
    takes the inner product of the two centered batch-mean gradients, which
    is unbiased for the squared norm of the centered expectation.
    """
    if not ref.fitted:
        raise MetricError("reference model is untrained")
    vals = np.empty(n_pairs)
    data_grad = np.zeros(ref.n_params)
    for i in range(n_pairs):
        g1 = ref.mean_grad_log_likelihood(gen_sampler(batch_size, rng))
        q1 = ref.mean_grad_log_likelihood(data_sampler(batch_size, rng))
        g2 = ref.mean_grad_log_likelihood(gen_sampler(batch_size, rng))
        q2 = ref.mean_grad_log_likelihood(data_sampler(batch_size, rng))
        vals[i] = float((g1 - q1) @ (g2 - q2))
        data_grad += q1 + q2
    data_grad /= 2 * n_pairs
    norm = float(np.linalg.norm(data_grad))
    warning = None
    if norm > 0.1:
        warning = f"reference model may not be converged on data (grad norm {norm:.3g})"
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_pairs)) if n_pairs > 1 else float("inf")
    return GradientMomentResult(float(np.mean(vals)), stderr, norm, warning)


def sample_entropy(samples: np.ndarray) -> float:
    """Empirical unigram token entropy (nats), pooled over all positions."""
    samples = np.asarray(samples)
    if samples.shape[0] < SAMPLE_ENTROPY_MIN:
        raise MetricError(f"sample_entropy needs at least {SAMPLE_ENTROPY_MIN} samples")
    counts = np.bincount(samples.ravel())
    freqs = counts / counts.sum()
    return float(entropy(freqs))


def generator_output_entropy(model, process: DiffusionProcess, n_probes: int,
                             rng: RngState) -> float:
    """Mean per-position entropy of the soft output at fully-noised inputs."""
    D = model.config.seq_len
    if process.masked:
        z = np.full((n_probes, D), process.mask_id, dtype=np.int64)
    else:
        z = rng.integers(0, process.vocab, size=(n_probes, D))
    n_noise = model.config.n_noise
    eps = rng.normal((n_probes, n_noise)) if n_noise > 0 else None
    return float(np.mean(entropy(model.probs(z, 1.0, noise=eps))))


def generative_perplexity(ref: ReferenceModel, samples: np.ndarray) -> float:
    """exp of mean negative reference-model log-likelihood per token."""
    if not ref.fitted:
        raise MetricError("reference model is untrained")
    samples = np.asarray(samples)
    mean_nll = -float(np.mean(ref.log_likelihood(samples))) / ref.seq_len
    return float(np.exp(mean_nll))
