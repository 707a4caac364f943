"""Exact enumeration oracles and sample-based evaluation metrics."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ENUM_GUARD, all_sequences, seq_index
from .numerics import RngState, entropy, log_softmax
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
        names = self.names
        for i, name in enumerate(names):
            if name not in KNOWN_METRICS:
                raise MetricError(f"unknown metric {name!r}; known: {', '.join(KNOWN_METRICS)}")
            if name in names[:i]:
                raise MetricError(f"metric {name!r} is listed twice")
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
        # NaN passes the sum check below, and entries like [1.5, -0.5] sum to 1
        if not np.all(self.probs >= 0) or not np.isfinite(self.probs).all():
            raise MetricError("probabilities must be finite and non-negative")
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
# build at once: the DP works through its source rows in chunks that fit it,
# the oracle through the times of a call.
# A few thousand states still take one block per step (the two half joints
# of 1,024 uniform states take 640 KiB per draw); only larger spaces pay for
# more chunks.
CHUNK_BYTES = 32 * 2 ** 20
# Most rows of one exact-chain `predict` call that holds several chain steps.
# Past ~1k rows a network forward's cost per row no longer falls at D=5:
# 1,024 to 4,096 rows took 3.2-4.8 us per row when block 0 is read from the
# run table (one time, shared noise) and 5.1-6.5 us per position (per-row
# noise), in two runs on a 2-core x86-64 host whose speed swings, so larger
# calls save no dispatch; calls of ENUM_GUARD rows raised the
# markov_uniform benchmark's peak RSS from 55.1 to 62.1 MB, calls of 1,024
# rows left it at 55.1 MB.
PREDICT_ROWS = 1024


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


def _joints(rows: np.ndarray, succ: np.ndarray | None):
    """The joints over the m free positions of one group's rows (..., draws, N, m, keff).

    With successors: (J,), the joint averaged over draws after the product,
    (..., N, keff^m). For the all-free group (`succ` None): (A, B), per draw
    the joints over the first h = ceil(m/2) positions and over the other
    m - h (a column of ones when m = 1), (..., draws, N, keff^h) and
    (..., draws, N, keff^(m-h)); the keff^m joint is never built.
    """
    if succ is None:
        h = (rows.shape[-2] + 1) // 2
        b = (_joint_rows(rows[..., h:, :]) if rows.shape[-2] > h
             else np.ones(rows.shape[:-2] + (1,)))
        return _joint_rows(rows[..., :h, :]), b
    joint = _joint_rows(rows)
    return (joint[..., 0, :, :] if rows.shape[-4] == 1 else joint.mean(axis=-3),)


def _scatter(out: np.ndarray, mass: np.ndarray, joints, succ: np.ndarray | None) -> None:
    """Add one group's outgoing mass to `out`: mass (N,) times its `_joints`
    (without leading axes). Row n's share lands on succ[n], or on every state
    when `succ` is None.

    The all-free group adds sum_{r,n} mass[n] / draws * prod_d rows[r, n, d]
    to every state, in the lexicographic order of its m = D positions, which
    is the matrix product A.T @ B over one row per (draw, source row), with A
    weighted by mass / draws.
    """
    if succ is None:
        a, b = joints
        # in place: A (perhaps a view of the rows it came from) serves this
        # scatter alone, and no later step reads those rows
        a *= mass[:, None] / len(a)
        out += (a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])).ravel()
        return
    # rows of one group can share successors, so the scatter must add repeats
    out += np.bincount(succ.ravel(), (mass[:, None] * joints[0]).ravel(), minlength=len(out))


def _live_groups(plan: _ChainPlan, live: np.ndarray) -> list:
    """The groups that hold the rows `live` (sorted indices into plan.order):
    per group (lo, hi, cols, succ), its rows lo:hi of `live` with their free
    columns and successors."""
    groups = []
    live_bounds = np.searchsorted(live, plan.bounds).tolist()
    for (cols, succ), lo, hi, start, stop in zip(plan.groups, live_bounds, live_bounds[1:],
                                                 plan.bounds, plan.bounds[1:]):
        if lo == hi:
            continue
        if hi - lo < stop - start:  # only part of the group is live
            rel = live[lo:hi] - start
            cols, succ = cols[rel], None if succ is None else succ[rel]
        groups.append((lo, hi, cols, succ))
    return groups


def _per_pos(process: DiffusionProcess, xhat: np.ndarray, tables: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """q(z_s | z_t = z, xhat) per position: xhat (n, draws, N, D, K) of n steps
    and their posterior tables (n, keff, K, keff) -> (n, draws, N, D, keff)."""
    if process.masked:
        # the free positions of a masked chain all hold MASK
        return xhat @ tables[:, -1, None, None]
    return np.einsum("srndc,sndcj->srndj", xhat, tables[:, z])


def _calls(predict, z: np.ndarray, times: np.ndarray, noise_draws: np.ndarray | None, K: int):
    """`predict` on every state of z (N, D) at each of the n `times`, under
    every row of noise_draws (R, n_noise) or none: yields (xhat (n, r, N, D, K),
    r / R) per call, whose rows run time-major, then draw, then state. Calls
    hold whole draws, at most ENUM_GUARD rows when one draw's rows fit; a
    call of one step passes its time as a float."""
    n, N = len(times), len(z)
    draws = [None] if noise_draws is None else noise_draws
    per_call = max(1, ENUM_GUARD // max(n * N, 1))
    for lo in range(0, len(draws), per_call):
        eps = draws[lo:lo + per_call]
        r = len(eps)
        t = float(times[0]) if n == 1 else np.repeat(times, r * N)
        # the repeats, built once each: a call of one step and one draw passes z as is
        zs = np.tile(z, (n * r, 1)) if n * r > 1 else z
        if noise_draws is None:
            xhat = predict(zs, t)
        else:
            eps = np.repeat(eps, N, axis=0)
            xhat = predict(zs, t, np.tile(eps, (n, 1)) if n > 1 else eps)
        yield np.asarray(xhat).reshape(n, r, N, -1, K), r / len(draws)


def _chunks(per_pos: np.ndarray, groups):
    """Yield (lo, hi, joints, succ) for rows lo:hi of per_pos (n, draws, N, D,
    keff): the `_joints` of one group's rows, keeping the step and draw axes,
    in row chunks whose joints over all n steps fit CHUNK_BYTES."""
    for lo, hi, cols, succ in groups:
        # the all-free group takes every column
        rows = (per_pos[..., lo:hi, :, :] if succ is None
                else per_pos[..., np.arange(lo, hi)[:, None], cols, :])
        n, draws, _, m, keff = rows.shape
        h = (m + 1) // 2
        width = draws * (keff ** h + keff ** (m - h)) if succ is None else keff ** m * (draws + 1)
        step = max(1, CHUNK_BYTES // (8 * n * width))
        for a in range(0, hi - lo, step):
            yield (lo + a, min(lo + a + step, hi), _joints(rows[..., a:a + step, :, :], succ),
                   None if succ is None else succ[a:a + step])


def exact_chain_distribution(predict, process: DiffusionProcess, k: int | tuple[int, ...],
                             seq_len: int, noise_draws: np.ndarray | None = None
                             ) -> ExactDistribution | list[ExactDistribution]:
    """Exact distribution of the k-step ancestral sampler, by dynamic programming.

    `k` is an int, or a tuple of ints for several chains in one pass, which
    returns one ExactDistribution per entry. `predict(z_states, t)` (or
    `predict(z_states, t, eps)` when `noise_draws` is given) returns
    per-position probabilities over the data vocabulary, shape (n, D, K),
    for n states: `t` is a float when the call holds one time and an (n,)
    array of per-row times when it holds several. Noise-conditioned
    generators are marginalized over the fixed `noise_draws` rows (eps then
    has one row per state row), and the joint per-state transition is
    averaged over draws after the product across positions, since positions
    are only independent given the noise.

    Each state only reaches the states that differ from it in its free
    positions (all of them for a uniform chain, its MASK positions for a
    masked one), and fully revealed states never move. The DP runs one loop
    over `predict` calls, each of n consecutive times of the union of the
    chains' grids i / k and r whole draws. Every chain that steps at one of
    a call's times reads the call's rows at its own times, builds the joints
    over each state's free positions for all its steps and draws in the call
    in one pass, then scatters the mass of each step in turn to those successors,
    weighted by the call's share r / R of the average over draws. The
    all-free states, which reach every state, are scattered by one matrix
    product of two half-length joints (see `_scatter`). A time on several
    grids is predicted once for all of them.

    The first time, 1, runs alone on the all-MASK state (masked) or every
    state (uniform). A later time shares a call with as many times as fit in
    PREDICT_ROWS rows with every draw, on every state with a free position
    (rows of states without mass add nothing); when two times do not fit, it
    runs alone on the states that hold mass in any chain stepping there.
    Memory has one bound, for every space up to ENUM_GUARD (20,000 states)
    and any number of draws: a call holds at most ENUM_GUARD rows and builds
    each chain's joints in row chunks of at most CHUNK_BYTES. A call of one
    time scatters each chunk as it is built. A chain with several steps in a
    call keeps its chunks for all of them; such a call holds at most
    PREDICT_ROWS rows of at most PREDICT_ROWS / 2 states, and a row's joints
    are no wider than twice its states, so they take at most 8 MiB.
    """
    ks = k if isinstance(k, tuple) else (k,)
    if not ks:
        raise MetricError("k holds no chain length")
    if min(ks) < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    if noise_draws is not None and len(noise_draws) == 0:
        raise MetricError("noise_draws holds no draw")
    keff, K = process.vocab_eff, process.vocab
    n_states = keff ** seq_len
    if not chain_enumerable(process, seq_len):
        raise MetricError(f"state space {keff}^{seq_len} exceeds enumeration guard")
    plan = _chain_plan(keff, seq_len, process.mask_id if process.masked else None)

    start = np.zeros(n_states)
    if process.masked:
        start[-1] = 1.0  # the all-MASK state
    else:
        start[:] = 1.0 / n_states
    dist = {c: start for c in ks}  # per chain length; a step builds a new array
    # each chain's step at time i / c, and the union of those times, descending
    step_of = {c: {i / c: i for i in range(1, c + 1)} for c in dist}
    times = sorted(set().union(*step_of.values()), reverse=True)
    draws = 1 if noise_draws is None else len(noise_draws)
    # later times per shared predict call: with room for fewer than 2, each runs alone
    per_call = max(1, PREDICT_ROWS // (draws * len(plan.order)))
    calls = [times[:1]] + [times[a:a + per_call] for a in range(1, len(times), per_call)]

    for call in calls:
        n = len(call)
        # per chain stepping in this call: its times' places in the call
        stepping = {c: [j for j, t in enumerate(call) if t in steps]
                    for c, steps in step_of.items() if not steps.keys().isdisjoint(call)}
        # a time alone runs on the states that hold mass in a stepping chain;
        # a chain's rows of states without its mass add nothing to it
        live = (np.flatnonzero(functools.reduce(np.logical_or,
                                                (dist[c][plan.order] > 0 for c in stepping)))
                if n == 1 else np.arange(len(plan.order)))
        src = plan.order[live]
        z_src, groups = plan.states[src], _live_groups(plan, live)
        tables = {}
        for c, at in stepping.items():
            i = np.array([step_of[c][call[j]] for j in at])
            tables[c], _ = posterior_table(process, (i - 1) / c, i / c)
        new = {c: dist[c] * plan.kept for c in stepping}
        for xhat, share in _calls(predict, z_src, np.array(call), noise_draws, K):
            for c, at in stepping.items():
                x = xhat if len(at) == n else xhat[at]
                chunks = _chunks(_per_pos(process, x, tables[c], z_src), groups)
                if len(at) > 1:  # every step reads every chunk
                    chunks = list(chunks)
                for j in range(len(at)):
                    if j:  # the chain's next step: a call of several times holds every draw
                        dist[c], new[c] = new[c], new[c] * plan.kept
                    # the call's share of the average over draws; all of it spares a multiply
                    mass = dist[c][src] if share == 1 else dist[c][src] * share
                    for lo, hi, joints, succ in chunks:
                        _scatter(new[c], mass[lo:hi], [part[j] for part in joints], succ)
                        del joints  # a step alone frees each chunk before the next
        dist.update(new)

    for c, probs in dist.items():
        if process.masked:
            clean_probs = probs[plan.kept > 0]
            if probs.sum() - clean_probs.sum() > 1e-9:
                raise MetricError("chain left mass on MASK at s=0")
            probs = clean_probs / clean_probs.sum()
        dist[c] = ExactDistribution(K, seq_len, probs)
    return [dist[c] for c in ks] if isinstance(k, tuple) else dist[k]


def _mode_product(m: np.ndarray, lik_t: np.ndarray, axis: int) -> np.ndarray:
    """Sum the clean token on `axis` of m (G or 1, ...) against lik_t[g, c, z]
    (G, K, keff): that axis becomes the noisy token."""
    moved = np.moveaxis(m, axis, -1)
    out = moved.reshape(len(m), -1, moved.shape[-1]) @ lik_t
    return np.moveaxis(out.reshape(out.shape[:1] + moved.shape[1:-1] + (-1,)), -1, axis)


def _conditionals(q: ExactDistribution, lik: np.ndarray) -> np.ndarray:
    """q(x_d = c | z_t = z) for every noisy state z under each of G likelihood
    matrices lik[g, z, c] = q(z_t = z | x = c) (G, keff, K): (G, keff^D, D, K),
    states in all_sequences order.

    The likelihood of z given x is a product over positions, so position d's
    numerator, the sum over x with x_d = c of q(x) prod_e lik[z_e, x_e], is
    lik[z_d, c] times q's (K,)*D tensor with every mode e != d multiplied by
    lik: D - 1 mode products per position. A state outside the support of q
    (a zero denominator) gets the uniform row.
    """
    G, keff, K = lik.shape
    D = q.seq_len
    tensor, lik_t = q.probs.reshape((1,) + (K,) * D), lik.transpose(0, 2, 1)
    out = np.empty((G,) + (keff,) * D + (D, K))
    for d in range(D):
        m = tensor
        for e in range(D):
            if e != d:
                m = _mode_product(m, lik_t, e + 1)
        # the clean token of position d last, its noisy token in its place
        num = (np.expand_dims(np.moveaxis(m, d + 1, -1), d + 1)
               * lik.reshape((G,) + (1,) * d + (keff,) + (1,) * (D - 1 - d) + (K,)))
        totals = num.sum(axis=-1, keepdims=True)
        rows = out[..., d, :]
        np.divide(num, np.maximum(totals, 1e-300), out=rows)
        rows[totals[..., 0] <= 0.0] = 1.0 / K
    return out.reshape(G, keff ** D, D, K)


def oracle_denoiser(q: ExactDistribution, process: DiffusionProcess):
    """The exact conditional-marginal denoiser for data distribution q.

    Returns predict(z_states, t) -> factorized probabilities q(x_d | z_t), a
    gather from tables of every noisy state (`_conditionals`); `t` is a
    scalar or one time per row of z_states.

    Masked: the likelihood of z given any x that agrees with its revealed
    tokens is alpha^R (1 - alpha)^(D - R) (R revealed positions), the same
    for every such x, so it cancels. One table, built here from the 0/1
    agreement matrix, serves every time; the pairs the forward process
    cannot produce (a revealed token at alpha = 0, a MASK at alpha = 1) get
    the uniform row, as states outside the support of q do.
    Uniform: one table per distinct time of a call, built in groups of times
    whose tables fit CHUNK_BYTES.
    """
    D, K, keff = q.seq_len, q.vocab, process.vocab_eff
    if not chain_enumerable(process, D):
        raise MetricError(f"state space {keff}^{D} exceeds enumeration guard")
    if process.masked:
        agree = np.eye(keff)[:, :K]
        agree[process.mask_id] = 1.0  # MASK agrees with every token
        table = _conditionals(q, agree[None])[0]
    # a table and its temporaries, per time
    per_group = max(1, CHUNK_BYTES // (8 * keff ** D * K * (D + 3)))

    def predict(z_states, t):
        z_states = np.asarray(z_states)
        idx = seq_index(z_states, keff)
        if process.masked:
            out = table[idx]
            alpha = process.schedule.alpha(t)
            revealed = (z_states != process.mask_id).sum(axis=1)
            out[((alpha == 0.0) & (revealed > 0)) | ((alpha == 1.0) & (revealed < D))] = 1.0 / K
            return out
        times, inv = ((np.array([t], dtype=np.float64), np.zeros(len(idx), dtype=np.intp))
                      if np.ndim(t) == 0 else np.unique(t, return_inverse=True))
        out = np.empty((len(idx), D, K))
        for lo in range(0, len(times), per_group):
            tables = _conditionals(q, likelihood(process, times[lo:lo + per_group]))
            rows = np.flatnonzero((inv >= lo) & (inv < lo + per_group))
            out[rows] = tables[inv[rows] - lo, idx[rows]]
        return out

    return predict


def factorized_oracle_chain(q: ExactDistribution, process: DiffusionProcess, k: int) -> ExactDistribution:
    """Chain distribution of the exact factorized-marginal denoiser."""
    return exact_chain_distribution(oracle_denoiser(q, process), process, k, q.seq_len)


class ReferenceModel:
    """Position-dependent bigram autoregressive model with analytic gradients.

    Parameters are logits[d, prev, c] with prev = BOS (index K) at d = 0.
    They are the log of q's exact conditionals, which puts the model at its
    MLE, where the expected data log-likelihood gradient is exactly zero.
    """

    def __init__(self, q: ExactDistribution):
        self.seq_len, self.vocab = q.seq_len, q.vocab
        seqs = all_sequences(q.seq_len, q.vocab)
        prev = self._prev(seqs)
        cond = np.zeros((q.seq_len, q.vocab + 1, q.vocab))
        for d in range(self.seq_len):
            np.add.at(cond[d], (prev[:, d], seqs[:, d]), q.probs)
        rows = cond.sum(axis=2, keepdims=True)
        cond = np.where(rows > 0, cond / np.maximum(rows, 1e-300), 1.0 / self.vocab)
        self.logits = np.log(np.maximum(cond, 1e-12))

    @property
    def n_params(self) -> int:
        return self.logits.size

    def _prev(self, x: np.ndarray) -> np.ndarray:
        prev = np.empty_like(x)
        prev[..., 0] = self.vocab  # BOS
        prev[..., 1:] = x[..., :-1]
        return prev

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
        """Per-batch mean gradient of log p(x) wrt logits: x (n, B, D) -> (n, n_params).

        The gradient of one sequence is one_hot(x_d) - p[d, prev_d] at each
        (d, prev_d); a batch's sum is its token counts per (d, prev, c) minus
        its counts per (d, prev) times p, both one bincount over all batches.
        """
        x = np.asarray(x)
        n, B, D = x.shape
        K = self.vocab
        cell = (np.arange(n)[:, None, None] * D + np.arange(D)) * (K + 1) + self._prev(x)
        counts = np.bincount((cell * K + x).ravel(), minlength=n * self.n_params)
        prev_counts = np.bincount(cell.ravel(), minlength=n * D * (K + 1))
        p = np.exp(log_softmax(self.logits, axis=-1))
        grad = counts.reshape(n, D, K + 1, K) - prev_counts.reshape(n, D, K + 1, 1) * p
        return grad.reshape(n, -1) / B


@dataclass
class GradientMomentResult:
    estimate: float
    stderr: float
    data_grad_norm: float
    warning: str | None = None


# Most rows one `gradient_moment` sampler call draws; a call holds whole
# pairs of batches, so memory is bounded for any number of pairs.
GM_ROWS_PER_CALL = 2 ** 15


def gradient_moment(ref: ReferenceModel, gen_sampler, data_sampler, batch_size: int,
                    n_pairs: int, rng: RngState) -> GradientMomentResult:
    """Paired-minibatch estimator of the centered squared gradient norm.

    Each pair takes two generated and two data batches and the inner product
    of the two centered batch-mean gradients, which is unbiased for the
    squared norm of the centered expectation. Each side draws its batches in
    one sampler call, the generator's first, and batches 2i and 2i + 1 form
    pair i. Past GM_ROWS_PER_CALL rows, or CHUNK_BYTES of per-batch
    gradients, a side takes more calls, each of whole pairs.
    """
    per_call = max(1, min(GM_ROWS_PER_CALL // (2 * batch_size),
                          CHUNK_BYTES // (2 * 8 * ref.n_params)))
    vals = np.empty(n_pairs)
    data_grad = np.zeros(ref.n_params)
    for lo in range(0, n_pairs, per_call):
        n = 2 * min(per_call, n_pairs - lo)  # batches per side
        g, q = [ref.mean_grad_log_likelihood(
                    np.reshape(sampler(n * batch_size, rng), (n, batch_size, -1)))
                for sampler in (gen_sampler, data_sampler)]
        diff = g - q
        vals[lo:lo + n // 2] = np.einsum("ij,ij->i", diff[0::2], diff[1::2])
        data_grad += q.sum(axis=0)
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
    samples = np.asarray(samples)
    mean_nll = -float(np.mean(ref.log_likelihood(samples))) / ref.seq_len
    return float(np.exp(mean_nll))
