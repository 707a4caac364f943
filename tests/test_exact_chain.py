"""The sparse exact-chain DP against a dense reference, and its memory bound.

`dense_chain_distribution` is the earlier dense implementation, kept here as
the test oracle: it builds the full (N_active, keff^D) transition matrix at
every step and loops over the noise draws. The memory tests run in a child
process under an address-space limit, so an oversized allocation fails the
test with MemoryError instead of taking the machine's memory.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ddlab
from ddlab import cli, metrics
from ddlab.data import ENUM_GUARD, all_sequences, seq_index
from ddlab.distill import DistillConfig
from ddlab.metrics import ExactDistribution, exact_chain_distribution, oracle_denoiser
from ddlab.nets import Denoiser, ModelConfig
from ddlab.numerics import RngState, one_hot, softmax
from ddlab.process import DiffusionProcess

# the limit under which the dense DP raised MemoryError on masked K=4 D=6
ADDRESS_LIMIT_KIB = 3_000_000
# peak resident memory allowed to one of those children: the interpreter and
# numpy plus a few blocks of metrics.CHUNK_BYTES; the dense DP needed 1.8 GiB
# for one transition matrix on masked K=4 D=6
PEAK_BOUND_MB = 256


def dense_posterior_table(process, s, t):
    sched = process.schedule
    alpha_s, alpha_t = float(sched.alpha(s)), float(sched.alpha(t))
    a_ts = alpha_t / alpha_s if alpha_s > 0 else 1.0
    keff, K = process.vocab_eff, process.vocab
    pi = process.pi
    z = np.arange(keff)
    bracket1 = a_ts * np.eye(keff) + (1.0 - a_ts) * pi[z][:, None]
    x_oh = one_hot(np.arange(K), keff)
    bracket2 = alpha_s * x_oh + (1.0 - alpha_s) * pi
    denom = alpha_t * x_oh[:, z].T + (1.0 - alpha_t) * pi[z][:, None]
    table = np.zeros((keff, K, keff))
    ok = denom > 1e-30
    num = bracket1[:, None, :] * bracket2[None, :, :]
    table[ok] = num[ok] / denom[ok][:, None]
    if process.masked:
        for zd in range(K):
            table[zd, :, :] = 0.0
            table[zd, :, zd] = 1.0
    return table


def dense_joint_rows(per_pos):
    joint = per_pos[:, 0, :]
    for d in range(1, per_pos.shape[1]):
        joint = joint[:, :, None] * per_pos[:, d, :][:, None, :]
        joint = joint.reshape(joint.shape[0], -1)
    return joint


def dense_chain_distribution(predict, process, k, seq_len, noise_draws=None):
    keff, K = process.vocab_eff, process.vocab
    n_states = keff ** seq_len
    states = all_sequences(seq_len, keff)
    dist = np.zeros(n_states)
    if process.masked:
        dist[seq_index(np.full(seq_len, process.mask_id), keff)] = 1.0
    else:
        dist[:] = 1.0 / n_states
    for i in range(k, 0, -1):
        t, s = i / k, (i - 1) / k
        table = dense_posterior_table(process, s, t)
        active = dist > 0
        z_act = states[active]
        gathered = table[z_act]
        if noise_draws is None:
            per_pos = np.einsum("ndc,ndcj->ndj", predict(z_act, t), gathered)
            joint = dense_joint_rows(per_pos)
        else:
            joint = 0.0
            for eps in noise_draws:
                eps_b = np.tile(eps[None, :], (z_act.shape[0], 1))
                per_pos = np.einsum("ndc,ndcj->ndj", predict(z_act, t, eps_b), gathered)
                joint = joint + dense_joint_rows(per_pos)
            joint = joint / len(noise_draws)
        dist = dist[active] @ joint
    if process.masked:
        clean = dist[seq_index(all_sequences(seq_len, K), keff)]
        dist = clean / clean.sum()
    return dist


def random_predict(K, D, keff, n_noise, seed):
    """A fixed random map (state, t, eps) -> per-position probabilities.

    The noise enters every position through one shared projection, so the
    positions are correlated once the noise is marginalized out.
    """
    gen = np.random.default_rng(seed)
    w_state = gen.normal(size=(D * keff, D * K))
    w_time = gen.normal(size=D * K)
    w_noise = gen.normal(size=(n_noise, D * K))

    def predict(z, t, eps=None):
        # t is a scalar or one time per row
        h = np.eye(keff)[z].reshape(len(z), -1) @ w_state + np.reshape(t, (-1, 1)) * w_time
        if eps is not None:
            h = h + eps @ w_noise
        return softmax(h.reshape(len(z), D, K), axis=-1)

    return predict


@pytest.mark.parametrize("kind", ["masked", "uniform"])
@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_sparse_chain_matches_dense_reference(kind, K, D, monkeypatch):
    process = DiffusionProcess(kind, K)
    predict = random_predict(K, D, process.vocab_eff, 2, seed=K * 10 + D)
    draws = RngState(K + D).normal((3, 2))
    cases = [(k, noise) for k in (1, 2, 4) for noise in (None, draws)]
    expected = [dense_chain_distribution(predict, process, k, D, noise) for k, noise in cases]
    # a one-byte budget puts every source row in a chunk of its own; one row
    # per call runs every step alone, on the states that hold mass
    for setting, value in (("CHUNK_BYTES", metrics.CHUNK_BYTES), ("CHUNK_BYTES", 1),
                           ("PREDICT_ROWS", 1)):
        monkeypatch.setattr(metrics, setting, value)
        for (k, noise), want in zip(cases, expected):
            got = exact_chain_distribution(predict, process, k, D, noise_draws=noise).probs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"k={k} draws={noise is not None} "
                                               f"{setting}={value}")


def test_noise_draws_share_one_predict_call_per_step():
    # masked K=3 D=3, 5 draws, k=4: the first step predicts the all-MASK state
    # under each draw (5 rows) alone; the three later steps each predict the
    # 37 states with a MASK under each draw, 3 x 185 rows in one call
    process = DiffusionProcess("masked", 3)
    inner = random_predict(3, 3, 4, 2, seed=5)
    draws = RngState(2).normal((5, 2))
    calls = []

    def predict(z, t, eps):
        calls.append((z.copy(), np.broadcast_to(t, len(z)).copy(), eps.copy()))
        return inner(z, t, eps)

    got = exact_chain_distribution(predict, process, 4, 3, noise_draws=draws).probs
    assert [len(z) for z, _, _ in calls] == [5, 555]
    assert all(len(z) <= metrics.PREDICT_ROWS for z, _, _ in calls)
    # each call holds whole steps, in order, and every draw of each of its steps
    steps = []
    for z, t, eps in calls:
        for time in np.unique(t)[::-1]:
            at = t == time
            pairs = {(tuple(row), tuple(e)) for row, e in zip(z[at], eps[at])}
            states = {tuple(row) for row in z[at]}
            assert pairs == {(row, tuple(e)) for row in states for e in draws}
            assert at.sum() == len(states) * len(draws)
            steps.append(time)
    assert steps == [1.0, 0.75, 0.5, 0.25]
    want = dense_chain_distribution(inner, process, 4, 3, draws)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_oracle_sweep_predict_calls():
    # the bits oracle chains at k = 1 ... 2048 take 4,095 steps: one call for
    # each chain's first step, and 204 later steps of 5 rows per call
    q = ExactDistribution(2, 2, np.array([0.45, 0.05, 0.05, 0.45]))
    process = DiffusionProcess("masked", 2)
    inner = oracle_denoiser(q, process)
    calls = []

    def predict(z, t):
        calls.append(len(z))
        return inner(z, t)

    for i in range(12):
        exact_chain_distribution(predict, process, 2 ** i, 2)
    assert len(calls) <= 41 and max(calls) <= metrics.PREDICT_ROWS


def test_uniform_chain_of_1024_states_keeps_one_call_per_step():
    process = DiffusionProcess("uniform", 4)
    inner = random_predict(4, 5, 4, 0, seed=8)
    calls = []

    def predict(z, t):
        calls.append((len(z), np.ndim(t)))
        return inner(z, t)

    got = exact_chain_distribution(predict, process, 3, 5).probs
    assert calls == [(1024, 0)] * 3
    want = dense_chain_distribution(inner, process, 3, 5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_steps_that_run_alone_predict_the_states_with_mass():
    # masked K=4 D=5, 2 draws: 2 x 2,101 states with a MASK exceed PREDICT_ROWS,
    # so every step runs alone. The first predicts the all-MASK state under
    # both draws; the later two predict every state with a MASK, all of which
    # hold mass by then.
    process = DiffusionProcess("masked", 4)
    inner = random_predict(4, 5, 5, 2, seed=11)
    draws = RngState(12).normal((2, 2))
    calls = []

    def predict(z, t, eps):
        calls.append(len(z))
        return inner(z, t, eps)

    got = exact_chain_distribution(predict, process, 3, 5, noise_draws=draws).probs
    assert calls == [2, 4202, 4202]
    want = dense_chain_distribution(inner, process, 3, 5, draws)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["masked", "uniform"])
@pytest.mark.parametrize("k, n_draws, message", [(0, None, "k must be"), (-3, None, "k must be"),
                                                  (2, 0, "no draw")])
def test_chain_rejects_no_steps_or_no_draws(kind, k, n_draws, message):
    process = DiffusionProcess(kind, 2)
    predict = random_predict(2, 2, process.vocab_eff, 2, seed=1)
    noise = None if n_draws is None else np.zeros((n_draws, 2))
    with pytest.raises(metrics.MetricError, match=message):
        exact_chain_distribution(predict, process, k, 2, noise_draws=noise)


def test_zero_mass_rows_add_nothing():
    # q on 000 and 111 only: the oracle's exact zeros leave states with a MASK
    # and no mass, whose rows the shared calls still predict
    q = ExactDistribution(2, 3, np.array([0.6, 0, 0, 0, 0, 0, 0, 0.4]))
    for kind in ("masked", "uniform"):
        process = DiffusionProcess(kind, 2)
        predict = oracle_denoiser(q, process)
        for k in (2, 3, 7):
            got = exact_chain_distribution(predict, process, k, 3).probs
            want = dense_chain_distribution(predict, process, k, 3)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{kind} k={k}")


def _per_row_times_match_scalar(predict, z, *args):
    for t in (1.0, 0.75, 1 / 3, 0.0):
        np.testing.assert_array_equal(predict(z, np.full(len(z), t), *args), predict(z, t, *args),
                                      err_msg=f"t={t}")


@pytest.mark.parametrize("top_p", [1.0, 0.6])
def test_teacher_predict_per_row_times_match_scalar(top_p):
    model = Denoiser(ModelConfig(seq_len=5, vocab=2, masked=True), RngState(1))
    model.store.values[:] = RngState(2).normal(model.store.values.shape) * 0.5
    predict = cli._teacher_predict(model, DistillConfig(tau=0.8, top_p=top_p))
    # 243 rows: several no-grad row blocks of the forward
    _per_row_times_match_scalar(predict, all_sequences(5, 3))


def test_generator_probs_per_row_times_match_scalar():
    gen = Denoiser(ModelConfig(seq_len=5, vocab=2, masked=True, n_noise=3), RngState(3))
    gen.store.values[:] = RngState(4).normal(gen.store.values.shape) * 0.5
    z = all_sequences(5, 3)
    _per_row_times_match_scalar(gen.probs, z, RngState(5).normal((len(z), 3)))


@pytest.mark.parametrize("kind", ["masked", "uniform"])
def test_oracle_denoiser_per_row_times_match_scalar(kind, monkeypatch):
    # zeros in q put some states outside its support (uniform prediction rows)
    q = ExactDistribution(3, 2, np.array([0.3, 0, 0.1, 0, 0, 0, 0.2, 0, 0.4]))
    process = DiffusionProcess(kind, 3)
    z = all_sequences(2, process.vocab_eff)
    _per_row_times_match_scalar(oracle_denoiser(q, process), z)
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 1)  # a chunk per row
    _per_row_times_match_scalar(oracle_denoiser(q, process), z)
    # rows at different times read their own time's likelihood
    times = np.linspace(0.1, 1.0, len(z))
    mixed = oracle_denoiser(q, process)(z, times)
    for n in range(len(z)):
        np.testing.assert_array_equal(mixed[n], oracle_denoiser(q, process)(z[n:n + 1], times[n])[0])


def test_predict_calls_split_by_whole_draws_past_guard():
    # 24 draws x 1,024 states exceed ENUM_GUARD rows: 19 draws, then 5, spread
    # with shares 19/24 and 5/24 of the average over draws
    process = DiffusionProcess("uniform", 4)
    inner = random_predict(4, 5, 4, 2, seed=3)
    draws = RngState(6).normal((24, 2))
    calls = []

    def predict(z, t, eps):
        calls.append(len(z))
        return inner(z, t, eps)

    got = exact_chain_distribution(predict, process, 2, 5, noise_draws=draws).probs
    assert calls == [19 * 1024, 5 * 1024] * 2 and max(calls) <= ENUM_GUARD
    want = dense_chain_distribution(inner, process, 2, 5, draws)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_revealed_states_never_reach_predict():
    process = DiffusionProcess("masked", 2)
    inner = random_predict(2, 3, 3, 1, seed=1)
    seen = []

    def predict(z, t):
        seen.append(z.copy())
        return inner(z, t)

    exact_chain_distribution(predict, process, 8, 3)
    assert all(np.all(np.any(z == process.mask_id, axis=1)) for z in seen)


def test_oracle_denoiser_chunks_match_one_block(monkeypatch):
    weights = RngState(4).uniform(size=27)
    q = ExactDistribution(3, 3, weights / weights.sum())
    process = DiffusionProcess("uniform", 3)
    z = all_sequences(3, 3)
    whole = oracle_denoiser(q, process)(z, 0.4)
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 1)
    chunked = oracle_denoiser(q, process)(z, 0.4)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-15)
    # one row by hand: posterior weights over the 27 clean sequences, alpha(0.4) = 0.6
    seqs = all_sequences(3, 3)
    lik = np.prod(np.where(seqs == z[5], 0.6 + 0.4 / 3, 0.4 / 3), axis=1)
    w = q.probs * lik / np.sum(q.probs * lik)
    np.testing.assert_allclose(whole[5], one_hot(seqs, 3).transpose(1, 2, 0) @ w, atol=1e-12)


def run_limited(body: str) -> dict:
    """Run `body` in a child under ADDRESS_LIMIT_KIB; it must print one JSON line.

    The child reports its `ru_maxrss` and its own peak resident set
    (`VmHWM`). The bounds use the latter where the system has it: Linux
    carries the parent's high-water mark into a child's `ru_maxrss` across
    the exec, so under a test runner that has grown, `ru_maxrss` reads the
    runner's size rather than the child's.
    """
    script = (
        "import resource\n"
        f"lim = {ADDRESS_LIMIT_KIB} * 1024\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    lim = min(lim, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (lim, hard))\n"
        "import json, time\nimport numpy as np\n"
        "start = time.perf_counter()\n"
        f"{body}\n"
        "seconds = time.perf_counter() - start\n"
        "maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak_mb = next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024\n"
        "except (OSError, StopIteration):\n"
        "    peak_mb = maxrss_mb\n"
        "print(json.dumps({'sums': sums, 'seconds': seconds, 'maxrss_mb': maxrss_mb,\n"
        "                  'peak_mb': peak_mb}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddlab.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{report}")
    return report


def test_oracle_chain_on_six_positions_fits_address_limit():
    report = run_limited(
        "from ddlab.data import make_dataset\n"
        "from ddlab.metrics import ExactDistribution, factorized_oracle_chain\n"
        "from ddlab.process import DiffusionProcess\n"
        "ds = make_dataset('markov_chain', 6, 4)\n"
        "q = ExactDistribution(4, 6, ds.exact_q())\n"
        "dist = factorized_oracle_chain(q, DiffusionProcess('masked', 4), 2)\n"
        "sums = [float(dist.probs.sum())]\n"
    )
    assert abs(report["sums"][0] - 1.0) < 1e-9
    assert report["peak_mb"] < PEAK_BOUND_MB


def test_uniform_oracle_chain_on_seven_positions_fits_address_limit():
    # the largest admitted uniform space: one table of 16,384 states per time
    report = run_limited(
        "from ddlab.data import make_dataset\n"
        "from ddlab.metrics import ExactDistribution, factorized_oracle_chain\n"
        "from ddlab.process import DiffusionProcess\n"
        "ds = make_dataset('markov_chain', 7, 4)\n"
        "q = ExactDistribution(4, 7, ds.exact_q())\n"
        "dist = factorized_oracle_chain(q, DiffusionProcess('uniform', 4), 2)\n"
        "sums = [float(dist.probs.sum())]\n"
    )
    assert abs(report["sums"][0] - 1.0) < 1e-9
    assert report["peak_mb"] < PEAK_BOUND_MB


@pytest.mark.parametrize("kind, seq_len, k", [("masked", 6, 4), ("uniform", 7, 1)])
def test_largest_admitted_spaces_fit_address_limit(kind, seq_len, k):
    assert DiffusionProcess(kind, 4).vocab_eff ** seq_len <= ENUM_GUARD
    report = run_limited(
        "from ddlab.metrics import exact_chain_distribution\n"
        "from ddlab.process import DiffusionProcess\n"
        "gen = np.random.default_rng(0)\n"
        "def predict(z, t):\n"
        "    p = gen.uniform(0.1, 1.0, size=z.shape + (4,))\n"
        "    return p / p.sum(axis=-1, keepdims=True)\n"
        f"dist = exact_chain_distribution(predict, DiffusionProcess({kind!r}, 4), {k}, {seq_len})\n"
        "sums = [float(dist.probs.sum())]\n"
    )
    assert abs(report["sums"][0] - 1.0) < 1e-9
    # the dense DP needed 1.8 GiB (masked) and 2 GiB (uniform) for one transition matrix
    assert report["peak_mb"] < PEAK_BOUND_MB


def test_many_noise_draws_fit_address_limit():
    # 64 draws over 16,384 uniform states: one predict call per draw. A buffer of
    # every draw's per-position rows held 235 MB and peaked at 311 MB; each call's
    # draws are now spread as soon as they return.
    report = run_limited(
        "from ddlab.metrics import exact_chain_distribution\n"
        "from ddlab.process import DiffusionProcess\n"
        "gen = np.random.default_rng(0)\n"
        "p = gen.uniform(0.1, 1.0, size=(4 ** 7, 7, 4))\n"
        "p /= p.sum(axis=-1, keepdims=True)\n"
        "def predict(z, t, eps):\n"
        "    return p\n"
        "draws = gen.normal(size=(64, 2))\n"
        "dist = exact_chain_distribution(predict, DiffusionProcess('uniform', 4), 1, 7,\n"
        "                                noise_draws=draws)\n"
        "sums = [float(dist.probs.sum())]\n"
    )
    assert abs(report["sums"][0] - 1.0) < 1e-9
    assert report["peak_mb"] < PEAK_BOUND_MB
