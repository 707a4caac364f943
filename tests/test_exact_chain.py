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
from ddlab import metrics
from ddlab.data import ENUM_GUARD, all_sequences, seq_index
from ddlab.metrics import ExactDistribution, exact_chain_distribution, oracle_denoiser
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
        h = np.eye(keff)[z].reshape(len(z), -1) @ w_state + t * w_time
        if eps is not None:
            h = h + eps @ w_noise
        return softmax(h.reshape(len(z), D, K), axis=-1)

    return predict


@pytest.mark.parametrize("kind", ["masked", "uniform"])
@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("D", [2, 3, 5])
def test_sparse_chain_matches_dense_reference(kind, K, D, monkeypatch):
    process = DiffusionProcess(kind, K)
    predict = random_predict(K, D, process.vocab_eff, 2, seed=K * 10 + D)
    draws = RngState(K + D).normal((3, 2))
    cases = [(k, noise) for k in (1, 2, 4) for noise in (None, draws)]
    expected = [dense_chain_distribution(predict, process, k, D, noise) for k, noise in cases]
    for budget in (metrics.CHUNK_BYTES, 1):
        # a one-byte budget puts every source row in a chunk of its own
        monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
        for (k, noise), want in zip(cases, expected):
            got = exact_chain_distribution(predict, process, k, D, noise_draws=noise).probs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"k={k} draws={noise is not None} budget={budget}")


def test_noise_draws_share_one_predict_call_per_step():
    process = DiffusionProcess("masked", 3)
    inner = random_predict(3, 3, 4, 2, seed=5)
    calls = []

    def predict(z, t, eps):
        calls.append(len(z))
        return inner(z, t, eps)

    exact_chain_distribution(predict, process, 4, 3, noise_draws=RngState(2).normal((5, 2)))
    assert len(calls) == 4
    assert calls[0] == 5  # step one sees only the all-MASK state, once per draw


def test_predict_calls_split_by_whole_draws_past_guard():
    # 24 draws x 1,024 states exceed ENUM_GUARD rows: 19 draws, then 5
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
