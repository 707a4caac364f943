"""Output checks that do not trust the program.

Every expected value is derived here with plain numpy from the dataset's
definition (all-equal sequences for correlated_bits, initial x transition
products for markov_chain) and from the forward process, never from
`ddlab.metrics`. The one call into the package is loading the teacher
checkpoint to get its predictions for the exact-chain check.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import itertools
import json
import math
import os

import numpy as np

# Files the README promises byte-identical under record_wallclock = false.
ARTIFACTS = ("teacher.ckpt", "generator.ckpt", "auxiliary.ckpt", "distill_state.npz",
             "teacher_log.csv", "teacher_kl_vs_steps.csv", "distill_log.csv", "student_kl_vs_k.csv",
             "eval_report.json", "sweep.csv", os.path.join("generator_samples", "samples.csv"),
             os.path.join("teacher_samples", "samples.csv"))
KL_TOL = 1e-9         # CSV values carry 10 significant digits
GOF_DELTA = 1e-6      # false-alarm probability of the goodness-of-fit test


class Spec:
    """What the checks need to know about one workload's INI."""

    def __init__(self, ini: str):
        cp = configparser.ConfigParser()
        cp.read_string(ini)
        self.kind = cp["dataset"]["kind"]
        self.D = int(cp["dataset"]["seq_len"])
        self.K = int(cp["dataset"]["vocab"])
        self.dataset_seed = int(cp["dataset"]["seed"])
        self.masked = cp["process"]["kind"] == "masked"
        if cp["process"].get("schedule", "linear") != "linear":
            raise ValueError("the checks assume the linear schedule alpha(t) = 1 - t")
        self.q = data_distribution(self)


def data_distribution(spec: Spec) -> np.ndarray:
    """q(x) over all K^D sequences in lexicographic order (position 0 most significant)."""
    seqs = np.array(list(itertools.product(range(spec.K), repeat=spec.D)))
    if spec.kind == "correlated_bits":
        q = np.all(seqs == seqs[:, :1], axis=1) / spec.K
    elif spec.kind == "markov_chain":
        from ddlab.data import make_dataset

        ds = make_dataset(spec.kind, spec.D, spec.K, seed=spec.dataset_seed)
        q = ds.initial[seqs[:, 0]].copy()
        for d in range(1, spec.D):
            q *= ds.transition[seqs[:, d - 1], seqs[:, d]]
    else:
        raise ValueError(f"no reference distribution for {spec.kind!r}")
    return q.astype(np.float64)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def margin(p: np.ndarray, K: int, D: int, keep: tuple) -> np.ndarray:
    """Marginal on the positions in `keep` of p over K^D sequences, flattened."""
    return p.reshape((K,) * D).sum(axis=tuple(a for a in range(D) if a not in keep)).ravel()


def total_correlation(spec: Spec) -> float:
    K, D = spec.K, spec.D
    return sum(_entropy(margin(spec.q, K, D, (d,))) for d in range(D)) - _entropy(spec.q)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_samples(path: str, D: int) -> np.ndarray:
    rows = read_csv(path)
    return np.array([[int(r[f"pos{d}"]) for d in range(D)] for r in rows], dtype=np.int64)


def teacher_chain(probs_fn, spec: Spec, steps: int) -> np.ndarray:
    """Exact distribution over clean sequences of the `steps`-step ancestral sampler.

    Forward-propagates the state distribution over all (K+1)^D or K^D noisy
    states. Given a state, positions move independently, each by the reverse
    kernel sum_c xhat_c q(z_s = j | z_t, x = c), so the successor distribution
    of a state is the outer product of its per-position rows.
    """
    K, D = spec.K, spec.D
    keff = K + 1 if spec.masked else K
    states = np.array(list(itertools.product(range(keff), repeat=D)), dtype=np.int64)
    dist = np.zeros(len(states))
    if spec.masked:
        dist[-1] = 1.0  # all-MASK is the last state in lexicographic order
    else:
        dist[:] = 1.0 / len(states)
    for i in range(steps, 0, -1):
        alpha_t, alpha_s = 1.0 - i / steps, 1.0 - (i - 1) / steps
        act = np.flatnonzero(dist)
        z = states[act]
        xhat = np.asarray(probs_fn(z, i / steps), dtype=np.float64)  # (N, D, K)
        if spec.masked:
            reveal = (alpha_s - alpha_t) / (1.0 - alpha_t)
            masked = z == K
            rows = np.zeros(z.shape + (keff,))
            rows[..., :K] = reveal * xhat * masked[..., None]
            rows[..., K] = (1.0 - reveal) * masked
            n_idx, d_idx = np.nonzero(~masked)
            rows[n_idx, d_idx, z[n_idx, d_idx]] = 1.0
        else:
            # Bayes: q(z_s=j | z_t, x=c) is proportional to q(z_t | z_s=j) q(z_s=j | x=c)
            a_ts = alpha_t / alpha_s
            eye = np.eye(K)
            forward = a_ts * eye + (1.0 - a_ts) / K           # [z_t, j]
            prior = alpha_s * eye + (1.0 - alpha_s) / K        # [c, j]
            kernel = forward[:, None, :] * prior[None, :, :]   # [z_t, c, j]
            kernel /= kernel.sum(axis=-1, keepdims=True)
            rows = np.einsum("ndc,ndcj->ndj", xhat, kernel[z])
        nxt = np.zeros(len(states))
        chunk = max(1, (1 << 21) // keff ** D)
        for lo in range(0, len(act), chunk):
            joint = dist[act[lo:lo + chunk], None] * rows[lo:lo + chunk, 0, :]
            for d in range(1, D):
                joint = (joint[:, :, None] * rows[lo:lo + chunk, d, None, :]).reshape(len(joint), -1)
            nxt += joint.sum(axis=0)
        dist = nxt
    if spec.masked:
        clean = np.all(states < K, axis=1)
        if dist[~clean].sum() > 1e-9:
            raise ValueError("exact chain left mass on MASK")
        dist = dist[clean]
    return dist / dist.sum()


def _chi2_quantile(df: int, alpha: float) -> float:
    """Upper alpha quantile of chi-square(df), Wilson-Hilferty approximation."""
    z = _normal_upper_quantile(alpha)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def _normal_upper_quantile(alpha: float) -> float:
    lo, hi = 0.0, 40.0
    for _ in range(200):  # bisection on the upper tail 0.5 erfc(z / sqrt 2)
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2.0)) > alpha else (lo, mid)
    return hi


def _chi2(counts: np.ndarray, p: np.ndarray) -> tuple[float, int]:
    """Pearson statistic after pooling the cells expected to hold fewer than 5 samples."""
    expected = p * counts.sum()
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0
    if np.any(obs[~keep] > 0):
        return math.inf, 1
    obs, exp = obs[keep], exp[keep]
    return float(np.sum((obs - exp) ** 2 / exp)), max(len(obs) - 1, 1)


def fits(samples: np.ndarray, p: np.ndarray, K: int, D: int) -> tuple[bool, str]:
    """Chi-square goodness of fit on the joint, each position and each adjacent pair.

    The tests share a false-alarm probability of GOF_DELTA (Bonferroni).
    """
    n = len(samples)
    idx = samples @ (K ** np.arange(D - 1, -1, -1))
    emp = np.bincount(idx, minlength=K ** D).astype(np.float64)
    keeps = [(d,) for d in range(D)] + [(d, d + 1) for d in range(D - 1)]
    tests = [("joint", emp, p)] + [("pos" + "".join(map(str, keep)), margin(emp, K, D, keep),
                                    margin(p, K, D, keep)) for keep in keeps]
    alpha = GOF_DELTA / len(tests)
    failed = []
    for name, counts, probs in tests:
        stat, df = _chi2(counts, probs)
        limit = _chi2_quantile(df, alpha)
        if stat > limit:
            failed.append(f"{name} chi2 {stat:.1f} > {limit:.1f} (df {df})")
    return not failed, "; ".join(failed) or f"n={n}, {len(tests)} tests"


def _kl_row(rows: list[dict], key: str, at: int, field: str) -> float:
    return float(next(r[field] for r in rows if int(r[key]) == at))


def check_round(spec: Spec, out: str, n_generator: int, n_teacher: int,
                exact_teacher: dict) -> list[tuple[str, bool, str]]:
    """Every check of one pipeline run's artifacts, as (name, passed, detail)."""
    results = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, StopIteration, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))

    K, D = spec.K, spec.D
    tc = total_correlation(spec)
    untrained_kl = D * math.log(K) - _entropy(spec.q)

    def sweep_k1_is_tc():
        kl1 = _kl_row(read_csv(os.path.join(out, "sweep.csv")), "value", 1, "exact_kl")
        return abs(kl1 - tc) <= KL_TOL, f"oracle k=1 {kl1!r} vs total correlation {tc!r}"

    def sweep_monotone():
        rows = sorted(read_csv(os.path.join(out, "sweep.csv")), key=lambda r: int(r["value"]))
        kls = [float(r["exact_kl"]) for r in rows]
        return all(b <= a + KL_TOL for a, b in zip(kls, kls[1:])), f"oracle KL by k {kls}"

    def teacher_k1_at_least_tc(path, key, field):
        def fn():
            kl1 = _kl_row(read_csv(os.path.join(out, path)), key, 1, field)
            return kl1 >= tc - KL_TOL, f"{path} k=1 {kl1!r} vs total correlation {tc!r}"
        return fn

    def teacher_k16_beats_untrained():
        kl16 = _kl_row(read_csv(os.path.join(out, "teacher_kl_vs_steps.csv")), "steps", 16, "kl")
        return kl16 < untrained_kl, f"16-step KL {kl16!r} vs untrained {untrained_kl!r}"

    def samples_valid(sub, n):
        def fn():
            s = read_samples(os.path.join(out, sub, "samples.csv"), D)
            ok = s.shape == (n, D) and s.min() >= 0 and s.max() < K
            return ok, f"shape {s.shape}, tokens in [{s.min()}, {s.max()}]"
        return fn

    def teacher_samples_fit_chain():
        digest = _sha256(os.path.join(out, "teacher.ckpt"))
        if digest not in exact_teacher:
            from ddlab.nets import model_from_checkpoint

            model, _ = model_from_checkpoint(os.path.join(out, "teacher.ckpt"))
            exact_teacher[digest] = teacher_chain(model.probs, spec, 16)
        s = read_samples(os.path.join(out, "teacher_samples", "samples.csv"), D)
        return fits(s, exact_teacher[digest], K, D)

    def report():
        with open(os.path.join(out, "eval_report.json")) as fh:
            return {r["metric"]: r for r in map(json.loads, fh)}

    def eval_bounds():
        # generative_perplexity <= K is left out: it holds only for a generator
        # whose samples are closer to q than uniform ones, not for every model
        rep = report()
        ent, ppl = rep["sample_entropy"]["value"], rep["generative_perplexity"]["value"]
        ok = 0.0 <= ent <= math.log(K) + 1e-12 and 1.0 <= ppl < math.inf
        return ok, f"sample_entropy {ent!r} (log K {math.log(K)!r}), perplexity {ppl!r}"

    def eval_kl_matches_table():
        rec = report()["exact_kl"]
        table = _kl_row(read_csv(os.path.join(out, "student_kl_vs_k.csv")), "k", rec["steps"],
                        "student_kl")
        ok = abs(rec["value"] - table) <= KL_TOL * max(1.0, abs(table))
        return ok, f"report {rec['value']!r} vs table {table!r} at k={rec['steps']}"

    check("sweep_k1_equals_total_correlation", sweep_k1_is_tc)
    check("sweep_kl_nonincreasing_in_k", sweep_monotone)
    if spec.masked:
        check("teacher_k1_log_at_least_tc",
              teacher_k1_at_least_tc("teacher_kl_vs_steps.csv", "steps", "kl"))
        check("teacher_k1_table_at_least_tc",
              teacher_k1_at_least_tc("student_kl_vs_k.csv", "k", "teacher_kl"))
    check("teacher_k16_beats_untrained", teacher_k16_beats_untrained)
    check("generator_samples_valid", samples_valid("generator_samples", n_generator))
    check("teacher_samples_valid", samples_valid("teacher_samples", n_teacher))
    check("teacher_samples_fit_exact_chain", teacher_samples_fit_chain)
    check("eval_entropy_and_perplexity_bounds", eval_bounds)
    check("eval_exact_kl_matches_table", eval_kl_matches_table)
    return results


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_hashes(out: str) -> dict[str, str]:
    return {name: (_sha256(os.path.join(out, name)) if os.path.exists(os.path.join(out, name))
                   else "missing") for name in ARTIFACTS}
