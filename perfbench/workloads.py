"""The three benchmark workloads: an INI template and the command sequence.

Every workload runs the same five CLI steps; only the INI and the sample
counts differ. The workload seed is written into `[dataset] seed` (which
picks the Markov transition matrix) and passed to every command as
`--seed`, so the program sees nothing but the generated INI and the seed.
"""

from __future__ import annotations

import os

EVAL_METRICS = "exact_kl,sample_entropy,gm,generative_perplexity"
TEACHER_SAMPLE_STEPS = 16

# Headline setting: 9 noisy states, so time goes to per-step dispatch.
BITS_MASKED = """\
[dataset]
kind = correlated_bits
seq_len = 2
vocab = 2
seed = {seed}

[process]
kind = masked
schedule = linear

[model]
n_noise = 8

[teacher]
steps = 800
eval_every = 400

[distill]
k = 1
steps = 600
soft_targets = true
loss_variant = cross_entropy
aux_per_gen = 2
gen_lr = 1e-3
aux_lr = 3e-3
eval_every = 200

[eval]
n_samples = 20000

[run]
record_wallclock = false
"""

# 1,024 dense states: the noise-marginalized DP without absorbing sparsity.
MARKOV_UNIFORM = """\
[dataset]
kind = markov_chain
seq_len = 5
vocab = 4
seed = {seed}

[process]
kind = uniform
schedule = linear

[model]
n_noise = 8

[teacher]
steps = 600
lr = 1e-2
eval_every = 600

[distill]
k = 4
steps = 240
soft_targets = false
loss_variant = cross_entropy
eval_every = 240
noise_marginal_draws = 4

[eval]
n_samples = 5000
gm_pairs = 100

[run]
record_wallclock = false
"""

# 3,125 noisy states of an absorbing chain; the loss runs through posterior().
MARKOV_MASKED = """\
[dataset]
kind = markov_chain
seq_len = 5
vocab = 4
seed = {seed}

[process]
kind = masked
schedule = linear

[model]
n_noise = 8

[teacher]
steps = 400
lr = 1e-2
eval_every = 400
eval_steps = 2

[distill]
k = 2
steps = 200
soft_targets = true
loss_variant = posterior_kl
eval_every = 200
noise_marginal_draws = 2

[eval]
n_samples = 5000
gm_pairs = 100

[run]
record_wallclock = false
"""

WORKLOADS = {
    "bits_masked": {"ini": BITS_MASKED, "n_generator": 20000, "n_teacher": 10000,
                    "sweep": ",".join(str(2 ** i) for i in range(12))},
    "markov_uniform": {"ini": MARKOV_UNIFORM, "n_generator": 10000, "n_teacher": 5000,
                       "sweep": "1,2,4"},
    "markov_masked": {"ini": MARKOV_MASKED, "n_generator": 5000, "n_teacher": 5000,
                      "sweep": "1,2"},
}


def ini_text(workload: str, seed: int) -> str:
    return WORKLOADS[workload]["ini"].format(seed=seed)


def commands(workload: str, ini: str, out: str, seed: int) -> list[tuple[str, list[str]]]:
    """(end-to-end metric, argv) for each CLI call of one pipeline run."""
    w = WORKLOADS[workload]
    common = ["--config", ini, "--seed", str(seed)]
    return [
        ("train_teacher_s", ["train-teacher", *common, "--out", out]),
        ("distill_s", ["distill", *common, "--out", out,
                       "--teacher", os.path.join(out, "teacher.ckpt")]),
        ("sample_s", ["sample", *common, "--out", os.path.join(out, "generator_samples"),
                      "--checkpoint", os.path.join(out, "generator.ckpt"),
                      "--n", str(w["n_generator"])]),
        ("sample_s", ["sample", *common, "--out", os.path.join(out, "teacher_samples"),
                      "--checkpoint", os.path.join(out, "teacher.ckpt"),
                      "--steps", str(TEACHER_SAMPLE_STEPS), "--n", str(w["n_teacher"])]),
        ("eval_s", ["eval", *common, "--out", out,
                    "--checkpoint", os.path.join(out, "generator.ckpt"),
                    "--metrics", EVAL_METRICS]),
        ("eval_s", ["sweep", *common, "--out", out, "--axis", "distill.k",
                    "--values", w["sweep"]]),
    ]
