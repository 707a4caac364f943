"""Config parsing and CLI integration tests (exit codes, artifacts, determinism)."""

import json
import os

import numpy as np
import pytest

from ddlab.cli import main
from ddlab.config import (ConfigError, config_hash, load_config, parse_config,
                          to_text)

BASE_CONFIG = """
[dataset]
kind = correlated_bits
seq_len = 2
vocab = 2

[process]
kind = masked

[model]
emb = 8
hidden = 12
depth = 1
n_noise = 4

[teacher]
steps = 200
eval_every = 100
eval_steps = 4

[distill]
k = 1
steps = 60
eval_every = 30
noise_marginal_draws = 8

[eval]
n_samples = 2000
gm_pairs = 20

[run]
record_wallclock = false
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


def test_parse_round_trip():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.get("dataset", "kind") == "correlated_bits"
    assert cfg.get("teacher", "steps") == 200
    assert cfg.get("run", "record_wallclock") is False
    assert cfg.get("distill", "tau") == 1.0  # default filled in
    again = parse_config(to_text(cfg))
    assert again.values == cfg.values
    assert config_hash(again) == config_hash(cfg)


def test_hash_changes_with_values():
    a = parse_config(BASE_CONFIG)
    b = parse_config(BASE_CONFIG.replace("steps = 200", "steps = 201"))
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


def test_unknown_section_and_field_rejected():
    with pytest.raises(ConfigError, match=r"\[sampler\]"):
        parse_config(BASE_CONFIG + "\n[sampler]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="typo_field"):
        parse_config(BASE_CONFIG + "\ntypo_field = 1\n")


def test_missing_required_field():
    with pytest.raises(ConfigError, match="seq_len"):
        parse_config("[dataset]\nkind = correlated_bits\nvocab = 2\n[process]\nkind = masked\n")


def test_bad_type_names_field():
    with pytest.raises(ConfigError, match=r"\[teacher\] steps"):
        parse_config(BASE_CONFIG.replace("steps = 200", "steps = many"))


def test_factories(config_path):
    cfg = load_config(config_path)
    assert cfg.dataset().kind == "correlated_bits"
    assert cfg.process().masked
    assert cfg.model_config().n_noise == 4
    assert cfg.model_config(n_noise=0).n_noise == 0
    assert cfg.distill_config().k == 1


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nkind = correlated_bits\n")
    assert main(["train-teacher", "--config", str(bad)]) == 2
    assert main(["train-teacher", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_artifact_error_exit_code(config_path, tmp_path):
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b"garbage")
    out = str(tmp_path / "out")
    code = main(["distill", "--config", config_path, "--teacher", str(fake), "--out", out])
    assert code == 3


def test_cli_divergence_exit_code(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "3"]) == 0
    naive = tmp_path / "naive.ini"
    naive.write_text(BASE_CONFIG.replace(
        "k = 1", "k = 1\ntop_p = 0.85\nnaive_topp_mask = true"))
    code = main(["distill", "--config", str(naive), "--teacher",
                 os.path.join(out, "teacher.ckpt"), "--out", out, "--seed", "3"])
    assert code == 4


def test_cli_full_pipeline_and_determinism(config_path, tmp_path):
    # train, distill, sample, eval, sweep; then repeat with the same seed and
    # compare every artifact byte for byte
    def run_all(out):
        assert main(["train-teacher", "--config", config_path, "--out", out,
                     "--seed", "5"]) == 0
        teacher = os.path.join(out, "teacher.ckpt")
        assert main(["distill", "--config", config_path, "--teacher", teacher,
                     "--out", out, "--seed", "5"]) == 0
        gen = os.path.join(out, "generator.ckpt")
        assert main(["sample", "--config", config_path, "--checkpoint", gen,
                     "--out", out, "--seed", "5", "--n", "50"]) == 0
        assert main(["eval", "--config", config_path, "--checkpoint", gen,
                     "--out", out, "--seed", "5",
                     "--metrics", "exact_kl,sample_entropy,gen_output_entropy"]) == 0
        assert main(["sweep", "--config", config_path, "--axis", "distill.k",
                     "--values", "1,2", "--out", out, "--seed", "5"]) == 0

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_all(out_a)
    run_all(out_b)
    names = sorted(os.listdir(out_a))
    assert {"teacher.ckpt", "generator.ckpt", "auxiliary.ckpt", "teacher_log.csv",
            "distill_log.csv", "student_kl_vs_k.csv", "teacher_kl_vs_steps.csv",
            "samples.csv", "eval_report.json", "sweep.csv",
            "distill_state.npz"} <= set(names)
    for name in names:
        if name.endswith(".npz"):
            continue  # zip containers embed timestamps; contents checked below
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"
    with np.load(os.path.join(out_a, "distill_state.npz")) as za, \
            np.load(os.path.join(out_b, "distill_state.npz")) as zb:
        assert sorted(za.files) == sorted(zb.files)
        for key in za.files:
            np.testing.assert_array_equal(za[key], zb[key])


def test_cli_eval_report_contents(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out,
                 "--seed", "6"]) == 0
    teacher = os.path.join(out, "teacher.ckpt")
    assert main(["eval", "--config", config_path, "--checkpoint", teacher,
                 "--out", out, "--seed", "6", "--metrics", "exact_kl", "--steps", "4"]) == 0
    records = [json.loads(line) for line in
               open(os.path.join(out, "eval_report.json"))]
    assert records[0]["metric"] == "exact_kl"
    assert records[0]["seed"] == 6
    assert np.isfinite(records[0]["value"])


def test_cli_unknown_metric_is_config_error(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out]) == 0
    code = main(["eval", "--config", config_path, "--checkpoint",
                 os.path.join(out, "teacher.ckpt"), "--out", out,
                 "--metrics", "fid"])
    assert code == 2


def test_cli_sweep_without_checkpoint(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", config_path, "--axis", "distill.k",
                 "--values", "1,2,4", "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0].startswith("# ddlab-csv v1 config_hash=")
    assert lines[1] == "axis,value,exact_kl"
    kls = [float(line.split(",")[2]) for line in lines[2:]]
    assert kls[0] >= kls[1] >= kls[2]


def test_cli_sweep_bad_axis(config_path, tmp_path):
    assert main(["sweep", "--config", config_path, "--axis", "nope",
                 "--values", "1", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--config", config_path, "--axis", "distill.bogus",
                 "--values", "1", "--out", str(tmp_path)]) == 2


def test_cli_distill_reuses_final_probe(config_path, tmp_path, monkeypatch):
    # the k = [distill] k row of student_kl_vs_k.csv is the last probe's value
    # when that probe saw the final generator, and is computed otherwise
    import ddlab.cli as cli

    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "7"]) == 0
    calls = []
    real = cli.exact_chain_distribution

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_chain_distribution", counting)
    teacher = os.path.join(out, "teacher.ckpt")
    assert main(["distill", "--config", config_path, "--teacher", teacher,
                 "--out", out, "--seed", "7"]) == 0
    # probes at steps 0, 30, 59; then teacher k = 1, 2, 4 and student k = 2, 4
    assert len(calls) == 3 + 3 + 2
    table = open(os.path.join(out, "student_kl_vs_k.csv"), "rb").read()

    cfg = load_config(config_path)
    gen, _ = cli.model_from_checkpoint(os.path.join(out, "generator.ckpt"))
    fresh = cli._student_chain_kl(gen, cfg.dataset(), cfg.process(), 1, 8, 7)
    assert table.decode().splitlines()[2].split(",")[1] == f"{fresh:.10g}"

    # resumed at the last step: no probe runs, so the table computes every row
    calls.clear()
    resumed = str(tmp_path / "resumed")
    assert main(["distill", "--config", config_path, "--teacher", teacher, "--out", resumed,
                 "--seed", "7", "--resume", os.path.join(out, "distill_state.npz")]) == 0
    assert len(calls) == 3 + 3
    assert open(os.path.join(resumed, "student_kl_vs_k.csv"), "rb").read() == table


@pytest.mark.parametrize("old, new", [
    ("kind = masked", "kind = maskd"),
    ("kind = masked", "kind = masked\nschedule = cosin"),
    ("k = 1", "k = 1\ntau = 2.0"),
    ("n_noise = 4", "n_noise = 4\ntime_width = 3"),
    ("eval_steps = 4", "eval_steps = 4\nweighting = foo"),
    ("k = 1", "k = 1\nweighting = foo"),
])
def test_cli_bad_value_is_config_error(tmp_path, old, new):
    # every value is checked at parse time, before any training
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace(old, new, 1))
    out = tmp_path / "out"
    assert main(["train-teacher", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "teacher.ckpt").exists()


def test_cli_sweep_bad_value_is_config_error(config_path, tmp_path):
    assert main(["sweep", "--config", config_path, "--axis", "distill.tau",
                 "--values", "1.0,2.0", "--out", str(tmp_path)]) == 2


def _train_and_distill(config_path, out, seed):
    assert main(["train-teacher", "--config", config_path, "--out", out,
                 "--seed", str(seed)]) == 0
    assert main(["distill", "--config", config_path, "--teacher",
                 os.path.join(out, "teacher.ckpt"), "--out", out, "--seed", str(seed)]) == 0


def test_cli_generator_as_teacher_is_artifact_error(config_path, tmp_path):
    out = str(tmp_path / "out")
    _train_and_distill(config_path, out, 2)
    code = main(["distill", "--config", config_path, "--teacher",
                 os.path.join(out, "generator.ckpt"), "--out", out, "--seed", "2"])
    assert code == 3


def test_cli_bad_resume_is_artifact_error(config_path, tmp_path):
    # a resume file that is not a state of these models
    out = str(tmp_path / "out")
    _train_and_distill(config_path, out, 2)
    garbage = tmp_path / "garbage.npz"
    garbage.write_text("not a state file\n")
    npy = tmp_path / "plain.npy"
    np.save(npy, np.zeros(3))
    with np.load(os.path.join(out, "distill_state.npz")) as z:
        state = {k: z[k] for k in z.files}
    state["gen_m"] = state["gen_m"][:-1]
    truncated = tmp_path / "truncated.npz"
    np.savez(truncated, **state)
    for bad in (garbage, npy, truncated, tmp_path / "missing.npz"):
        code = main(["distill", "--config", config_path, "--teacher",
                     os.path.join(out, "teacher.ckpt"), "--out", out, "--seed", "2",
                     "--resume", str(bad)])
        assert code == 3, bad


def test_cli_resumed_run_logs_final_row(tmp_path):
    # 3 steps, then resume to 6: the last log row is the full 6-step run's row for step 5
    def config(steps):
        path = tmp_path / f"steps{steps}.ini"
        path.write_text(BASE_CONFIG.replace("steps = 60", f"steps = {steps}"))
        return str(path)

    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config(6), "--out", out, "--seed", "4"]) == 0
    teacher = os.path.join(out, "teacher.ckpt")
    full, part, resumed = (str(tmp_path / name) for name in ("full", "part", "resumed"))
    assert main(["distill", "--config", config(6), "--teacher", teacher,
                 "--out", full, "--seed", "4"]) == 0
    assert main(["distill", "--config", config(3), "--teacher", teacher,
                 "--out", part, "--seed", "4"]) == 0
    assert main(["distill", "--config", config(6), "--teacher", teacher, "--out", resumed,
                 "--seed", "4", "--resume", os.path.join(part, "distill_state.npz")]) == 0
    full_rows = open(os.path.join(full, "distill_log.csv")).read().splitlines()
    resumed_rows = open(os.path.join(resumed, "distill_log.csv")).read().splitlines()
    assert full_rows[-1].startswith("5,")
    assert resumed_rows[2:] == [full_rows[-1]]
