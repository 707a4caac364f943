"""Config parsing and CLI integration tests (exit codes, artifacts, determinism)."""

import csv
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddlab.autodiff import AdamState, adam_step
from ddlab.cli import Context, _model_sampler, main
from ddlab.config import (SCHEMA, ConfigError, config_hash, load_config, parse_config,
                          to_text)
from ddlab.distill import DistillDivergence, Distiller, teacher_logits
from ddlab.metrics import KNOWN_METRICS
from ddlab.nets import Denoiser, ModelError, load_checkpoint, save_checkpoint
from ddlab.numerics import NumericsError, RngState, softmax
from ddlab.process import ProcessError, ancestral_sample
from ddlab.teacher import teacher_step

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
        "k = 1", "k = 1\ntop_p = 0.85\ndelta = 1e20"))
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
    # --metrics is checked against [eval] as the config's own list is
    few = tmp_path / "few.ini"
    few.write_text(BASE_CONFIG.replace("n_samples = 2000", "n_samples = 500\nmetrics = exact_kl"))
    code = main(["eval", "--config", str(few), "--checkpoint",
                 os.path.join(out, "teacher.ckpt"), "--out", out,
                 "--metrics", "sample_entropy"])
    assert code == 2
    # a metric named twice, in --metrics or in [eval] metrics
    for metrics in ("gm,gm", "exact_kl, sample_entropy,exact_kl"):
        assert main(["eval", "--config", config_path, "--checkpoint",
                     os.path.join(out, "teacher.ckpt"), "--out", out,
                     "--metrics", metrics]) == 2, metrics
    twice = tmp_path / "twice.ini"
    twice.write_text(BASE_CONFIG.replace("n_samples = 2000", "n_samples = 2000\nmetrics = gm,gm"))
    assert main(["eval", "--config", str(twice), "--checkpoint",
                 os.path.join(out, "teacher.ckpt"), "--out", out]) == 2


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
    # the last probe (step_index == [distill] steps) measures the final
    # generator at every k of student_kl_vs_k.csv in one pass, and the table
    # reads it; without such a probe in the process, the table makes that pass
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
    # probes at steps 0 and 30, the last probe's pass at k = 1, 2, 4, the teacher's pass
    assert calls == [1, 1, (1, 2, 4), (1, 2, 4)]
    table = open(os.path.join(out, "student_kl_vs_k.csv"), "rb").read()

    cfg = load_config(config_path)
    gen, _ = cli.model_from_checkpoint(os.path.join(out, "generator.ckpt"))
    fresh = cli._student_chain_kl(gen, cli.Context(cfg, 7, out, cfg.dataset(), cfg.process()), 1)
    assert table.decode().splitlines()[2].split(",")[1] == f"{fresh:.10g}"

    # resumed at the last step: no probe runs, so the table makes the
    # student's pass and the teacher's
    def resume(state, name):
        calls.clear()
        resumed = str(tmp_path / name)
        assert main(["distill", "--config", config_path, "--teacher", teacher,
                     "--out", resumed, "--seed", "7", "--resume", state]) == 0
        assert open(os.path.join(resumed, "student_kl_vs_k.csv"), "rb").read() == table
        return open(os.path.join(resumed, "distill_log.csv"), "rb").read()

    state = os.path.join(out, "distill_state.npz")
    log = resume(state, "resumed")
    assert calls == [(1, 2, 4), (1, 2, 4)]
    assert log == open(os.path.join(out, "distill_log.csv"), "rb").read()

    # a state file without the log arrays resumes with an empty log; the
    # table makes the same two passes
    with np.load(state) as z:
        old_state = {key: z[key] for key in z.files if not key.startswith("log_")}
    np.savez(tmp_path / "old_state.npz", **old_state)
    log = resume(str(tmp_path / "old_state.npz"), "resumed_old")
    assert calls == [(1, 2, 4), (1, 2, 4)]
    assert len(log.splitlines()) == 2  # the version line and the header


@pytest.mark.parametrize("old, new", [
    ("kind = masked", "kind = maskd"),
    ("kind = masked", "kind = masked\nschedule = cosin"),
    ("k = 1", "k = 1\ntau = 2.0"),
    ("n_noise = 4", "n_noise = 4\ntime_width = 3"),
    ("eval_steps = 4", "eval_steps = 4\nweighting = foo"),
    ("k = 1", "k = 1\nweighting = foo"),
    ("gm_pairs = 20", "gm_pairs = 20\nmetrics = exact_kl,fid"),
])
def test_cli_bad_value_is_config_error(tmp_path, old, new):
    # every value is checked at parse time, before any training
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace(old, new, 1))
    out = tmp_path / "out"
    assert main(["train-teacher", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "teacher.ckpt").exists()


@pytest.mark.parametrize("old, new", [
    ("steps = 200", "steps = 200\nbatch = 0"),
    ("eval_every = 100", "eval_every = 0"),
    ("eval_steps = 4", "eval_steps = 0"),
    ("steps = 60", "steps = 60\nbatch = 0"),
    ("eval_every = 30", "eval_every = 0"),
    ("noise_marginal_draws = 8", "noise_marginal_draws = 0"),
    ("k = 1", "k = 1\nds = 0.0"),
    ("k = 1", "k = 1\nds = -0.01"),
    ("k = 1", "k = 1\nds = 1.5"),
    ("n_noise = 4", "n_noise = -1"),
    ("gm_pairs = 20", "gm_pairs = 20\nsteps = 0"),
    ("n_samples = 2000", "n_samples = 0"),
    ("gm_pairs = 20", "gm_pairs = 0"),
    ("gm_pairs = 20", "gm_pairs = 20\ngm_batch = 0"),
    ("n_samples = 2000", "n_samples = 500"),  # sample_entropy is a default metric
    ("vocab = 2", "vocab = 0"),
    ("seq_len = 2", "seq_len = 0"),
    ("steps = 200", "steps = 200\nlr = nan"),
    ("steps = 200", "steps = 200\nlr = -1e-3"),
    ("steps = 60", "steps = 60\ngen_lr = inf"),
    ("steps = 60", "steps = 60\naux_lr = nan"),
    ("k = 1", "k = 1\ndelta = nan"),
    ("k = 1", "k = 1\ndelta = inf"),
    ("steps = 200", "steps = -5"),
    ("steps = 60", "steps = -3"),
])
def test_cli_out_of_range_value_is_config_error(tmp_path, old, new):
    # counts, widths, ds, rates and delta that would fail later (or, for n_noise,
    # pass silently)
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace(old, new, 1))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    out = tmp_path / "out"
    assert main(["train-teacher", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "teacher.ckpt").exists()


def test_cli_process_error_exit_code(config_path, tmp_path, monkeypatch):
    # a posterior underflow during distillation is a numerical failure: exit 4
    import ddlab.distill as distill
    from ddlab.process import ProcessError

    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "3"]) == 0

    def underflow(*args, **kwargs):
        raise ProcessError("posterior denominator underflow: inconsistent (x, z_t) pair")

    monkeypatch.setattr(distill, "posterior_sample", underflow)
    code = main(["distill", "--config", config_path, "--teacher",
                 os.path.join(out, "teacher.ckpt"), "--out", out, "--seed", "3"])
    assert code == 4
    assert not os.path.exists(os.path.join(out, "generator.ckpt"))


def test_cli_zero_sampling_steps_is_config_error(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "3"]) == 0
    assert main(["sample", "--config", config_path, "--checkpoint",
                 os.path.join(out, "teacher.ckpt"), "--out", out, "--steps", "0"]) == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_cli_nonpositive_sample_count_is_config_error(config_path, tmp_path, n):
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "3"]) == 0
    assert main(["sample", "--config", config_path, "--checkpoint",
                 os.path.join(out, "teacher.ckpt"), "--out", out, "--n", n]) == 2
    assert not os.path.exists(os.path.join(out, "samples.csv"))


def test_cli_soft_targets_with_uniform_process_is_config_error(tmp_path):
    # rejected at parse time, not by the distiller after the teacher has trained
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace("kind = masked", "kind = uniform")
                   .replace("k = 1", "k = 1\nsoft_targets = true"))
    with pytest.raises(ConfigError, match="soft_targets"):
        load_config(str(bad))
    out = tmp_path / "out"
    assert main(["train-teacher", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "teacher.ckpt").exists()


@pytest.mark.parametrize("seq_len", [10, 15])
def test_cli_beyond_enumeration_guard(tmp_path, seq_len):
    # masked K=2: 2^10 sequences but 3^10 noisy states for the DP; at D=15 both exceed
    # the guard. Training and distilling log NaN probes and skip the KL tables; the
    # metrics that need enumeration exit 2
    path = tmp_path / "big.ini"
    path.write_text(BASE_CONFIG.replace("seq_len = 2", f"seq_len = {seq_len}")
                    .replace("steps = 200", "steps = 3").replace("steps = 60", "steps = 4"))
    cfg, out = str(path), str(tmp_path / "out")
    assert main(["train-teacher", "--config", cfg, "--out", out]) == 0
    teacher = os.path.join(out, "teacher.ckpt")
    assert main(["distill", "--config", cfg, "--out", out, "--teacher", teacher]) == 0
    for log in ("teacher_log.csv", "distill_log.csv"):
        lines = open(os.path.join(out, log)).read().splitlines()[1:]  # past the version line
        assert {row["eval_kl"] for row in csv.DictReader(lines)} == {"nan"}, log
    assert not os.path.exists(os.path.join(out, "teacher_kl_vs_steps.csv"))
    assert not os.path.exists(os.path.join(out, "student_kl_vs_k.csv"))

    def run_eval(metrics):
        return main(["eval", "--config", cfg, "--out", out, "--checkpoint", teacher,
                     "--metrics", metrics, "--steps", "2"])

    assert run_eval("exact_kl") == 2
    assert run_eval("gm") == (0 if seq_len == 10 else 2)
    assert run_eval("sample_entropy,gen_output_entropy") == 0
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "distill.k",
                 "--values", "1"]) == 2
    assert main(["sweep", "--config", cfg, "--out", out, "--axis", "distill.k",
                 "--values", "1", "--checkpoint", os.path.join(out, "generator.ckpt")]) == 2


def test_cli_pins_malloc_thresholds():
    # after the pin, a 24 MiB block comes from the heap rather than from mmap
    import ctypes

    import ddlab.cli as cli

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("mallinfo2 is glibc's")

    class MallInfo(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]

    libc.mallinfo2.restype = MallInfo
    cli._pin_malloc_thresholds()
    before = libc.mallinfo2().hblkhd
    block = np.empty(3 * 2 ** 20)
    assert libc.mallinfo2().hblkhd == before
    del block
    # and a second thread allocates from the main arena: glibc's malloc_info
    # lists one heap per arena (a fresh process, so that no earlier thread
    # has made an arena yet)
    assert [_malloc_heaps_after_a_thread(pin) for pin in (False, True)] == [2, 1]


_HEAPS_SCRIPT = """\
import ctypes, os, sys, tempfile, threading
import ddlab.cli
if sys.argv[1] == "pin":
    ddlab.cli._pin_malloc_thresholds()
thread = threading.Thread(target=lambda: bytearray(2 ** 16))
thread.start()
thread.join()
libc = ctypes.CDLL(None)
libc.fdopen.restype = ctypes.c_void_p
libc.fdopen.argtypes = [ctypes.c_int, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
libc.malloc_info.restype = libc.fclose.restype = ctypes.c_int
with tempfile.TemporaryFile() as fh:
    stream = libc.fdopen(os.dup(fh.fileno()), b"w")
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    fh.seek(0)
    print(fh.read().count(b"<heap nr="))
"""


def _malloc_heaps_after_a_thread(pin: bool) -> int:
    import subprocess
    import sys

    import ddlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(ddlab.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HEAPS_SCRIPT, "pin" if pin else "plain"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout)


def _random_model(cfg, n_noise, seed):
    # an untrained model with a random head, so its samples are not all alike
    model = Denoiser(cfg.model_config(n_noise=n_noise), RngState(seed))
    head = model.store.arrays()["head_w"]
    head[:] = RngState(seed).child(1).normal(head.shape)
    return model


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dataset, kind, n", [
    ("correlated_bits\nseq_len = 2\nvocab = 2", "masked", 10_000),
    ("markov_chain\nseq_len = 5\nvocab = 4", "uniform", 5_000)],
    ids=["masked_bits", "uniform_markov"])
def test_teacher_sampler_forwards_each_distinct_row_once(monkeypatch, dataset, kind, n, seed):
    cfg = parse_config(f"[dataset]\nkind = {dataset}\n[process]\nkind = {kind}\n"
                       "[distill]\ntau = 0.8\ntop_p = 0.9\n")
    teacher = _random_model(cfg, 0, seed)
    process, D = cfg.process(), cfg.get("dataset", "seq_len")
    logits = teacher_logits(teacher, cfg.distill_config())

    def plain(z, t):
        return softmax(logits(z, t))

    want = ancestral_sample(plain, process, 16, RngState(seed).child(4), n, D)
    rows = []
    forward = Denoiser.forward

    def counted(self, z, *args, **kwargs):
        rows.append(len(z))
        return forward(self, z, *args, **kwargs)

    monkeypatch.setattr(Denoiser, "forward", counted)
    ctx = Context(cfg, seed, "unused", cfg.dataset(), process)
    got = _model_sampler(teacher, False, ctx, 16)(n, RngState(seed).child(4))
    np.testing.assert_array_equal(got, want)
    assert len(rows) == 16
    assert max(rows) <= min(n, process.vocab_eff ** D), rows


@pytest.mark.parametrize("n, big", [(13, 515), (999, 1003)])
@pytest.mark.parametrize("kind", ["masked", "uniform"])
@pytest.mark.parametrize("n_noise, generator", [(4, True), (0, True), (0, False)],
                         ids=["generator", "noise_free_generator", "teacher"])
def test_model_sampler_rows_are_a_prefix(kind, n_noise, generator, n, big):
    # a sampler's first n rows do not depend on how many rows it draws: eval's
    # sampled metrics read prefixes of one pool on this property
    cfg = parse_config(f"[dataset]\nkind = markov_chain\nseq_len = 3\nvocab = 3\n"
                       f"[process]\nkind = {kind}\n[distill]\ntau = 0.8\ntop_p = 0.9\n")
    model = _random_model(cfg, n_noise, 5)
    ctx = Context(cfg, 0, "unused", cfg.dataset(), cfg.process())
    sampler = _model_sampler(model, generator, ctx, 3)
    few, many = sampler(n, RngState(5).child(3)), sampler(big, RngState(5).child(3))
    assert len(np.unique(many, axis=0)) > 1
    np.testing.assert_array_equal(few, many[:n])


@pytest.fixture
def generator_path(config_path, tmp_path):
    path = str(tmp_path / "generator.ckpt")
    gen = _random_model(load_config(config_path), 4, 9)
    save_checkpoint(path, gen.config, gen.store, extra={"role": "generator"})
    return path


SAMPLED = ("sample_entropy", "gm", "generative_perplexity")


@pytest.mark.parametrize("n_samples, rows_per_call, gm_rows_per_call", [
    (2000, 2 ** 15, 2 ** 15), (2000, 1000, 700), (3000, 1000, 2 ** 15)])
def test_cli_eval_sampled_metrics_read_one_pool(config_path, generator_path, tmp_path,
                                                monkeypatch, n_samples, rows_per_call,
                                                gm_rows_per_call):
    # one eval draws the pool in calls of at most rows_per_call rows, once; gm's
    # generator side reads the pool's first rows, in whatever reads gm makes
    # (gm_rows_per_call sets those); each sampled metric's record is the one it
    # gets alone; and with one call, sample_entropy is that of one sampler call
    import ddlab.cli as cli
    import ddlab.metrics as metrics

    path = tmp_path / "pool.ini"
    path.write_text(BASE_CONFIG.replace("n_samples = 2000", f"n_samples = {n_samples}"))
    monkeypatch.setattr(cli, "GM_ROWS_PER_CALL", rows_per_call)
    monkeypatch.setattr(metrics, "GM_ROWS_PER_CALL", gm_rows_per_call)
    calls, gm_rows = [], []

    def counted(predict, process, steps, rng, batch, seq_len):
        calls.append(batch)
        return ancestral_sample(predict, process, steps, rng, batch, seq_len)

    def recorded(ref, gen_sampler, *args):
        def read(n, rng):
            gm_rows.append(gen_sampler(n, rng))
            return gm_rows[-1]
        return metrics.gradient_moment(ref, read, *args)

    monkeypatch.setattr(cli, "ancestral_sample", counted)
    monkeypatch.setattr(cli, "gradient_moment", recorded)

    def records(names):
        out = tmp_path / names.replace(",", "_")
        assert main(["eval", "--config", str(path), "--checkpoint", generator_path,
                     "--out", str(out), "--seed", "2", "--metrics", names]) == 0
        with open(out / "eval_report.json") as fh:
            return {rec["metric"]: rec for rec in map(json.loads, fh)}

    every = records("exact_kl," + ",".join(SAMPLED))
    n_gm, n_pool = 2 * 20 * 64, max(n_samples, 2 * 20 * 64)
    assert calls == [min(rows_per_call, n_pool - lo) for lo in range(0, n_pool, rows_per_call)]
    cfg = load_config(str(path))
    model, generator = cli._load_compatible(generator_path, cfg)
    sampler = _model_sampler(model, generator,
                             Context(cfg, 2, "unused", cfg.dataset(), cfg.process()), 1)
    rng = RngState(2).child(3).child(3)
    pool = np.concatenate([sampler(min(rows_per_call, n_pool - lo), rng)
                           for lo in range(0, n_pool, rows_per_call)])
    assert len(gm_rows) == -(-20 // (gm_rows_per_call // (2 * 64)))  # pairs per read
    np.testing.assert_array_equal(np.concatenate(gm_rows), pool[:n_gm])
    for name in SAMPLED:
        assert records(name) == {name: every[name]}
    if rows_per_call >= n_pool:
        want = metrics.sample_entropy(sampler(n_samples, RngState(2).child(3).child(3)))
        assert every["sample_entropy"]["value"] == want


def test_cli_samples_csv_golden_bytes(config_path, tmp_path, monkeypatch):
    import ddlab.cli as cli

    samples = np.array([[1, 0], [0, 0], [1, 1]])
    monkeypatch.setattr(cli, "_load_compatible", lambda path, cfg: (None, False))
    monkeypatch.setattr(cli, "_model_sampler",
                        lambda model, generator, ctx, steps: lambda n, rng: samples[:n])
    out = str(tmp_path / "out")
    assert main(["sample", "--config", config_path, "--checkpoint", "unused.ckpt",
                 "--out", out, "--seed", "7", "--n", "3", "--steps", "1"]) == 0
    chash = config_hash(load_config(config_path))
    with open(os.path.join(out, "samples.csv"), "rb") as fh:
        assert fh.read() == (f"# ddlab-csv v1 config_hash={chash} seed=7\n"
                             "pos0,pos1\r\n1,0\r\n0,0\r\n1,1\r\n").encode()


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


# a generator without input noise, distilled under logit surgery
NOISE_FREE_CONFIG = BASE_CONFIG.replace("n_noise = 4", "n_noise = 0").replace(
    "k = 1", "k = 1\ntau = 0.5")


@pytest.fixture
def noise_free_path(tmp_path):
    path = tmp_path / "noise_free.ini"
    path.write_text(NOISE_FREE_CONFIG)
    return str(path)


def test_cli_noise_free_generator_as_teacher_is_artifact_error(noise_free_path, tmp_path):
    # the recorded role, not the noise width, tells a generator from a teacher
    out = str(tmp_path / "out")
    _train_and_distill(noise_free_path, out, 2)
    code = main(["distill", "--config", noise_free_path, "--teacher",
                 os.path.join(out, "generator.ckpt"), "--out", out, "--seed", "2"])
    assert code == 3


def test_cli_noise_free_generator_evaluates_its_k_step_chain(noise_free_path, tmp_path):
    # eval and sweep --checkpoint run a generator for [distill] k steps without
    # surgery: their exact KL is student_kl_vs_k.csv's row at that k
    out = str(tmp_path / "out")
    _train_and_distill(noise_free_path, out, 0)
    with open(os.path.join(out, "student_kl_vs_k.csv")) as fh:
        table = {row["k"]: row["student_kl"] for row in csv.DictReader(fh.readlines()[1:])}
    ckpt = os.path.join(out, "generator.ckpt")
    assert main(["eval", "--config", noise_free_path, "--checkpoint", ckpt, "--out", out,
                 "--seed", "0", "--metrics", "exact_kl"]) == 0
    with open(os.path.join(out, "eval_report.json")) as fh:
        rec = json.loads(fh.readline())
    assert rec["steps"] == 1
    assert f"{rec['value']:.10g}" == table["1"]
    assert main(["sweep", "--config", noise_free_path, "--checkpoint", ckpt, "--out", out,
                 "--seed", "0", "--axis", "distill.k", "--values", "1,2"]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        swept = {row["value"]: row["exact_kl"] for row in csv.DictReader(fh.readlines()[1:])}
    assert swept == {"1": table["1"], "2": table["2"]}


def test_cli_auxiliary_as_teacher_is_artifact_error(config_path, tmp_path):
    # a teacher is recorded as one, or has no recorded role and no input noise;
    # sample still runs an auxiliary checkpoint as a teacher
    cfg = load_config(config_path)
    ckpt = str(tmp_path / "auxiliary.ckpt")
    aux = Denoiser(cfg.model_config(n_noise=0), RngState(0))
    save_checkpoint(ckpt, aux.config, aux.store, extra={"role": "auxiliary"})
    common = ["--config", config_path, "--out", str(tmp_path), "--seed", "0"]
    assert main(["distill", *common, "--teacher", ckpt]) == 3
    assert main(["sample", *common, "--checkpoint", ckpt, "--n", "5"]) == 0


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
    np.savez(tmp_path / "short_log.npz", **{**state, "log_loss": state["log_loss"][:-1]})
    state["gen_m"] = state["gen_m"][:-1]
    truncated = tmp_path / "truncated.npz"
    np.savez(truncated, **state)
    for bad in (garbage, npy, truncated, tmp_path / "short_log.npz", tmp_path / "missing.npz"):
        code = main(["distill", "--config", config_path, "--teacher",
                     os.path.join(out, "teacher.ckpt"), "--out", out, "--seed", "2",
                     "--resume", str(bad)])
        assert code == 3, bad


def test_cli_resumed_run_logs_final_row(tmp_path):
    # 3 steps, then resume to 6: the log is the full 6-step run's, byte for byte
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
    full_log = open(os.path.join(full, "distill_log.csv"), "rb").read()
    assert full_log.splitlines()[-1].startswith(b"5,")
    assert open(os.path.join(resumed, "distill_log.csv"), "rb").read() == full_log


def test_cli_resume_under_another_config_is_artifact_error(tmp_path):
    # the state records the sections distill reads, [distill] steps aside: a
    # changed gen_lr exits 3, and a state written without that record resumes
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.replace("steps = 60", "steps = 4"))
    other = tmp_path / "other.ini"
    other.write_text(BASE_CONFIG.replace("steps = 60", "steps = 8\ngen_lr = 2e-3"))
    out = str(tmp_path / "out")
    _train_and_distill(str(path), out, 3)
    state = os.path.join(out, "distill_state.npz")
    with np.load(state) as z:
        fields = {k: z[k] for k in z.files}
    assert "config_key" in fields
    teacher = os.path.join(out, "teacher.ckpt")

    def resume(config, state_path):
        return main(["distill", "--config", config, "--teacher", teacher, "--seed", "3",
                     "--out", str(tmp_path / "resumed"), "--resume", str(state_path)])

    assert resume(str(other), state) == 3
    del fields["config_key"]
    unkeyed = tmp_path / "unkeyed.npz"
    np.savez(unkeyed, **fields)
    assert resume(str(other), unkeyed) == 0


def test_cli_resume_under_another_seed_is_artifact_error(tmp_path):
    # the state's RNG seed is the run's --seed: a resume under another exits 3,
    # one under the same seed still runs
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.replace("steps = 60", "steps = 3"))
    longer = tmp_path / "longer.ini"
    longer.write_text(BASE_CONFIG.replace("steps = 60", "steps = 6"))
    out = str(tmp_path / "out")
    _train_and_distill(str(path), out, 4)

    def resume(seed):
        return main(["distill", "--config", str(longer), "--teacher",
                     os.path.join(out, "teacher.ckpt"), "--seed", str(seed),
                     "--out", str(tmp_path / f"resumed{seed}"),
                     "--resume", os.path.join(out, "distill_state.npz")])

    assert resume(5) == 3
    assert not os.path.exists(tmp_path / "resumed5" / "generator.ckpt")
    assert resume(4) == 0


def test_cli_checkpoint_header_without_config_field_is_artifact_error(config_path, tmp_path):
    cfg = load_config(config_path)
    teacher = Denoiser(cfg.model_config(n_noise=0), RngState(0))
    ckpt = tmp_path / "teacher.ckpt"
    save_checkpoint(str(ckpt), teacher.config, teacher.store, extra={"role": "teacher"})
    ckpt.write_bytes(b"".join(line for line in ckpt.read_bytes().splitlines(keepends=True)
                              if not line.startswith(b"config.emb = ")))
    with pytest.raises(ModelError, match="config.emb"):
        load_checkpoint(str(ckpt))
    assert main(["sample", "--config", config_path, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path), "--n", "5"]) == 3


def test_cli_teacher_kl_is_one_chain_across_commands(tmp_path):
    # distill's teacher column reads the same surgery as train-teacher's table
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.replace("steps = 60", "steps = 2\ntau = 0.7\ntop_p = 0.8"))
    out = str(tmp_path / "out")
    _train_and_distill(str(path), out, 1)

    def table(name, key, value):
        with open(os.path.join(out, name)) as fh:
            return {row[key]: row[value] for row in csv.DictReader(fh.readlines()[1:])}

    steps = table("teacher_kl_vs_steps.csv", "steps", "kl")
    column = table("student_kl_vs_k.csv", "k", "teacher_kl")
    assert sorted(column) == ["1", "2", "4"]
    assert column == {k: steps[k] for k in column}


@pytest.mark.parametrize("surgery, eval_steps", [("", 4), ("", 3), ("tau = 0.7\n", 4)],
                         ids=["plain", "eval_steps_off_the_table", "tau"])
def test_cli_train_teacher_last_probe_shares_the_table_pass(tmp_path, monkeypatch, surgery,
                                                             eval_steps):
    # the log's last probe (step 199) reads the KL table's pass, unless the
    # surgery makes the table's teacher another distribution than the model
    # that the log probes
    import ddlab.cli as cli
    import ddlab.metrics as metrics
    from ddlab.nets import model_from_checkpoint
    from ddlab.teacher import _eval_kl

    chain, passes = metrics.exact_chain_distribution, []

    def counted(predict, process, k, *args, **kwargs):
        passes.append(k)
        return chain(predict, process, k, *args, **kwargs)

    monkeypatch.setattr(metrics, "exact_chain_distribution", counted)
    monkeypatch.setattr(cli, "exact_chain_distribution", counted)
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.replace("eval_steps = 4", f"eval_steps = {eval_steps}")
                    .replace("[distill]\n", "[distill]\n" + surgery))
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", str(path), "--out", out]) == 0
    table = (1, 2, 4, 8, 16)
    if surgery:
        assert passes == [eval_steps] * 3 + [table]
    else:
        assert passes == [eval_steps] * 2 + [tuple(sorted({*table, eval_steps}))]

    def rows(name):
        with open(os.path.join(out, name)) as fh:
            return list(csv.DictReader(fh.readlines()[1:]))

    log, kls = rows("teacher_log.csv"), rows("teacher_kl_vs_steps.csv")
    assert [row["steps"] for row in kls] == [str(n) for n in table]
    assert log[-1]["step"] == "199"
    cfg = load_config(str(path))
    model, _ = model_from_checkpoint(os.path.join(out, "teacher.ckpt"))
    own = _eval_kl(model, cfg.dataset(), cfg.process(), eval_steps)
    assert float(log[-1]["eval_kl"]) == pytest.approx(own, rel=1e-9)
    if not surgery and eval_steps == 4:
        assert log[-1]["eval_kl"] == kls[2]["kl"]


FIELDS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
JUNK_VALUE = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "-1e400", "", "true", "0x10", "1_0", "%", "%(kind)s"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)
# the valid choices of the string and bool fields, so that cross-field
# combinations of valid values come up too
CHOICES = {
    ("dataset", "kind"): st.sampled_from(["correlated_bits", "mode_mixture", "markov_chain"]),
    ("process", "kind"): st.sampled_from(["masked", "uniform"]),
    ("process", "schedule"): st.sampled_from(["linear", "cosine"]),
    ("teacher", "weighting"): st.sampled_from(["unit", "mdlm"]),
    ("distill", "weighting"): st.sampled_from(["unit", "mdlm"]),
    ("distill", "loss_variant"): st.sampled_from(["cross_entropy", "posterior_kl"]),
    ("eval", "metrics"): st.lists(st.sampled_from(KNOWN_METRICS), min_size=1, max_size=3,
                                  unique=True).map(",".join),
    **{(section, key): st.sampled_from(["true", "false"])
       for section, keys in SCHEMA.items() for key, (typ, _) in keys.items() if typ is bool},
}
# valid choices in up to four string and bool fields with small ints in up to
# two more, or junk in up to four fields
CHOICE = st.sampled_from(sorted(CHOICES)).flatmap(lambda f: st.tuples(st.just(f), CHOICES[f]))
OVERRIDES = st.one_of(
    st.builds(lambda valid, ints: {**valid, **ints},
              st.lists(CHOICE, min_size=1, max_size=4).map(dict),
              st.dictionaries(st.sampled_from(FIELDS), st.integers(-2, 64).map(str),
                              max_size=2)),
    st.dictionaries(st.sampled_from(FIELDS), JUNK_VALUE, min_size=1, max_size=4))
# the distill step builds a per-example posterior table of batch * (K+1)^2 * K
# floats; at K = 64 that is 138 MB (~300 MB peak), so larger configs only parse
STEP_TABLE_BYTES = 16 * 2 ** 20


def _first_steps(cfg) -> None:
    """What train-teacher and distill build, and their first updates: one
    teacher step and one step of each distill phase."""
    dataset, process, tcfg, dcfg = (cfg.dataset(), cfg.process(), cfg.teacher_config(),
                                    cfg.distill_config())
    if dcfg.batch * process.vocab_eff ** 2 * process.vocab * 8 > STEP_TABLE_BYTES:
        return
    teacher = Denoiser(cfg.model_config(n_noise=0), RngState(0))
    rng = RngState(1)
    try:
        teacher_step(teacher, dataset.sample(tcfg.batch, rng), process, rng, tcfg.weighting)
        adam_step(teacher.store, AdamState.for_store(teacher.store), lr=tcfg.lr)
        dist = Distiller(teacher, teacher_logits(teacher, dcfg), dataset, process, dcfg,
                         RngState(2), n_noise=cfg.get("model", "n_noise"))
        assert [dist.step()[0] for _ in range(2)] == ["gen", "aux"]
    except (DistillDivergence, NumericsError, ProcessError):
        pass  # a numerical divergence, which the CLI maps to exit 4


@settings(max_examples=300, deadline=None)
@given(OVERRIDES)
@example({("dataset", "vocab"): "0"})
@example({("run", "out_dir"): "50%"})
@example({("process", "kind"): "uniform", ("distill", "soft_targets"): "true"})
def test_parse_config_accepts_or_raises_config_error(overrides):
    # any value in any field: parsing returns a config or raises ConfigError,
    # which the CLI maps to exit 2, and a config that parses runs its first
    # steps; never another exception. Ints stay <= 64, so the dataset arrays
    # that parsing builds stay small
    sections = {section: {} for section in SCHEMA}
    sections["dataset"].update(kind="correlated_bits", seq_len="2", vocab="2")
    sections["process"]["kind"] = "masked"
    for (section, key), raw in overrides.items():
        sections[section][key] = raw
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    _first_steps(cfg)


MARKOV_CONFIG = """
[dataset]
kind = markov_chain
seq_len = 3
vocab = 3

[process]
kind = masked

[distill]
k = 2

[run]
record_wallclock = false
"""


def _sweep_rows(config, out, *args):
    assert main(["sweep", "--config", config, "--out", out, *args]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]
    return list(csv.DictReader(lines))


@pytest.mark.parametrize("axis, values", [("process.kind", ["masked", "uniform"]),
                                          ("dataset.seq_len", ["2", "3"]),
                                          ("dataset.seed", ["0", "1"])])
def test_cli_sweep_point_is_its_own_config(tmp_path, axis, values):
    # each point builds its own dataset and process: its row is the one-point
    # sweep of the config with that value written in
    base = tmp_path / "base.ini"
    base.write_text(MARKOV_CONFIG)
    rows = _sweep_rows(str(base), str(tmp_path / "sweep"), "--axis", axis,
                       "--values", ",".join(values))
    section, key = axis.split(".")
    kls = []
    for value, row in zip(values, rows):
        point = load_config(str(base))
        point.set(section, key, value)
        path = tmp_path / f"point_{value}.ini"
        path.write_text(to_text(point))
        alone = _sweep_rows(str(path), str(tmp_path / f"alone_{value}"), "--axis", "distill.k",
                            "--values", "2")
        assert row["exact_kl"] == alone[0]["exact_kl"], (axis, value)
        kls.append(row["exact_kl"])
    assert kls[0] != kls[1]


def test_cli_sweep_point_past_guard_exits_2(tmp_path):
    # masked K=3 D=9: 4^9 chain states, past the guard; checked before any point runs
    base = tmp_path / "base.ini"
    base.write_text(MARKOV_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(base), "--out", str(out), "--axis",
                 "dataset.seq_len", "--values", "2,9"]) == 2
    assert not (out / "sweep.csv").exists()


def test_cli_sweep_creates_only_its_output_dir(tmp_path, monkeypatch):
    # a point's [run] out_dir is not the sweep's: no directory per point
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(MARKOV_CONFIG)
    assert main(["sweep", "--config", "exp.ini", "--axis", "run.out_dir",
                 "--values", "pa,pb"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "out"]


def test_cli_sweep_checkpoint_row_is_eval_records(config_path, tmp_path):
    # with --checkpoint a row holds that point's `eval --metrics exact_kl,gm` records
    out = str(tmp_path / "out")
    assert main(["train-teacher", "--config", config_path, "--out", out, "--seed", "8"]) == 0
    teacher = os.path.join(out, "teacher.ckpt")
    rows = _sweep_rows(config_path, str(tmp_path / "sweep"), "--seed", "8", "--checkpoint",
                       teacher, "--axis", "eval.steps", "--values", "2,4")
    assert [row["value"] for row in rows] == ["2", "4"]
    for row in rows:
        point = tmp_path / f"steps{row['value']}.ini"
        point.write_text(BASE_CONFIG.replace("gm_pairs = 20",
                                             f"gm_pairs = 20\nsteps = {row['value']}"))
        eval_out = tmp_path / f"eval{row['value']}"
        assert main(["eval", "--config", str(point), "--checkpoint", teacher, "--out",
                     str(eval_out), "--seed", "8", "--metrics", "exact_kl,gm"]) == 0
        exact, gm = [json.loads(line) for line in open(eval_out / "eval_report.json")]
        assert row["exact_kl"] == f"{exact['value']:.10g}"
        assert row["gm"] == f"{gm['value']:.10g}"
        assert row["gm_stderr"] == f"{gm['stderr']:.10g}"
