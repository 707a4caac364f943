"""The benchmark's tracer still finds the package names it wraps."""

import json
import os
import subprocess
import sys

from ddlab.config import load_config
from ddlab.nets import Denoiser, save_checkpoint
from ddlab.numerics import RngState

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# names the tracer looks up that no longer exist: the tape left the package
# and the student sampler and the teacher's backward were folded away
STALE = {"ddlab.cli.student_sample", "ddlab.teacher.backward", "ddlab.distill.backward",
         "ddlab.distill.posterior",
         *(f"ddlab.autodiff.{op}" for op in (
             "add", "sub", "mul", "div", "matmul", "tanh", "exp", "log", "reduce_sum",
             "reduce_mean", "expand_dims", "swap_last_axes", "take_rows", "take_along_last",
             "log_softmax", "softmax", "stop_gradient"))}


def _traced(body: str):
    """The last stdout line of `body`, as JSON, run in a subprocess after
    Tracer.install() (which rebinds names in the package's modules)."""
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    script = ("import json, sys\n"
              f"sys.path[:0] = {paths!r}\n"
              "from tracer import Tracer\n"
              "tracer = Tracer()\n"
              "tracer.install()\n" + body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_installs_without_new_missing_names():
    missing = _traced("print(json.dumps(tracer.missing))\n")
    assert set(missing) <= STALE, sorted(set(missing) - STALE)


def test_tracer_counts_sample_csv_rows(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[dataset]\nkind = correlated_bits\nseq_len = 2\nvocab = 2\n"
                   "[process]\nkind = masked\n")
    teacher = Denoiser(load_config(str(ini)).model_config(n_noise=0), RngState(0))
    ckpt = str(tmp_path / "teacher.ckpt")
    save_checkpoint(ckpt, teacher.config, teacher.store)
    argv = ["sample", "--config", str(ini), "--checkpoint", ckpt, "--out", str(tmp_path),
            "--n", "37"]
    rc, rows = _traced("from ddlab.cli import main\n"
                       f"rc = main({argv!r})\n"
                       "print(json.dumps([rc, tracer.layer_metrics()['cli.write_csv_rows']]))\n")
    assert (rc, rows) == (0, 37)


def test_tracer_times_the_exact_kl_probes(tmp_path):
    # the chain-KL helpers nest under their commands, and gm is timed, in a
    # traced train-teacher -> distill -> eval run
    ini = tmp_path / "exp.ini"
    ini.write_text("[dataset]\nkind = correlated_bits\nseq_len = 2\nvocab = 2\n"
                   "[process]\nkind = masked\n"
                   "[model]\nemb = 8\nhidden = 12\ndepth = 1\nn_noise = 4\n"
                   "[teacher]\nsteps = 20\neval_every = 10\neval_steps = 4\n"
                   "[distill]\nsteps = 10\neval_every = 5\nnoise_marginal_draws = 4\n"
                   "[eval]\ngm_pairs = 4\n[run]\nrecord_wallclock = false\n")
    common = ["--config", str(ini), "--out", str(tmp_path), "--seed", "0"]
    argvs = [["train-teacher", *common],
             ["distill", *common, "--teacher", str(tmp_path / "teacher.ckpt")],
             ["eval", *common, "--checkpoint", str(tmp_path / "generator.ckpt"),
              "--metrics", "exact_kl,gm"]]
    rcs, missing, layers = _traced("from ddlab.cli import main\n"
                                   f"rcs = [main(argv) for argv in {argvs!r}]\n"
                                   "print(json.dumps([rcs, tracer.missing, "
                                   "tracer.layer_metrics()]))\n")
    assert rcs == [0, 0, 0]
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
    for name in ("teacher.probe_s", "distill.probe_s", "metrics.exact_chain_s",
                 "metrics.gradient_moment_s"):
        assert layers[name] > 0, name
    # Rows the exact-chain passes hand to predict, on masked K=2 D=2: the
    # all-MASK state at t = 1, then the 5 states with a MASK at each later
    # time, shared in one call (times the noise draws, 4, for the generator).
    # train-teacher: probes at steps 0 and 10 at k = 4 (1 + 3 * 5 = 16 rows
    # each) and the table's pass at k = 1, 2, 4, 8, 16 over the 16 times
    # i / 16, which also serves the last probe (1 + 15 * 5 = 76): 32 + 76 = 108.
    # distill ([distill] k = 1): probes at steps 0 and 5 (4 rows each), the
    # last probe's pass at k = 1, 2, 4 (4 + 3 * 5 * 4 = 64) and the teacher's
    # pass at k = 1, 2, 4 (1 + 3 * 5 = 16): 8 + 64 + 16 = 88.
    # eval: the generator's k = 1 chain, 4 rows. In all, 108 + 88 + 4 = 200.
    assert layers["metrics.exact_chain_states"] == 200
