"""The benchmark's tracer still finds the package names it wraps."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# names the tracer looks up that no longer exist: the tape left the package
# and the student sampler and the teacher's backward were folded away
STALE = {"ddlab.cli.student_sample", "ddlab.teacher.backward", "ddlab.distill.backward",
         "ddlab.distill.posterior",
         *(f"ddlab.autodiff.{op}" for op in (
             "add", "sub", "mul", "div", "matmul", "tanh", "exp", "log", "reduce_sum",
             "reduce_mean", "expand_dims", "swap_last_axes", "take_rows", "take_along_last",
             "log_softmax", "softmax", "stop_gradient"))}


def test_tracer_installs_without_new_missing_names():
    # in a subprocess: install() rebinds names in the package's modules
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    script = ("import json, sys\n"
              f"sys.path[:0] = {paths!r}\n"
              "from tracer import Tracer\n"
              "tracer = Tracer()\n"
              "tracer.install()\n"
              "print(json.dumps(tracer.missing))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
