"""One pipeline run in a fresh process: train-teacher, distill, sample x2, eval, sweep.

Started by run.py with the monotonic time at which it spawned this process;
everything up to the first command (interpreter start, numpy and ddlab
imports, writing the INI) is set-up. Prints one JSON line with, per
end-to-end metric, the wall seconds and the seconds at reference speed
(see SpeedProbe).

    python3 perfbench/pipeline.py --workload NAME --seed N --out DIR --spawned T [--trace]
"""

import signal
import time


class SpeedProbe:
    """Samples how fast this CPU runs Python, while the pipeline runs.

    On a shared host the same command's wall time swings by a third between
    minutes (neighbours' load changes the core's speed). Every INTERVAL
    seconds SIGALRM runs the same fixed loop and records its duration. The
    work done in a span is reported as its wall time times the mean of
    REFERENCE / duration over the probes inside it: seconds at the speed at
    which the loop takes REFERENCE seconds.
    """

    INTERVAL = 0.025
    ITERATIONS = 5000
    REFERENCE = 2.5e-4

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        s = 0
        for i in range(self.ITERATIONS):
            s += i
        self.samples.append((t, time.perf_counter() - t))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, t0, t1):
        """Mean speed relative to the reference over [t0, t1) (whole run if no probe fell inside)."""
        inside = [d for t, d in self.samples if t0 <= t < t1] or [d for _, d in self.samples]
        return sum(self.REFERENCE / d for d in inside) / len(inside)


PROBE = SpeedProbe()
T_START = time.perf_counter()

import argparse  # noqa: E402  (set-up from here on is sampled by the probe)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401  (part of set-up, as for any user of the CLI)

import ddlab.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(args.out, exist_ok=True)
    ini = os.path.join(args.out, f"{args.workload}.ini")
    with open(ini, "w") as fh:
        fh.write(workloads.ini_text(args.workload, args.seed))
    spans = [("setup_s", T_START, time.perf_counter(), time.monotonic() - args.spawned)]
    calls = []
    for metric, argv in workloads.commands(args.workload, ini, args.out, args.seed):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ddlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is one failed operation, reported
            traceback.print_exc()
            rc = 1
        t1 = time.perf_counter()
        spans.append((metric, t0, t1, t1 - t0))
        calls.append({"command": argv[0], "rc": rc})
    spans.append(("pipeline_s", T_START, time.perf_counter(), time.monotonic() - args.spawned))
    PROBE.stop()

    wall, work = {}, {}
    for metric, t0, t1, seconds in spans:
        wall[metric] = wall.get(metric, 0.0) + seconds
        work[metric] = work.get(metric, 0.0) + seconds * PROBE.speed(t0, t1)

    result = {"wall": wall, "work": work, "calls": calls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["table"] = tracer.layer_table()
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump({"spans": tracer.spans, "tape_nodes": tracer.tape_nodes,
                       "op_calls": tracer.op_calls, "missing": tracer.missing}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PROBE.stop()
