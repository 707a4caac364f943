"""Pipeline benchmark: train-teacher -> distill -> sample -> eval -> sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round starts one fresh process
(perfbench/pipeline.py) that runs the whole CLI sequence in-process; rounds
repeat back to back while the next one, as long as the last, still ends
within S seconds (at least two rounds). With
--trace 0 every round is untraced and the end-to-end metrics are medians
over rounds. With --trace 1 untraced and traced rounds alternate; the
per-layer metrics are medians over the traced rounds and trace.overhead_s
is the difference of the two kinds' median pipeline_s.

After the timed rounds, untimed, every command's exit code and every output
check in checks.py is one operation, and so is the byte comparison of each
later round's artifacts with the first round's. The last line of stdout is
the JSON result; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 150.0
# One BLAS thread (nproc is 2 on the reference machine): the arrays are tiny
# and extra threads only add scheduling noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_round(workload: str, seed: int, out: str, traced: bool, env: dict) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "pipeline.py"), "--workload", workload,
         "--seed", str(seed), "--out", out, "--spawned", repr(spawned)]
        + (["--trace"] if traced else []),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline process exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["traced"], res["out"] = traced, out
    return res


def end_to_end(res: dict, kind: str = "work") -> dict[str, float]:
    """One round's end-to-end metrics; kind "work" is reference-speed seconds, "wall" raw."""
    return {**res[kind], "peak_rss_mb": res["peak_rss_mb"]}


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def verify(workload: str, seed: int, rounds: list[dict]) -> list[tuple[int, str, bool, str]]:
    import checks
    import workloads

    w = workloads.WORKLOADS[workload]
    spec = checks.Spec(workloads.ini_text(workload, seed))
    exact_teacher: dict = {}
    ops = []
    first = None
    for i, res in enumerate(rounds):
        out = os.path.join(ROOT, res["out"])
        for c in res["calls"]:
            ops.append((i, f"{c['command']}_exit_code", c["rc"] == 0, f"rc={c['rc']}"))
        for name, ok, detail in checks.check_round(spec, out, w["n_generator"], w["n_teacher"],
                                                   exact_teacher):
            ops.append((i, name, ok, detail))
        hashes = checks.artifact_hashes(out)
        if first is None:
            first = hashes
        else:
            differ = sorted(k for k, v in hashes.items() if v != first[k] or v == "missing")
            ops.append((i, "artifacts_identical_to_round0", not differ, f"differ: {differ}"))
    return ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ddlab", "cli.py")):
        print(f"perfbench: no ddlab sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    compileall.compile_dir(os.path.join(src, "ddlab"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    runs = os.path.join("perfbench", "runs", args.workload)
    shutil.rmtree(os.path.join(ROOT, runs), ignore_errors=True)
    rounds: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, args.seed,
                                os.path.join(runs, f"round{len(rounds)}"), traced, env))
        last = time.monotonic() - t0

    ops = verify(args.workload, args.seed, rounds)
    failed = [op for op in ops if not op[2]]
    for i, name, _, detail in failed:
        print(f"perfbench: round {i} check {name} FAILED: {detail}", file=sys.stderr)

    untraced = medians([end_to_end(r) for r in rounds if not r["traced"]])
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        values = medians([r["layers"] for r in traced_rounds])
        values["trace.overhead_s"] = (medians([end_to_end(r) for r in traced_rounds])["pipeline_s"]
                                      - untraced["pipeline_s"])
        wanted = bench["per_layer"]
        print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for row in traced_rounds[-1]["table"]:
            print(f"{row['span']:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    else:
        values = untraced
        wanted = bench["end_to_end"]
    for i, r in enumerate(rounds):
        for kind in ("work", "wall"):
            print(f"round {i}{' traced' if r['traced'] else ''} {kind}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in end_to_end(r, kind).items()))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
