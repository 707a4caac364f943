"""Layer tracing from outside the package.

`Tracer.install()` replaces public names of `ddlab` modules with timing
wrappers, each on the name where its caller looks it up (for example both
`ddlab.distill.backward` and `ddlab.teacher.backward`). A wrapper appends a
span [name, start, end, parent, note] to an in-memory list; `layer_metrics`
turns the spans into the benchmark's per-layer metrics and `layer_table`
into per-name inclusive and self times. Nothing under `src/ddlab` changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

AUTODIFF_OPS = ("add", "sub", "mul", "div", "matmul", "tanh", "exp", "log", "reduce_sum",
                "reduce_mean", "expand_dims", "swap_last_axes", "take_rows", "take_along_last",
                "log_softmax", "softmax", "stop_gradient")
RNG_DRAWS = ("uniform", "normal", "gumbel", "integers")

# span name -> every (module, attribute path) where a caller looks the function up
SPANS = {
    "numerics.categorical_sample": [("numerics", "categorical_sample"), ("data", "categorical_sample"),
                                    ("distill", "categorical_sample")],
    "autodiff.adam_step": [("teacher", "adam_step"), ("distill", "adam_step")],
    "data.sample": [("data", "SyntheticDataset.sample")],
    "data.all_sequences": [("data", "all_sequences"), ("metrics", "all_sequences")],
    "process.diffuse": [("teacher", "diffuse"), ("distill", "diffuse")],
    "process.posterior": [("process", "posterior"), ("distill", "posterior")],
    "process.posterior_sample": [("process", "posterior_sample"), ("distill", "posterior_sample")],
    "process.ancestral_sample": [("process", "ancestral_sample"), ("cli", "ancestral_sample")],
    "nets.checkpoint_io": [("cli", "save_checkpoint"), ("cli", "model_from_checkpoint")],
    "teacher.train_teacher": [("cli", "train_teacher")],
    "teacher._eval_kl": [("teacher", "_eval_kl")],
    "distill.student_sample": [("cli", "student_sample")],
    "metrics.factorized_oracle_chain": [("cli", "factorized_oracle_chain")],
    "metrics.gradient_moment": [("cli", "gradient_moment")],
    "config.load_config": [("cli", "load_config")],
    "cli._teacher_chain_kl": [("cli", "_teacher_chain_kl")],
    "cli._student_chain_kl": [("cli", "_student_chain_kl")],
    **{f"cli.{c}": [("cli", c)] for c in ("cmd_train_teacher", "cmd_distill", "cmd_sample",
                                          "cmd_eval", "cmd_sweep")},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_calls = 0
        self.tape_nodes: list[int] = []
        self.joint_mb_max = 0.0
        self.missing: list[str] = []

    # -- wrappers ----------------------------------------------------------
    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _backward(self, fn):
        timed = self.wrap("autodiff.backward", fn)

        def backward(loss):
            seen, todo = {id(loss)}, [loss]
            while todo:
                for parent, _ in todo.pop().parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        todo.append(parent)
            self.tape_nodes.append(len(seen))
            return timed(loss)
        return functools.wraps(fn)(backward)

    def _exact_chain(self, fn):
        timed = self.wrap("metrics.exact_chain_distribution", fn)

        def exact_chain_distribution(predict, process, k, seq_len, *args, **kwargs):
            width = process.vocab_eff ** seq_len

            def rows(p_args, p_kwargs, out):
                n = len(p_args[0])
                self.joint_mb_max = max(self.joint_mb_max, n * width * 8 / 2 ** 20)
                return n
            return timed(self.wrap("metrics.exact_chain.predict", predict, rows),
                         process, k, seq_len, *args, **kwargs)
        return functools.wraps(fn)(exact_chain_distribution)

    # -- installation --------------------------------------------------------
    def _replace(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(f"ddlab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            self.missing.append(f"ddlab.{module}.{path}")
            return
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, path in targets:
                self._replace(module, path, lambda fn, n=name: self.wrap(n, fn))
        self._replace("cli", "_write_csv", lambda fn: self.wrap("cli._write_csv", fn, _csv_rows))
        for draw in RNG_DRAWS:
            self._replace("numerics", f"RngState.{draw}",
                          lambda fn: self.wrap("numerics.RngState.draw", fn))
        for cls in ("Denoiser", "Generator"):
            self._replace("nets", f"{cls}.forward", lambda fn: self.wrap("nets.forward", fn, _forward_note))
        self._replace("distill", "Distiller.step",
                      lambda fn: self.wrap("distill.Distiller.step", fn, lambda a, k, out: out[0]))
        for module in ("teacher", "distill"):
            self._replace(module, "backward", self._backward)
        for module in ("metrics", "cli"):
            self._replace(module, "exact_chain_distribution", self._exact_chain)
        for op in AUTODIFF_OPS:
            self._replace("autodiff", op, self._counted)
        for name in self.missing:
            print(f"tracer: {name} not found; its metrics read 0", file=sys.stderr)

    # -- reports -------------------------------------------------------------
    def _children(self) -> list[list[int]]:
        kids = [[] for _ in self.spans]
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0:
                kids[rec[3]].append(i)
        return kids

    def layer_table(self) -> list[dict]:
        """Per span name: calls, inclusive seconds, self seconds (minus child spans)."""
        kids = self._children()
        table: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"span": name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - sum(self.spans[c][2] - self.spans[c][1] for c in kids[i])
        return sorted(table.values(), key=lambda r: -r["self_s"])

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        kids = self._children()

        def named(name):
            return [s for s in spans if s[0] == name]

        def total(name):
            return sum(s[2] - s[1] for s in named(name))

        def under(names, ancestor):
            out = 0.0
            for s in spans:
                if s[0] in names:
                    p = s[3]
                    while p >= 0 and spans[p][0] != ancestor:
                        p = spans[p][3]
                    if p >= 0:
                        out += s[2] - s[1]
            return out

        def median_ms(durations):
            return 1000.0 * statistics.median(durations) if durations else 0.0

        teacher_steps = []
        for i, s in enumerate(spans):
            if s[0] == "teacher.train_teacher":
                starts = [spans[c][1] for c in kids[i] if spans[c][0] == "data.sample"]
                ends = [spans[c][2] for c in kids[i] if spans[c][0] == "autodiff.adam_step"]
                teacher_steps += [e - b for b, e in zip(starts, ends)]
        steps = named("distill.Distiller.step")
        by_phase = {ph: [s[2] - s[1] for s in steps if s[4] == ph] for ph in ("gen", "aux")}
        all_steps = sorted(s[2] - s[1] for s in steps)
        forwards = named("nets.forward")
        chain_kl = ("cli._student_chain_kl", "cli._teacher_chain_kl")
        exact_s, predict_s = total("metrics.exact_chain_distribution"), total("metrics.exact_chain.predict")
        return {
            "numerics.rng_draws": len(named("numerics.RngState.draw")),
            "numerics.rng_draw_s": total("numerics.RngState.draw"),
            "numerics.categorical_sample_s": total("numerics.categorical_sample"),
            "autodiff.backward_calls": len(self.tape_nodes),
            "autodiff.backward_s": total("autodiff.backward"),
            "autodiff.adam_step_s": total("autodiff.adam_step"),
            "autodiff.op_calls": self.op_calls,
            "autodiff.tape_nodes_per_backward": (sum(self.tape_nodes) / len(self.tape_nodes)
                                                 if self.tape_nodes else 0.0),
            "nets.forward_grad_s": sum(s[2] - s[1] for s in forwards if s[4][0]),
            "nets.forward_nograd_s": sum(s[2] - s[1] for s in forwards if not s[4][0]),
            "nets.forward_rows": sum(s[4][1] for s in forwards if not s[4][0]),
            "nets.checkpoint_io_s": total("nets.checkpoint_io"),
            "process.diffuse_s": total("process.diffuse"),
            "process.posterior_s": total("process.posterior"),
            "process.posterior_sample_s": total("process.posterior_sample"),
            "process.ancestral_sample_s": total("process.ancestral_sample"),
            "data.sample_s": total("data.sample"),
            "data.all_sequences_s": total("data.all_sequences"),
            "teacher.step_ms": median_ms(teacher_steps),
            "teacher.probe_s": total("teacher._eval_kl") + under(chain_kl, "cli.cmd_train_teacher"),
            "distill.gen_step_ms": median_ms(by_phase["gen"]),
            "distill.aux_step_ms": median_ms(by_phase["aux"]),
            # highest percentile with at least ten steps beyond it
            "distill.step_tail_ms": 1000.0 * all_steps[-11] if len(all_steps) > 10 else 0.0,
            "distill.probe_s": under(chain_kl, "cli.cmd_distill"),
            "metrics.exact_chain_s": exact_s,
            "metrics.exact_chain_predict_s": predict_s,
            "metrics.exact_chain_self_s": exact_s - predict_s,
            "metrics.exact_chain_states": sum(s[4] for s in named("metrics.exact_chain.predict")),
            "metrics.joint_mb_max": self.joint_mb_max,
            "metrics.oracle_chain_s": total("metrics.factorized_oracle_chain"),
            "metrics.gradient_moment_s": total("metrics.gradient_moment"),
            "config.load_s": total("config.load_config"),
            "cli.write_csv_s": total("cli._write_csv"),
            "cli.write_csv_rows": sum(s[4] for s in named("cli._write_csv")),
        }


def _forward_note(args, kwargs, out):
    """(forward carries gradient, rows): params given means a Var parameter dict."""
    return kwargs.get("params") is not None, len(args[1])


def _csv_rows(args, kwargs, out):
    return len(args[2])
