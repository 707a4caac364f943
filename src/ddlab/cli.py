"""Command line entry points: train-teacher, distill, sample, eval, sweep.

Exit codes: 0 success, 2 config error, 3 artifact incompatibility,
4 numerical divergence (including a posterior underflow, `ProcessError`).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .config import SCHEMA, ConfigError, ExperimentConfig, config_hash, load_config
from .data import ENUM_GUARD, SyntheticDataset
from .distill import DistillDivergence, Distiller, teacher_logits
from .metrics import (GM_ROWS_PER_CALL, ExactDistribution, MetricError, ReferenceModel,
                      chain_enumerable, exact_chain_distribution, factorized_oracle_chain,
                      generative_perplexity, generator_output_entropy, gradient_moment, kl,
                      sample_entropy)
from .nets import Denoiser, ModelError, model_from_checkpoint, save_checkpoint
from .numerics import NumericsError, RngState, distinct_rows, softmax
from .process import DiffusionProcess, ProcessError, ancestral_sample
from .teacher import train_teacher

CSV_VERSION = "ddlab-csv v1"
# glibc mallopt parameters, and the values the CLI pins them to: the largest
# dynamic mmap threshold glibc would reach, twice it for the trim threshold,
# and one arena for all threads
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD_BYTES = 32 * 2 ** 20


class ArtifactError(RuntimeError):
    pass


def _write_csv(path, fieldnames, rows, cfg: ExperimentConfig, seed: int) -> None:
    """The version line, the header and one line per row. A row is a dict by
    field name (a missing field is left empty, a float takes 10 significant
    digits) or a list of values in field order, written as given."""
    def cells(row: dict) -> list:
        return [f"{v:.10g}" if isinstance(v, float) else v
                for v in (row.get(f) for f in fieldnames)]

    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION} config_hash={config_hash(cfg)} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(row if isinstance(row, list) else cells(row) for row in rows)


class Context(NamedTuple):
    """What a command runs with."""

    cfg: ExperimentConfig
    seed: int
    out: str
    dataset: SyntheticDataset
    process: DiffusionProcess


def _context(args, field: tuple[str, str, str] | None = None) -> Context:
    """The --config file, with `field` = (section, key, raw value) set for a
    sweep point; --seed and --out over its [run] values (the output directory
    is created, but not for a point); and the dataset and process it describes.
    A seed outside [-2^63, 2^64) is a ConfigError: the RNG keys on it mod 2^64,
    and `distill`'s resumable state stores it as a 64-bit integer."""
    cfg = load_config(args.config)
    if field is not None:
        cfg.set(*field)
    seed = args.seed if args.seed is not None else cfg.get("run", "seed")
    if not -2 ** 63 <= seed < 2 ** 64:
        raise ConfigError(f"seed {seed} is outside [-2^63, 2^64)")
    out = args.out if args.out is not None else cfg.get("run", "out_dir")
    if field is None:
        os.makedirs(out, exist_ok=True)
    return Context(cfg, seed, out, cfg.dataset(), cfg.process())


def _exact_q(dataset) -> ExactDistribution:
    return ExactDistribution(dataset.vocab, dataset.seq_len, dataset.exact_q())


def _chain_kls(ctx: Context, p):
    """KL(q || p) for one chain distribution, or a list for several."""
    q = _exact_q(ctx.dataset)
    return kl(q, p) if isinstance(p, ExactDistribution) else [kl(q, d) for d in p]


def _teacher_chain_kl(teacher, ctx: Context, k: int | tuple[int, ...]):
    """The exact KL at k steps of the teacher whose logits are `teacher(z, t)`
    (`teacher_logits`), or a list at each k of a tuple, from one pass."""
    # no distinct_rows grouping: the DP's rows are already distinct, and on small
    # spaces it hands the teacher several steps per call with per-row times
    return _chain_kls(ctx, exact_chain_distribution(
        lambda z, t: softmax(teacher(z, t)), ctx.process, k, ctx.dataset.seq_len))


def _student_chain_kl(gen: Denoiser, ctx: Context, k: int | tuple[int, ...]):
    """The generator's exact KL at k steps, marginalized over its fixed noise
    draws, or a list at each k of a tuple, from one pass."""
    noise = None
    if gen.config.n_noise > 0:
        draws = ctx.cfg.get("distill", "noise_marginal_draws")
        noise = RngState(ctx.seed).child(901).normal((draws, gen.config.n_noise))
    return _chain_kls(ctx, exact_chain_distribution(gen.probs, ctx.process, k,
                                                    ctx.dataset.seq_len, noise_draws=noise))


def _check_computable(names, ctx: Context) -> None:
    """Before any work: exact_kl enumerates the noisy chain, gm and
    generative_perplexity the data (for the reference model)."""
    dataset, process = ctx.dataset, ctx.process
    if "exact_kl" in names and not chain_enumerable(process, dataset.seq_len):
        raise ConfigError(f"exact_kl: {process.vocab_eff}^{dataset.seq_len} chain states "
                          f"exceed the enumeration guard ({ENUM_GUARD})")
    if {"gm", "generative_perplexity"} & set(names) and not dataset.enumerable:
        raise ConfigError(f"gm and generative_perplexity: {dataset.vocab}^{dataset.seq_len} "
                          f"sequences exceed the enumeration guard ({ENUM_GUARD})")


def _default_steps(generator: bool, cfg: ExperimentConfig, steps: int | None) -> int:
    """Sampling steps: as given, else the generator's k or the teacher's [eval] steps."""
    if steps is not None:
        if steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {steps}")
        return steps
    return cfg.get("distill", "k") if generator else cfg.get("eval", "steps")


def cmd_train_teacher(args) -> int:
    cfg, seed, out, dataset, process = ctx = _context(args)
    dcfg, tcfg = cfg.distill_config(), cfg.teacher_config()
    steps = (1, 2, 4, 8, 16)
    table = {}

    def last_probe(model) -> float:
        # one pass for the KL table and the log's last eval_steps chain
        ks = tuple(sorted({*steps, tcfg.eval_steps}))
        table.update(zip(ks, _teacher_chain_kl(teacher_logits(model, dcfg), ctx, ks)))
        return table[tcfg.eval_steps]

    # the log probes the model itself, which the table's teacher is only without surgery
    exact = chain_enumerable(process, dataset.seq_len)
    model, rows = train_teacher(dataset, process, cfg.model_config(n_noise=0), tcfg,
                                RngState(seed).child(1),
                                record_wallclock=cfg.get("run", "record_wallclock"),
                                last_probe=last_probe if exact and dcfg.keeps_teacher else None)
    save_checkpoint(os.path.join(out, "teacher.ckpt"), model.config, model.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "teacher"})
    _write_csv(os.path.join(out, "teacher_log.csv"),
               ["step", "loss", "eval_kl", "wallclock_ms"], rows, cfg, seed)
    if exact:
        if not table:  # no shared last probe ran
            table = dict(zip(steps, _teacher_chain_kl(teacher_logits(model, dcfg), ctx, steps)))
        _write_csv(os.path.join(out, "teacher_kl_vs_steps.csv"), ["steps", "kl"],
                   [{"steps": n, "kl": table[n]} for n in steps], cfg, seed)
    print(f"teacher checkpoint and logs written to {out}")
    return 0


def _load_compatible(path, cfg: ExperimentConfig,
                     teacher: bool = False) -> tuple[Denoiser, bool]:
    """The checkpoint's model, and whether it is a generator: recorded as
    one, or taking input noise (a checkpoint without a recorded role). With
    `teacher`, anything but a teacher is an ArtifactError: a teacher is
    recorded as one, or has no recorded role and no input noise."""
    try:
        model, extra = model_from_checkpoint(path)
    except (OSError, ModelError, ValueError) as exc:
        raise ArtifactError(f"cannot load checkpoint {path}: {exc}")
    want = cfg.model_config(n_noise=model.config.n_noise)
    if model.config != want:
        raise ArtifactError(
            f"checkpoint {path} incompatible with config: {model.config} vs {want}")
    role = extra.get("role")
    if teacher and not (role == "teacher" or role is None and model.config.n_noise == 0):
        raise ArtifactError(f"{path} is not a teacher checkpoint")
    return model, role == "generator" or model.config.n_noise > 0


def _resume_key(cfg: ExperimentConfig) -> str:
    """The config hash of the sections `distill` reads, [distill] steps left
    out: a `--resume` state must have been written under the same key."""
    values = {s: dict(cfg.values[s]) for s in ("dataset", "process", "model", "distill")}
    del values["distill"]["steps"]
    return config_hash(ExperimentConfig(values))


def cmd_distill(args) -> int:
    cfg, seed, out, dataset, process = ctx = _context(args)
    model, _ = _load_compatible(args.teacher, cfg, teacher=True)
    dcfg = cfg.distill_config()
    teacher = teacher_logits(model, dcfg)
    distiller = Distiller(model, teacher, dataset, process, dcfg, RngState(seed).child(2),
                          n_noise=cfg.get("model", "n_noise"))
    if args.resume:
        try:
            distiller.load_state_file(args.resume, _resume_key(cfg))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"cannot resume from {args.resume}: {exc}")
        if distiller.rng.seed != seed:
            raise ArtifactError(f"{args.resume} was written under --seed "
                                f"{distiller.rng.seed}, not {seed}")

    # the table's k; the last probe measures the final generator at all of them
    ks = tuple(sorted({1, 2, 4, dcfg.k}))
    final = {}

    def eval_fn(d: Distiller) -> float:
        if d.step_index != dcfg.steps:
            return _student_chain_kl(d.generator, ctx, dcfg.k)
        final.update(zip(ks, _student_chain_kl(d.generator, ctx, ks)))
        return final[dcfg.k]

    # beyond the guard the probes log NaN and the KL table is skipped
    exact = chain_enumerable(process, dataset.seq_len)
    distiller.run(dcfg.steps - distiller.step_index, eval_fn=eval_fn if exact else None)
    save_checkpoint(os.path.join(out, "generator.ckpt"), distiller.generator.config,
                    distiller.generator.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "generator"})
    save_checkpoint(os.path.join(out, "auxiliary.ckpt"), distiller.auxiliary.config,
                    distiller.auxiliary.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "auxiliary"})
    distiller.save_state(os.path.join(out, "distill_state.npz"), _resume_key(cfg))
    _write_csv(os.path.join(out, "distill_log.csv"),
               ["step", "phase", "loss", "gen_output_entropy", "eval_kl"],
               distiller.log_rows, cfg, seed)
    if exact:
        # without a last probe in this process (nothing left to run), one pass here
        student = final or dict(zip(ks, _student_chain_kl(distiller.generator, ctx, ks)))
        table = [{"k": k, "student_kl": student[k], "teacher_kl": v}
                 for k, v in zip(ks, _teacher_chain_kl(teacher, ctx, ks))]
        _write_csv(os.path.join(out, "student_kl_vs_k.csv"),
                   ["k", "student_kl", "teacher_kl"], table, cfg, seed)
    print(f"distilled checkpoints and logs written to {out}")
    return 0


def _model_sampler(model: Denoiser, generator: bool, ctx: Context, steps: int):
    """sampler(n, rng): `steps`-step ancestral samples, with fresh input noise
    per step for a generator that takes it, after the context's [distill]
    logit surgery for a teacher.

    Without input noise the prediction depends on (z, t) alone, so it runs
    once per distinct row of z: at most vocab_eff^D rows per step, whatever n is.
    """
    n_noise = model.config.n_noise
    teacher = None if generator else teacher_logits(model, ctx.cfg.distill_config())

    def sampler(n, rng):
        def predict(z, t):
            if n_noise > 0:
                return model.probs(z, t, noise=rng.normal((len(z), n_noise)))
            rows, inverse = distinct_rows(z)
            probs = model.probs(rows, t) if teacher is None else softmax(teacher(rows, t))
            return probs[inverse]

        return ancestral_sample(predict, ctx.process, steps, rng, n, model.config.seq_len)
    return sampler


def _evaluate(ctx: Context, model: Denoiser, generator: bool, names, steps: int) -> list[dict]:
    """The `eval` records of the model's `steps`-step chain, one per metric
    name, under the context's config and seed. The sampled metrics read
    prefixes of one pool, the stream of GM_ROWS_PER_CALL-row sampler calls on
    RngState(seed).child(3).child(3) cut at the most rows a metric reads; a
    call's first rows do not depend on how many it draws, so no metric's
    value depends on which others are requested."""
    cfg, dataset, process = ctx.cfg, ctx.dataset, ctx.process
    ecfg = cfg.eval_config()
    sampler = _model_sampler(model, generator, ctx, steps)
    rng = RngState(ctx.seed).child(3)
    ref = ReferenceModel(_exact_q(dataset)) if dataset.enumerable else None

    reads = {"sample_entropy": ecfg.n_samples, "generative_perplexity": ecfg.n_samples,
             "gm": 2 * ecfg.gm_pairs * ecfg.gm_batch}
    n_pool = max([reads[name] for name in names if name in reads], default=0)
    pool_rng = rng.child(3)
    calls = (sampler(min(GM_ROWS_PER_CALL, n_pool - lo), pool_rng)
             for lo in range(0, n_pool, GM_ROWS_PER_CALL))
    rest = None

    @functools.cache
    def head():
        """The calls that hold the first n_samples rows, drawn at first use."""
        return np.concatenate([next(calls) for _ in range(0, min(ecfg.n_samples, n_pool),
                                                          GM_ROWS_PER_CALL)])

    def pool_rows(n, _rng):
        """gm's generator rows: the next n of the pool, from its start."""
        nonlocal rest
        rest = head() if rest is None else rest
        while len(rest) < n:
            rest = np.concatenate([rest, next(calls)])
        rows, rest = rest[:n], rest[n:]
        return rows

    records = []
    chash = config_hash(cfg)
    for name in names:
        rec = {"metric": name, "config_hash": chash, "seed": ctx.seed, "steps": steps}
        if name == "exact_kl":
            # a generator's chain marginalized over its input noise, a teacher's after surgery
            rec["value"] = (_student_chain_kl(model, ctx, steps) if generator else
                            _teacher_chain_kl(teacher_logits(model, cfg.distill_config()), ctx,
                                              steps))
        elif name == "gm":
            res = gradient_moment(ref, pool_rows, dataset.sample, ecfg.gm_batch, ecfg.gm_pairs,
                                  rng.child(1))
            rec["value"] = res.estimate
            rec["stderr"] = res.stderr
            if res.warning:
                rec["warning"] = res.warning
        elif name == "generative_perplexity":
            rec["value"] = generative_perplexity(ref, head()[:ecfg.n_samples])
        elif name == "sample_entropy":
            rec["value"] = sample_entropy(head()[:ecfg.n_samples])
        elif name == "gen_output_entropy":
            rec["value"] = generator_output_entropy(model, process, 256, rng.child(4))
        records.append(rec)
    return records


def cmd_eval(args) -> int:
    ctx = _context(args)
    ecfg = ctx.cfg.eval_config()
    if args.metrics:
        try:
            ecfg = dataclasses.replace(ecfg, metrics=args.metrics)
        except MetricError as exc:
            raise ConfigError(str(exc)) from None
    _check_computable(ecfg.names, ctx)
    model, generator = _load_compatible(args.checkpoint, ctx.cfg)
    records = _evaluate(ctx, model, generator, ecfg.names,
                        _default_steps(generator, ctx.cfg, args.steps))
    with open(os.path.join(ctx.out, "eval_report.json"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    return 0


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    cfg, seed, out, dataset, _ = ctx = _context(args)
    model, generator = _load_compatible(args.checkpoint, cfg)
    sampler = _model_sampler(model, generator, ctx, _default_steps(generator, cfg, args.steps))
    samples = sampler(args.n, RngState(seed).child(4))
    _write_csv(os.path.join(out, "samples.csv"),
               [f"pos{d}" for d in range(dataset.seq_len)], samples.tolist(), cfg, seed)
    print(f"{args.n} samples written to {out}/samples.csv")
    return 0


def cmd_sweep(args) -> int:
    """Each point is the config with the axis set to one value: with
    --checkpoint, the point's `eval --metrics exact_kl,gm` records; without,
    the exact KL of the factorized oracle's [distill] k-step chain."""
    section, _, key = args.axis.partition(".")
    if key not in SCHEMA.get(section, {}):
        raise ConfigError(f"axis {args.axis!r} does not name a config field (use section.key)")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("no sweep values given")
    base = _context(args)
    names = ("exact_kl", "gm") if args.checkpoint else ("exact_kl",)
    points = []
    for raw in values:  # every point is checked before any point's work
        point = _context(args, (section, key, raw))
        _check_computable(names, point)
        loaded = _load_compatible(args.checkpoint, point.cfg) if args.checkpoint else None
        points.append((raw, point, loaded))
    rows = []
    for raw, point, loaded in points:
        row = {"axis": args.axis, "value": raw}
        if loaded is None:
            q = _exact_q(point.dataset)
            row["exact_kl"] = kl(q, factorized_oracle_chain(q, point.process,
                                                            point.cfg.get("distill", "k")))
        else:
            model, generator = loaded
            for rec in _evaluate(point, model, generator, names,
                                 _default_steps(generator, point.cfg, None)):
                row[rec["metric"]] = rec["value"]
                row.update({f"{rec['metric']}_{extra}": rec[extra]
                            for extra in ("stderr", "warning") if extra in rec})
        rows.append(row)
    fields = sorted({f for row in rows for f in row}, key=lambda f: (f not in ("axis", "value"), f))
    _write_csv(os.path.join(base.out, "sweep.csv"), fields, rows, base.cfg, base.seed)
    for row in rows:
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddlab",
                                     description="Discrete diffusion distillation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("train-teacher", help="train a denoiser on a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("distill", help="run alternating distillation against a teacher")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("sample", help="draw samples from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate along one config axis")
    common(p)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_sweep)
    return parser


def _pin_malloc_thresholds() -> None:
    """Keep freed heap pages between training steps (glibc; a no-op elsewhere).

    A teacher or distill step frees a few hundred KiB of temporaries. With
    glibc's run-time thresholds, whether the top of the heap goes back to the
    kernel and is faulted in again on every step depends on the layout that
    earlier allocations left: bits_masked train-teacher took 551 or 65,186
    page faults (0.25 s more) for the same code (2-core x86-64, glibc 2.36).

    One arena: the no-grad forward's helper thread (`nets._run_split`) then
    takes its temporaries from the main heap's free pages instead of a
    second arena of its own (1.5-2.6 MB more peak RSS on the benchmark).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)
    mallopt(M_ARENA_MAX, 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_malloc_thresholds()
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (DistillDivergence, NumericsError, ProcessError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
