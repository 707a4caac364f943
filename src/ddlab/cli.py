"""Command line entry points: train-teacher, distill, sample, eval, sweep.

Exit codes: 0 success, 2 config error, 3 artifact incompatibility,
4 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .config import ConfigError, ExperimentConfig, config_hash, load_config
from .distill import DistillDivergence, Distiller, teacher_logits
from .metrics import (ExactDistribution, ReferenceModel, exact_chain_distribution,
                      factorized_oracle_chain, generative_perplexity,
                      generator_output_entropy, gradient_moment, kl, sample_entropy)
from .nets import Denoiser, ModelError, model_from_checkpoint, save_checkpoint
from .numerics import NumericsError, RngState, softmax
from .process import ancestral_sample
from .teacher import train_teacher

CSV_VERSION = "ddlab-csv v1"
KNOWN_METRICS = ("exact_kl", "gm", "generative_perplexity", "sample_entropy",
                 "gen_output_entropy")


class ArtifactError(RuntimeError):
    pass


def _write_csv(path, fieldnames, rows, cfg: ExperimentConfig, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION} config_hash={config_hash(cfg)} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.10g}" if isinstance(v, float) else v)
                             for k, v in row.items()})


def _seed(cfg: ExperimentConfig, args) -> int:
    return args.seed if args.seed is not None else cfg.get("run", "seed")


def _out_dir(cfg: ExperimentConfig, args) -> str:
    out = args.out if args.out is not None else cfg.get("run", "out_dir")
    os.makedirs(out, exist_ok=True)
    return out


def _exact_q(dataset) -> ExactDistribution:
    return ExactDistribution(dataset.vocab, dataset.seq_len, dataset.exact_q())


def _teacher_chain_kl(model, dataset, process, steps: int, dcfg) -> float:
    def predict(z, t):
        return softmax(teacher_logits(model, z, t, dcfg.tau, dcfg.top_p, dcfg.delta))

    p = exact_chain_distribution(predict, process, steps, dataset.seq_len)
    return kl(_exact_q(dataset), p)


def _student_chain_kl(gen: Denoiser, dataset, process, k: int, draws: int, seed: int) -> float:
    noise = None
    if gen.config.n_noise > 0:
        noise = RngState(seed).child(901).normal((draws, gen.config.n_noise))
    p = exact_chain_distribution(gen.probs, process, k, dataset.seq_len, noise_draws=noise)
    return kl(_exact_q(dataset), p)


def _chain_kl(model: Denoiser, dataset, process, steps: int, dcfg, seed: int) -> float:
    """Exact KL of the model's `steps`-step chain: a generator's, marginalized
    over its input noise, or a teacher's after logit surgery."""
    if model.config.n_noise > 0:
        return _student_chain_kl(model, dataset, process, steps, dcfg.noise_marginal_draws, seed)
    return _teacher_chain_kl(model, dataset, process, steps, dcfg)


def _default_steps(model: Denoiser, cfg: ExperimentConfig, steps: int | None) -> int:
    """Sampling steps: as given, else the generator's k or the teacher's [eval] steps."""
    if steps is not None:
        return steps
    return cfg.get("distill", "k") if model.config.n_noise > 0 else cfg.get("eval", "steps")


def cmd_train_teacher(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    dataset = cfg.dataset()
    process = cfg.process()
    model, rows = train_teacher(dataset, process, cfg.model_config(n_noise=0),
                                cfg.teacher_config(), RngState(seed).child(1),
                                record_wallclock=cfg.get("run", "record_wallclock"))
    save_checkpoint(os.path.join(out, "teacher.ckpt"), model.config, model.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "teacher"})
    _write_csv(os.path.join(out, "teacher_log.csv"),
               ["step", "loss", "eval_kl", "wallclock_ms"], rows, cfg, seed)
    dcfg = cfg.distill_config()
    table = [{"steps": n, "kl": _teacher_chain_kl(model, dataset, process, n, dcfg)}
             for n in (1, 2, 4, 8, 16)]
    _write_csv(os.path.join(out, "teacher_kl_vs_steps.csv"), ["steps", "kl"], table, cfg, seed)
    print(f"teacher checkpoint and logs written to {out}")
    return 0


def _load_compatible(path, cfg: ExperimentConfig):
    try:
        model, extra = model_from_checkpoint(path)
    except (OSError, ModelError, ValueError) as exc:
        raise ArtifactError(f"cannot load checkpoint {path}: {exc}")
    want = cfg.model_config(n_noise=model.config.n_noise)
    if model.config != want:
        raise ArtifactError(
            f"checkpoint {path} incompatible with config: {model.config} vs {want}")
    return model, extra


def cmd_distill(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    dataset = cfg.dataset()
    process = cfg.process()
    teacher, _ = _load_compatible(args.teacher, cfg)
    if teacher.config.n_noise != 0:
        raise ArtifactError(f"{args.teacher} is not a teacher checkpoint")
    dcfg = cfg.distill_config()
    distiller = Distiller(teacher, dataset, process, dcfg, RngState(seed).child(2),
                          n_noise=cfg.get("model", "n_noise"))
    if args.resume:
        try:
            distiller.load_state_file(args.resume)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"cannot resume from {args.resume}: {exc}")

    def eval_fn(d: Distiller) -> float:
        if not dataset.enumerable:
            return float("nan")
        return _student_chain_kl(d.generator, dataset, process, dcfg.k,
                                 dcfg.noise_marginal_draws, seed)

    distiller.run(dcfg.steps - distiller.step_index, eval_fn=eval_fn)
    save_checkpoint(os.path.join(out, "generator.ckpt"), distiller.generator.config,
                    distiller.generator.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "generator"})
    save_checkpoint(os.path.join(out, "auxiliary.ckpt"), distiller.auxiliary.config,
                    distiller.auxiliary.store,
                    extra={"config_hash": config_hash(cfg), "seed": seed, "role": "auxiliary"})
    distiller.save_state(os.path.join(out, "distill_state.npz"))
    _write_csv(os.path.join(out, "distill_log.csv"),
               ["step", "phase", "loss", "gen_output_entropy", "eval_kl"],
               distiller.log_rows, cfg, seed)
    if dataset.enumerable:
        # the last probe already measured the final generator at k = dcfg.k
        rows = distiller.log_rows
        final_kl = (rows[-1]["eval_kl"] if rows and rows[-1]["step"] == distiller.step_index - 1
                    else None)
        table = []
        for k in sorted({1, 2, 4, dcfg.k}):
            if k == dcfg.k and final_kl is not None:
                student_kl = final_kl
            else:
                student_kl = _student_chain_kl(distiller.generator, dataset, process, k,
                                               dcfg.noise_marginal_draws, seed)
            table.append({"k": k, "student_kl": student_kl,
                          "teacher_kl": _teacher_chain_kl(teacher, dataset, process, k, dcfg)})
        _write_csv(os.path.join(out, "student_kl_vs_k.csv"),
                   ["k", "student_kl", "teacher_kl"], table, cfg, seed)
    print(f"distilled checkpoints and logs written to {out}")
    return 0


def _model_sampler(model: Denoiser, cfg: ExperimentConfig, process, steps: int):
    """sampler(n, rng): `steps`-step ancestral samples, with fresh input noise
    per step for a generator, after logit surgery for a teacher."""
    dcfg = cfg.distill_config()
    n_noise = model.config.n_noise

    def sampler(n, rng):
        def predict(z, t):
            if n_noise > 0:
                return model.probs(z, t, noise=rng.normal((len(z), n_noise)))
            return softmax(teacher_logits(model, z, t, dcfg.tau, dcfg.top_p, dcfg.delta))

        return ancestral_sample(predict, process, steps, rng, n, model.config.seq_len)
    return sampler


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    metrics = [m.strip() for m in (args.metrics or cfg.get("eval", "metrics")).split(",") if m.strip()]
    for m in metrics:
        if m not in KNOWN_METRICS:
            raise ConfigError(f"unknown metric {m!r}; known: {', '.join(KNOWN_METRICS)}")
    dataset = cfg.dataset()
    process = cfg.process()
    model, _ = _load_compatible(args.checkpoint, cfg)
    steps = _default_steps(model, cfg, args.steps)
    sampler = _model_sampler(model, cfg, process, steps)
    rng = RngState(seed).child(3)
    n_samples = cfg.get("eval", "n_samples")

    ref = ReferenceModel(dataset.seq_len, dataset.vocab)
    if dataset.enumerable:
        ref.fit_exact(_exact_q(dataset))

    records = []
    chash = config_hash(cfg)
    for name in metrics:
        rec = {"metric": name, "config_hash": chash, "seed": seed, "steps": steps}
        if name == "exact_kl":
            rec["value"] = _chain_kl(model, dataset, process, steps, cfg.distill_config(), seed)
        elif name == "gm":
            res = gradient_moment(ref, sampler, dataset.sample, cfg.get("eval", "gm_batch"),
                                  cfg.get("eval", "gm_pairs"), rng.child(1))
            rec["value"] = res.estimate
            rec["stderr"] = res.stderr
            if res.warning:
                rec["warning"] = res.warning
        elif name == "generative_perplexity":
            rec["value"] = generative_perplexity(ref, sampler(n_samples, rng.child(2)))
        elif name == "sample_entropy":
            rec["value"] = sample_entropy(sampler(n_samples, rng.child(3)))
        elif name == "gen_output_entropy":
            rec["value"] = generator_output_entropy(model, process, 256, rng.child(4))
        records.append(rec)

    report_path = os.path.join(out, "eval_report.json")
    with open(report_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    dataset = cfg.dataset()
    process = cfg.process()
    model, _ = _load_compatible(args.checkpoint, cfg)
    sampler = _model_sampler(model, cfg, process, _default_steps(model, cfg, args.steps))
    samples = sampler(args.n, RngState(seed).child(4))
    rows = [{f"pos{d}": int(tok) for d, tok in enumerate(row)} for row in samples]
    _write_csv(os.path.join(out, "samples.csv"),
               [f"pos{d}" for d in range(dataset.seq_len)], rows, cfg, seed)
    print(f"{args.n} samples written to {out}/samples.csv")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        section, key = args.axis.split(".", 1)
        cfg.get(section, key)
    except (ValueError, KeyError):
        raise ConfigError(f"axis {args.axis!r} does not name a config field (use section.key)")
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("no sweep values given")
    dataset = cfg.dataset()
    process = cfg.process()
    rows = []
    for raw in values:
        point = load_config(args.config)
        point.set(section, key, raw)
        dcfg = point.distill_config()
        row = {"axis": args.axis, "value": raw}
        if args.checkpoint:
            model, _ = _load_compatible(args.checkpoint, point)
            steps = _default_steps(model, point, None)
            row["exact_kl"] = _chain_kl(model, dataset, process, steps, dcfg, seed)
            ref = ReferenceModel(dataset.seq_len, dataset.vocab)
            ref.fit_exact(_exact_q(dataset))
            sampler = _model_sampler(model, point, process, steps)
            res = gradient_moment(ref, sampler, dataset.sample, point.get("eval", "gm_batch"),
                                  point.get("eval", "gm_pairs"), RngState(seed).child(5))
            row["gm"] = res.estimate
            row["gm_stderr"] = res.stderr
        else:
            # no checkpoint: report the exact factorized-oracle chain KL
            oracle_kl = kl(_exact_q(dataset),
                           factorized_oracle_chain(_exact_q(dataset), process, dcfg.k))
            row["exact_kl"] = oracle_kl
        rows.append(row)
    fields = sorted({f for row in rows for f in row}, key=lambda f: (f not in ("axis", "value"), f))
    _write_csv(os.path.join(out, "sweep.csv"), fields, rows, cfg, seed)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (DistillDivergence, NumericsError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
