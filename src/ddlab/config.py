"""Experiment configuration: flat key = value sections, round-trippable,
content-hashed into every artifact."""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import typing
from dataclasses import dataclass, field

from .data import SyntheticDataset, make_dataset
from .distill import DistillConfig
from .metrics import EvalConfig
from .nets import ModelConfig
from .process import DiffusionProcess, NoiseSchedule
from .teacher import TeacherTrainConfig


class ConfigError(ValueError):
    pass


# section -> key -> (type, default); REQUIRED means no default
REQUIRED = object()


def _section(cls, exclude=()) -> dict[str, tuple]:
    """The schema section of a config dataclass: its fields, types and defaults."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)
            if f.name not in exclude}


SCHEMA: dict[str, dict[str, tuple]] = {
    "dataset": {
        "kind": (str, REQUIRED),
        "seq_len": (int, REQUIRED),
        "vocab": (int, REQUIRED),
        "seed": (int, 0),
    },
    "process": {
        "kind": (str, REQUIRED),
        "schedule": (str, "linear"),
    },
    # the sizes come from [dataset] and [process]; n_noise here is the
    # generator's noise width, not the teacher default of 0 in ModelConfig
    "model": {**_section(ModelConfig, exclude=("seq_len", "vocab", "masked")),
              "n_noise": (int, 8)},
    "teacher": _section(TeacherTrainConfig),
    "distill": _section(DistillConfig),
    "eval": _section(EvalConfig),
    "run": {
        "seed": (int, 0),
        "out_dir": (str, "out"),
        "record_wallclock": (bool, True),
    },
}

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _convert(section: str, key: str, raw: str, typ):
    try:
        if typ is bool:
            return _BOOL[raw.strip().lower()]
        return typ(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}")


@dataclass
class ExperimentConfig:
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, raw: str) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config field [{section}] {key}")
        typ, _ = SCHEMA[section][key]
        self.values[section][key] = _convert(section, key, str(raw), typ)
        self.check()

    def check(self) -> None:
        """Build every object the values describe, so that a bad value is a ConfigError."""
        try:
            self.dataset()
            process = self.process()
            self.model_config()
            self.teacher_config()
            if self.distill_config().soft_targets and not process.masked:
                raise ValueError("[distill] soft_targets requires [process] kind = masked")
            self.eval_config()
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from None

    # -- factories ---------------------------------------------------------
    def dataset(self) -> SyntheticDataset:
        d = self.values["dataset"]
        return make_dataset(d["kind"], d["seq_len"], d["vocab"], seed=d["seed"])

    def process(self) -> DiffusionProcess:
        p = self.values["process"]
        return DiffusionProcess(p["kind"], self.values["dataset"]["vocab"],
                                NoiseSchedule(p["schedule"]))

    def model_config(self, n_noise: int | None = None) -> ModelConfig:
        m = self.values["model"]
        return ModelConfig(
            seq_len=self.values["dataset"]["seq_len"],
            vocab=self.values["dataset"]["vocab"],
            masked=self.values["process"]["kind"] == "masked",
            emb=m["emb"], hidden=m["hidden"], depth=m["depth"],
            time_width=m["time_width"],
            n_noise=m["n_noise"] if n_noise is None else n_noise)

    def teacher_config(self) -> TeacherTrainConfig:
        return TeacherTrainConfig(**self.values["teacher"])

    def distill_config(self) -> DistillConfig:
        return DistillConfig(**self.values["distill"])

    def eval_config(self) -> EvalConfig:
        return EvalConfig(**self.values["eval"])


def parse_config(text: str) -> ExperimentConfig:
    # values are literal: no %-interpolation, so that to_text round-trips any of them
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}")
    cfg = ExperimentConfig({s: {} for s in SCHEMA})
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config field [{section}] {key}")
            typ, _ = SCHEMA[section][key]
            cfg.values[section][key] = _convert(section, key, raw, typ)
    for section, keys in SCHEMA.items():
        for key, (typ, default) in keys.items():
            if key not in cfg.values[section]:
                if default is REQUIRED:
                    raise ConfigError(f"missing required field [{section}] {key}")
                cfg.values[section][key] = default
    cfg.check()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization: sorted sections and keys, round-trip stable."""
    lines = []
    for section in sorted(cfg.values):
        lines.append(f"[{section}]")
        for key in sorted(cfg.values[section]):
            lines.append(f"{key} = {cfg.values[section][key]}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(to_text(cfg).encode("utf-8")).hexdigest()[:16]
