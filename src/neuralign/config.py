"""Experiment configuration: one dataclass tree, JSON in and out.

Validation reports dotted field paths ("coding.k_corrupted: ...") so a bad
config file points at the exact key. Unknown keys are rejected rather than
ignored; a typo should fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ATTACK_KINDS = ("np", "ftp", "npp", "rescale")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""


@dataclass
class DataSpec:
    samples: int = 2400
    input_dim: int = 48
    classes: int = 4
    spread: float = 0.4
    holdout: int = 400


@dataclass
class ModelSpec:
    widths: list = field(default_factory=lambda: [128, 32, 16])
    watermarked_layer: str = "dense1"
    epochs: int = 30
    lr: float = 0.1


@dataclass
class CodingSpec:
    k: int = 2
    t: int = 60
    k_corrupted: int = 1


@dataclass
class TriggerSpec:
    j: int = 6
    steps: int = 2000
    lr: float = 0.05
    restarts: int = 8
    box_low: float = -4.0
    box_high: float = 4.0
    prune_step: float = 0.05


@dataclass
class WatermarkSpec:
    bits: int = 32
    threshold: float = 0.15
    strength: float = 2.0
    max_rounds: int = 4


@dataclass
class AttackSpec:
    kind: str = "np"
    trials: int = 100
    epochs: int = 2  # ftp only
    lr: float = 0.01  # ftp only
    fraction: float = 0.10  # npp only
    scale_low: float = 0.2  # rescale only
    scale_high: float = 5.0  # rescale only


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    coding: CodingSpec = field(default_factory=CodingSpec)
    triggers: TriggerSpec = field(default_factory=TriggerSpec)
    watermark: WatermarkSpec = field(default_factory=WatermarkSpec)
    attacks: list = field(
        default_factory=lambda: [
            AttackSpec(kind="np"),
            AttackSpec(kind="ftp"),
            AttackSpec(kind="npp"),
            AttackSpec(kind="rescale"),
        ]
    )

    def watermarked_index(self) -> int:
        return int(self.model.watermarked_layer.removeprefix("dense"))

    def watermarked_width(self) -> int:
        return int(self.model.widths[self.watermarked_index()])


# the config's object sections: field name -> type
_SECTIONS = {
    "data": DataSpec, "model": ModelSpec, "coding": CodingSpec,
    "triggers": TriggerSpec, "watermark": WatermarkSpec,
}


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_types(spec, path: str) -> None:
    """A JSON file can put any type in any field: an int field must hold an
    integer, a float field a finite number (JSON's Infinity and NaN parse as
    floats) and a str field a string (bools are neither integers nor
    numbers)."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        sub = f"{path}.{f.name}" if path else f.name
        if f.type == "int":
            _require(_is_int(value), sub, f"must be an integer, got {value!r}")
        elif f.type == "float":
            _require(_is_int(value) or (isinstance(value, float) and math.isfinite(value)),
                     sub, f"must be a finite number, got {value!r}")
        elif f.type == "str":
            _require(isinstance(value, str), sub, f"must be a string, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    d, m, c, t, w = cfg.data, cfg.model, cfg.coding, cfg.triggers, cfg.watermark
    specs = [(cfg, ""), *((getattr(cfg, name), name) for name in _SECTIONS)]
    for spec, path in specs + [(a, f"attacks[{i}]") for i, a in enumerate(cfg.attacks)]:
        _require_types(spec, path)
    _require(d.classes >= 2, "data.classes", "need at least two classes")
    _require(d.input_dim >= 2, "data.input_dim", "need at least two dimensions")
    _require(d.samples >= d.classes, "data.samples", "need at least one sample per class")
    _require(d.samples > d.holdout >= 1, "data.holdout", "holdout must leave training data")
    _require(d.spread > 0, "data.spread", "must be positive")
    _require(isinstance(m.widths, list) and len(m.widths) >= 1
             and all(_is_int(x) and x >= 1 for x in m.widths), "model.widths",
             "need positive integer widths for at least one hidden layer")
    _require(m.epochs >= 0, "model.epochs", "need epochs >= 0")
    _require(m.lr > 0, "model.lr", "must be positive")
    name, digits = m.watermarked_layer, m.watermarked_layer.removeprefix("dense")
    # layers are named dense0, dense1, ...: no leading zero, no non-ASCII digit
    _require(
        digits.isdecimal() and name == f"dense{int(digits)}",
        "model.watermarked_layer", f"unknown layer name {name!r}",
    )
    idx = int(digits)
    # widths lists the hidden layers; the softmax output dense{len(widths)} follows them
    _require(idx < len(m.widths), "model.watermarked_layer",
             f"layer {name!r} must be a hidden layer with a successor "
             f"(dense0..dense{len(m.widths) - 1})")
    _require(2 <= c.k <= 256, "coding.k", "symbol count must be in [2, 256]")
    _require(c.t >= 1, "coding.t", "need at least one trigger position")
    # the report's normal baseline probes with the first coding.t heldout samples
    _require(d.holdout >= c.t, "data.holdout",
             f"need at least coding.t = {c.t} heldout samples, got {d.holdout}")
    _require(1 <= c.k_corrupted <= c.k - 1, "coding.k_corrupted",
             "corrupted alternatives per position lie in [1, k-1]")
    _require(t.j >= 2 and t.j % 2 == 0, "triggers.j",
             "the T2 ensemble needs an even variant count of at least 2")
    _require(t.steps >= 0, "triggers.steps", "need steps >= 0")
    _require(t.lr > 0, "triggers.lr", "must be positive")
    _require(t.restarts >= 1, "triggers.restarts", "need at least one restart")
    _require(t.box_low < t.box_high, "triggers.box_low", "clamp box must be non-empty")
    _require(0 < t.prune_step and t.prune_step * (t.j // 2) < 1, "triggers.prune_step",
             "prune fractions must stay below 1")
    _require(w.bits >= 1, "watermark.bits", "need at least one payload bit")
    _require(0 < w.threshold < 1, "watermark.threshold", "threshold lies in (0, 1)")
    _require(w.strength > 0, "watermark.strength", "must be positive")
    _require(w.max_rounds >= 1, "watermark.max_rounds", "need at least one round")
    kinds = [a.kind for a in cfg.attacks]
    for i, a in enumerate(cfg.attacks):
        path = f"attacks[{i}]"
        _require(a.kind in ATTACK_KINDS, f"{path}.kind",
                 f"unknown kind {a.kind!r}, expected one of {ATTACK_KINDS}")
        _require(a.kind not in kinds[:i], f"{path}.kind", f"duplicate kind {a.kind!r}")
        _require(a.trials >= 1, f"{path}.trials", "need at least one trial")
        if a.kind == "ftp":
            _require(a.epochs >= 1, f"{path}.epochs", "need at least one epoch")
            _require(a.lr > 0, f"{path}.lr", "must be positive")
        if a.kind == "npp":
            _require(0 <= a.fraction < 1, f"{path}.fraction", "fraction lies in [0, 1)")
        if a.kind == "rescale":
            _require(0 < a.scale_low <= a.scale_high, f"{path}.scale_low",
                     "need 0 < scale_low <= scale_high")
    return cfg


def _build(dc_type, value, path: str):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    known = {f.name: f for f in dataclasses.fields(dc_type)}
    unknown = set(value) - set(known)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    kwargs = {}
    for key, val in value.items():
        sub = f"{path}.{key}" if path else key
        if key == "attacks":
            if not isinstance(val, list):
                raise ConfigError(f"{sub}: expected a list")
            kwargs[key] = [_build(AttackSpec, item, f"{sub}[{i}]") for i, item in enumerate(val)]
        elif key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], val, sub)
        else:
            kwargs[key] = val
    try:
        return dc_type(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or dc_type.__name__}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    return validate_config(_build(ExperimentConfig, raw, ""))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
