"""Flat key = value run configuration with section prefixes.

Sections: ``data.*`` (paths and dataset variant), ``run.*`` (output directory
and master seed), ``train.*``, ``augment.*`` and ``model.*``; every field of
the section's dataclass is a key. Unknown keys are rejected so typos fail
fast; keys starting with ``manifest.`` are ignored, which lets a run manifest
double as a config file. ``train.seed`` and ``augment.rng_seed`` default to
``run.seed`` unless set explicitly.

A key of ``RETIRED_KEYS`` names a protocol value that is now a constant; so
that older manifests parse, it is accepted at that value only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .augment import MIXUP_ALPHA, SHIFT_RANGE_SEMITONES, STRETCH_RANGE, AugmentConfig
from .model import ACRNNConfig
from .train import L2_COEFF, LR_DECAY_FACTOR, MOMENTUM, TrainConfig

RETIRED_KEYS = {"train.lr_decay_factor": LR_DECAY_FACTOR, "train.momentum": MOMENTUM,
                "train.l2_coeff": L2_COEFF, "augment.stretch_range": STRETCH_RANGE,
                "augment.shift_range_semitones": SHIFT_RANGE_SEMITONES,
                "augment.mixup_alpha": MIXUP_ALPHA, "model.rnn_attention_form": "mlp"}


class ConfigError(ValueError):
    """Run configuration text is malformed or carries unknown keys."""


@dataclass
class RunConfig:
    meta_csv: str = ""
    audio_dir: str = ""
    cache: str = ""
    variant: str = "esc50"
    out_dir: str = "runs"
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ACRNNConfig = field(default_factory=ACRNNConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def augment(self):
        return self.train.augmentation


def _sections(config):
    """(prefix, object, field names) per section of a RunConfig, in dump order."""
    def names(obj):
        return [f.name for f in fields(obj) if f.name != "augmentation"]
    return (("data", config, ["meta_csv", "audio_dir", "cache", "variant"]),
            ("run", config, ["out_dir", "seed"]),
            ("train", config.train, names(config.train)),
            ("augment", config.augment, names(config.augment)),
            ("model", config.model, names(config.model)))


def _coerce(raw, current, key):
    """raw as the type of the field's current value; a tuple entry with a '.'
    or an 'e' is a float, else an int."""
    raw, target_type = raw.strip(), type(current)
    try:
        if target_type is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is tuple:
            return tuple(float(v) if "." in v or "e" in v.lower() else int(v)
                         for v in raw.split(",") if v.strip())
        return target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config(text):
    """RunConfig from flat key = value text (see module docstring)."""
    sections = {prefix: (obj, names) for prefix, obj, names in _sections(RunConfig())}
    values = {prefix: {} for prefix in sections}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key.startswith("manifest."):
            continue
        if key in RETIRED_KEYS:
            fixed = RETIRED_KEYS[key]
            if _coerce(raw, fixed, key) != fixed:
                raise ConfigError(f"line {line_no}: {key} is fixed at {fixed!r}, "
                                  f"got {raw.strip()!r}")
            continue
        section, _, name = key.partition(".")
        if not name:
            raise ConfigError(f"line {line_no}: key {key!r} has no section prefix")
        obj, names = sections.get(section, (None, ()))
        if name not in names:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[section][name] = _coerce(raw, getattr(obj, name), key)
    seed = values["run"].get("seed", RunConfig.seed)
    values["train"].setdefault("seed", seed)
    values["augment"].setdefault("rng_seed", seed)
    try:
        train = TrainConfig(augmentation=AugmentConfig(**values["augment"]), **values["train"])
        return RunConfig(train=train, model=ACRNNConfig(**values["model"]), **values["data"],
                         **values["run"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(config):
    """The flat key = value text for a RunConfig (parse_config's inverse)."""
    lines = []
    for prefix, obj, names in _sections(config):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{prefix}.{name} = {value}")
    return "\n".join(lines) + "\n"
