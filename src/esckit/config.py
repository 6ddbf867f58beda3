"""Flat key = value run configuration with section prefixes.

Sections: ``data.*`` (paths and dataset variant), ``run.*`` (output directory
and the one seed, ``TrainConfig.seed``), ``train.*``, ``augment.*`` and
``model.*``; every other field of the section's dataclass is a key. Unknown
keys are rejected so typos fail fast; keys starting with ``manifest.`` are
ignored, which lets a run manifest double as a config file.

So that older manifests parse, a key of ``RETIRED_KEYS`` (a protocol constant,
or the model input size, which the cache format fixes) is accepted at its
fixed value only, and one of ``SEED_COPIES`` only when it equals ``run.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .augment import MIXUP_ALPHA, SHIFT_RANGE_SEMITONES, STRETCH_RANGE
from .cachefile import CACHE_SEGMENT_SHAPE
from .dataset import VARIANTS
from .model import ACRNNConfig
from .train import L2_COEFF, LR_DECAY_FACTOR, MOMENTUM, TrainConfig

RETIRED_KEYS = {"train.lr_decay_factor": LR_DECAY_FACTOR, "train.momentum": MOMENTUM,
                "train.l2_coeff": L2_COEFF, "augment.stretch_range": STRETCH_RANGE,
                "augment.shift_range_semitones": SHIFT_RANGE_SEMITONES,
                "augment.mixup_alpha": MIXUP_ALPHA, "model.rnn_attention_form": "mlp",
                "model.input_bands": CACHE_SEGMENT_SHAPE[0],
                "model.input_frames": CACHE_SEGMENT_SHAPE[1]}
SEED_COPIES = ("train.seed", "augment.rng_seed")


class ConfigError(ValueError):
    """Run configuration text is malformed or carries unknown keys."""


@dataclass
class RunConfig:
    meta_csv: str = ""
    audio_dir: str = ""
    cache: str = ""
    variant: str = "esc50"
    out_dir: str = "runs"
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ACRNNConfig = field(default_factory=ACRNNConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def augment(self):
        return self.train.augmentation


def _keys(config):
    """(key, holder, field name) per key of a RunConfig, in dump order; the
    train part holds run.seed."""
    parts = (("train", config.train), ("augment", config.augment), ("model", config.model))
    return ([(f"data.{name}", config, name) for name in ("meta_csv", "audio_dir", "cache",
                                                          "variant")]
            + [("run.out_dir", config, "out_dir"), ("run.seed", config.train, "seed")]
            + [(f"{prefix}.{f.name}", part, f.name) for prefix, part in parts
               for f in fields(part) if f.name != "augmentation"
               and f"{prefix}.{f.name}" not in (*RETIRED_KEYS, *SEED_COPIES)])


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
    config = RunConfig()
    keys = {key: (holder, name) for key, holder, name in _keys(config)}
    seed_copies = []
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
        if key in SEED_COPIES:
            seed_copies.append((line_no, key, _coerce(raw, 0, key)))
            continue
        if "." not in key:
            raise ConfigError(f"line {line_no}: key {key!r} has no section prefix")
        if key not in keys:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        holder, name = keys[key]
        setattr(holder, name, _coerce(raw, getattr(holder, name), key))
    try:
        # replace() reruns each part's validation on the values set above
        train = replace(config.train, augmentation=replace(config.augment))
        config = replace(config, train=train, model=replace(config.model))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for line_no, key, seed in seed_copies:
        if seed != config.train.seed:
            raise ConfigError(f"line {line_no}: {key} = {seed} differs from run.seed = "
                              f"{config.train.seed}; run.seed is the only seed")
    return config


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(config):
    """The flat key = value text for a RunConfig (parse_config's inverse)."""
    lines = []
    for key, holder, name in _keys(config):
        value = getattr(holder, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
