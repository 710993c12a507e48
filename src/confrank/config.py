"""Dataclass configs for data generation, model, training and evaluation.

Everything the generator or trainer might vary lives here with its default,
so a run is fully described by (config, seed). Configs serialize to plain
dicts for hashing and for the JSON run-config file the CLI reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .schema import ATTRIBUTE, STATISTICAL


@dataclass(frozen=True)
class VariantSpec:
    """The wiring choices one model variant makes; see model.py."""

    causal: bool  # builds the model.CAUSAL modules
    inject_at: str = "bottom"  # causal embeddings join the head input or its last layer
    stop_grad: bool = True  # task losses cannot reach the causal modules
    tower_buckets: tuple = (STATISTICAL, ATTRIBUTE)  # per model.CAUSAL module; None = all
    joint_mix: bool = False  # causal targets blended with the anchor label


VARIANTS = {
    "Baseline": VariantSpec(causal=False),
    "Proposed": VariantSpec(causal=True),
    "TaskArch": VariantSpec(causal=True, inject_at="last"),
    "JointLoss": VariantSpec(causal=True, stop_grad=False, joint_mix=True),
    "AllFeats": VariantSpec(causal=True, tower_buckets=(None, None)),
}


class ConfigError(ValueError):
    """Bad or unknown config keys/values."""


@dataclass
class DataConfig:
    n_users: int = 2000
    n_items: int = 5000
    k_topics: int = 8
    n_tasks: int = 3
    n_days: int = 14
    zipf_s: float = 1.1
    exposure_tilt: float = 0.7  # exposure ∝ popularity^tilt
    mean_activity: float = 10.0  # expected impressions per user per day
    casual_fraction: float = 0.06  # share of users with drastically lower activity
    casual_activity_scale: float = 0.01
    new_items_per_day: int = 50
    conformity_beta: tuple = (2.0, 5.0)  # Beta(a, b) prior on user conformity
    # per-task logit coefficients: conformity gain, relevance gain, intercept
    task_alpha: tuple = (1.6, 1.2, 0.8)
    task_beta: tuple = (2.2, 2.6, 1.8)
    task_gamma: tuple = (-2.2, -2.6, -3.0)
    n_age_buckets: int = 6
    n_content_types: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1:
            raise ConfigError("n_users and n_items must be >= 1")
        if self.k_topics < 3:
            raise ConfigError(f"k_topics must be >= 3 (each item draws up to 3 "
                              f"distinct topics), got {self.k_topics}")
        if self.n_days < 2:
            raise ConfigError("need at least one train day and one test day")
        for name in ("task_alpha", "task_beta", "task_gamma"):
            if len(getattr(self, name)) != self.n_tasks:
                raise ConfigError(f"{name} must have one entry per task")
        if not 0.0 <= self.casual_fraction < 1.0:
            raise ConfigError("casual_fraction must be in [0, 1)")
        if self.casual_activity_scale <= 0.0:
            raise ConfigError("casual_activity_scale must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ModelConfig:
    variant: str = "Proposed"
    shared_widths: tuple = (128, 64)
    head_widths: tuple = (32, 1)
    tower_width: int = 32
    tower_blocks: int = 2
    embed_dim: int = 8  # per categorical feature
    causal_embed_dim: int = 16  # width of each causal embedding
    task_weights: tuple = (1.0, 1.0, 1.0)
    conformity_weight: float = 0.3  # <name>_weight per model.CAUSAL module
    relevance_weight: float = 0.3
    mixture_weight: float = 0.1  # diagnostic mixture head, own loss term
    thresh: float = 0.6
    squared_causal_loss: bool = False
    joint_label_mix: float = 0.5  # JointLoss only: causal vs task label blend
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; choose one of {', '.join(VARIANTS)}"
            )
        if not self.shared_widths or not self.head_widths:
            raise ConfigError("shared_widths and head_widths need at least one layer")
        if min(*self.shared_widths, *self.head_widths, self.tower_width, self.embed_dim) < 1:
            raise ConfigError("every layer width, tower_width and embed_dim must be >= 1")
        if self.causal_embed_dim < 0:
            raise ConfigError("causal_embed_dim must be >= 0")
        if self.head_widths[-1] != 1:
            raise ConfigError("task heads must end in a single output")
        if any(w < 0 for w in self.task_weights) or not any(self.task_weights):
            raise ConfigError("task_weights must be >= 0 with at least one > 0")
        if min(self.conformity_weight, self.relevance_weight, self.mixture_weight) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    lr: float = 3e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    batch_size: int = 128
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (self.lr > 0 and self.eps > 0):
            raise ConfigError("lr and eps must be > 0")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError("betas must be two values in [0, 1)")
        if self.shuffle_seed < 0:
            raise ConfigError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")


@dataclass
class EvalConfig:
    replay_users: int = 300
    replay_candidates: int = 100
    replay_k: int = 10
    probe_samples: int = 10000


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seeds: tuple = (0, 1, 2, 3, 4)


def to_dict(cfg):
    """cfg in plain JSON types: each dataclass a dict, each tuple a list."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, (list, tuple)):
        return [to_dict(v) for v in cfg]
    return cfg


# the JSON types a field accepts, by the type of its default
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
            tuple: (list, tuple)}


def _check_type(where: str, value, default):
    if type(value) not in _ACCEPTS[type(default)]:
        raise ConfigError(f"{where} must be {type(default).__name__}, "
                          f"got {type(value).__name__} {value!r}")
    if isinstance(default, tuple) and default:
        for v in value:
            _check_type(f"each of {where}", v, default[0])


def _from_dict(cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            v = _from_dict(type(default), v)
        else:
            _check_type(f"{cls.__name__}.{f.name}", v, default)
            v = tuple(v) if isinstance(default, tuple) else v
        kwargs[f.name] = v
    return cls(**kwargs)


def run_config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        return run_config_from_dict(json.load(fh))


def config_hash(cfg) -> str:
    canon = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
