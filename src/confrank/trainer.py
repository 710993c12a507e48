"""Day-recurrent training: warm-started weights + optimizer state, prequential
holdout evaluation, and bit-exact checkpointing.

Each simulated day is one training epoch over seeded mini-batches. Before a
day is ever trained on, it is scored as the holdout for the previous day, so
no metric ever sees data that already produced a gradient.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import config as C
from . import losses as L
from . import serialize as S
from .autodiff import Tape
from .model import Cam2Model, check_decoupling
from .schema import FeatureSpec, Schema, validate_schema


day_data_from_log = S.day_data_from_log  # the day record is defined next to its file format


class SequencingError(ValueError):
    """Days must be trained strictly in order, each exactly once."""


@dataclass
class MetricsRow:
    variant: str
    seed: int
    day: int  # holdout day the NE numbers refer to
    ne_per_task: tuple
    ne_aggregated: float
    train_losses: dict  # train_day's record for the day before `day`


def state_config_hash(model_cfg: C.ModelConfig, train_cfg: C.TrainConfig) -> str:
    """The config hash a TrainState (and its checkpoint) is stamped with."""
    return C.config_hash({"model": C.to_dict(model_cfg), "train": C.to_dict(train_cfg)})


class TrainState:
    """Model + optimizer moments + day counter; the warm-start unit."""

    def __init__(self, model: Cam2Model, train_cfg: C.TrainConfig):
        self.model = model
        self.train_cfg = train_cfg
        self.optimizer = model.make_optimizer(train_cfg.lr, train_cfg.betas, train_cfg.eps)
        self.last_day = -1
        self.config_hash = state_config_hash(model.config, train_cfg)


def train_day(state: TrainState, day_data: dict) -> dict:
    """One seeded-shuffle epoch over a day's events; mutates state in place.

    Returns the day's loss record: for each Cam2Model.loss_terms name and for
    "objective" (the optimized weighted sum), the mean over the day's events
    of its batch values, each batch weighted by its size. An empty day
    returns {}."""
    day = day_data["day"]
    if day != state.last_day + 1:
        raise SequencingError(
            f"got day {day} but last completed day is {state.last_day}")
    n = day_data["features"].shape[0]
    if n == 0:
        state.last_day += 1
        return {}

    state.model.check_schema(day_data["schema_hash"])
    rng = np.random.default_rng([state.train_cfg.shuffle_seed, day])
    perm = rng.permutation(n)
    bs = state.train_cfg.batch_size

    sums = {}
    for lo in range(0, n, bs):
        idx = perm[lo : lo + bs]
        state.optimizer.zero_grads()
        tape = Tape()
        objective, _, terms = state.model.training_objective(
            tape, day_data["features"][idx], day_data["labels"][idx], day_data["x"][idx])
        tape.backward(objective)
        state.optimizer.step()

        for name, node in (*terms.items(), ("objective", objective)):
            sums[name] = sums.get(name, 0.0) + len(idx) * float(node.data)

    state.last_day += 1
    return {name: s / n for name, s in sums.items()}


def evaluate_ne(model: Cam2Model, day_data: dict) -> tuple:
    """(per-task NE tuple, aggregated NE) on a holdout day."""
    preds = model.predict(day_data["features"], day_data["schema_hash"])
    ne = tuple(
        L.normalized_cross_entropy(preds[:, t], day_data["labels"][:, t])
        for t in range(preds.shape[1])
    )
    return ne, float(np.mean(ne))


def run_experiment(model_cfg: C.ModelConfig, train_cfg: C.TrainConfig,
                   days: list, schema: Schema, audit_first_batch: bool = True):
    """A fresh model, its decoupling audit on the first batch of the first
    day that has events (none if no day has any), then the prequential loop
    of resume_experiment.

    Returns (final TrainState, list of MetricsRow). `days` is a list of
    day records (see serialize.day_data_from_log) in chronological order.
    """
    if len(days) < 2:
        raise SequencingError("need at least one train day and one holdout day")
    model = Cam2Model(model_cfg, schema)
    state = TrainState(model, train_cfg)

    if audit_first_batch:
        first = next((d for d in days if d["features"].shape[0]), None)
        if first is not None:
            check_decoupling(model, first["features"][:64], first["labels"][:64],
                             first["x"][:64])
    return resume_experiment(state, days)


# -- checkpoints --------------------------------------------------------


def save_checkpoint(state: TrainState, path):
    payload = {
        "config_hash": state.config_hash,
        "model_config": C.to_dict(state.model.config),
        "train_config": C.to_dict(state.train_cfg),
        "schema": [list(dataclasses.astuple(s)) for s in state.model.schema.specs],
        "schema_hash": state.model.schema_hash,
        "last_day": state.last_day,
        "params": {p.name: S.pack_array(p.value) for p in state.model.parameters()},
        "adam": {
            name: {"m": S.pack_array(st["m"]), "v": S.pack_array(st["v"]), "t": st["t"]}
            for name, st in state.optimizer.state.items()
        },
    }
    S.save_container(path, payload)


def load_checkpoint(path, expect_config_hash: str | None = None) -> TrainState:
    payload = S.load_container(path, keys=("config_hash", "model_config", "train_config",
                                           "schema", "last_day", "params", "adam"))
    if expect_config_hash is not None and payload["config_hash"] != expect_config_hash:
        raise S.CheckpointError(
            f"checkpoint was trained under config {payload['config_hash']}, "
            f"not {expect_config_hash}")
    schema = validate_schema([FeatureSpec(*s) for s in payload["schema"]])
    model_cfg = C._from_dict(C.ModelConfig, payload["model_config"])
    train_cfg = C._from_dict(C.TrainConfig, payload["train_config"])
    model = Cam2Model(model_cfg, schema)
    for p in model.parameters():
        if p.name not in payload["params"]:
            raise S.CheckpointError(f"checkpoint missing parameter {p.name}")
        arr = S.unpack_array(payload["params"][p.name])
        if arr.shape != p.value.shape:
            raise S.CheckpointError(f"parameter {p.name} shape mismatch")
        p.value = arr
    state = TrainState(model, train_cfg)
    state.optimizer.load_state_dict({
        name: {"m": S.unpack_array(st["m"]), "v": S.unpack_array(st["v"]), "t": st["t"]}
        for name, st in payload["adam"].items()
    })
    state.last_day = payload["last_day"]
    return state


def resume_experiment(state: TrainState, days: list):
    """Prequential loop: evaluate day d+1, after having trained through d.
    Days the state has already trained on are skipped, so a checkpointed
    run continues over the remaining days."""
    rows = []
    for d in range(len(days) - 1):
        if days[d]["day"] <= state.last_day:
            continue
        losses = train_day(state, days[d])
        ne, agg = evaluate_ne(state.model, days[d + 1])
        rows.append(MetricsRow(state.model.config.variant, state.model.config.seed,
                               days[d + 1]["day"], ne, agg, losses))
    return state, rows
