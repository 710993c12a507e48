"""Day-recurrent training: warm-started weights + optimizer state, prequential
holdout evaluation, and bit-exact checkpointing.

Each simulated day is one training epoch over seeded mini-batches. Before a
day is ever trained on, it is scored as the holdout for the previous day, so
no metric ever sees data that already produced a gradient.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import config as C
from . import losses as L
from . import serialize as S
from .autodiff import Adam, Tape, check_names
from .model import Cam2Model, check_decoupling
from .schema import Schema, schema_from_rows


day_data_from_log = S.day_data_from_log  # the day record is defined next to its file format


class SequencingError(ValueError):
    """Days must be trained strictly in order, each exactly once."""


class NonFiniteMetricError(RuntimeError):
    """A holdout NE is NaN or infinite: the run diverged or read bad data."""


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
        self.optimizer = Adam(model.parameters(), lr=train_cfg.lr, betas=train_cfg.betas,
                              eps=train_cfg.eps)
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


def check_finite_ne(r: MetricsRow):
    """Raise NonFiniteMetricError if the row's NE, per task or aggregated, is
    not finite."""
    if not np.all(np.isfinite((*r.ne_per_task, r.ne_aggregated))):
        raise NonFiniteMetricError(
            f"{r.variant} seed {r.seed}: holdout day {r.day} NE is not finite "
            f"(aggregated {r.ne_aggregated}, per task {list(r.ne_per_task)})")


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
        "schema_hash": state.model.schema.hash,
        "last_day": state.last_day,
        "params": {p.name: p.value for p in state.model.parameters()},
        "adam": state.optimizer.state,
    }
    S.save_container(path, payload)


def _refusal(path, key: str, message) -> S.CheckpointError:
    return S.CheckpointError(f"checkpoint {path} {key!r}: {message}")


@contextlib.contextmanager
def _checking(path, key: str):
    """Re-raise a ValueError from reading the checkpoint's `key` as a
    CheckpointError that names the file and the key."""
    try:
        yield
    except ValueError as e:
        raise _refusal(path, key, e) from None


def load_checkpoint(path, expect_config_hash: str | None = None) -> TrainState:
    payload = S.load_container(path, keys=("config_hash", "model_config", "train_config",
                                           "schema", "schema_hash", "last_day", "params",
                                           "adam"))
    last_day = payload["last_day"]
    if type(last_day) is not int or last_day < -1:
        raise _refusal(path, "last_day", f"must be an integer >= -1, got {last_day!r}")
    with _checking(path, "schema"):
        schema = schema_from_rows(payload["schema"])
    with _checking(path, "model_config"):
        model_cfg = C._from_dict(C.ModelConfig, payload["model_config"])
    with _checking(path, "train_config"):
        train_cfg = C._from_dict(C.TrainConfig, payload["train_config"])
    config_hash = state_config_hash(model_cfg, train_cfg)
    for key, derived in (("config_hash", config_hash), ("schema_hash", schema.hash)):
        if payload[key] != derived:
            raise _refusal(path, key, f"{payload[key]!r} is not {derived}, the hash of "
                                      "what the checkpoint stores")
    if expect_config_hash is not None and config_hash != expect_config_hash:
        raise _refusal(path, "config_hash", f"trained under config {config_hash}, "
                                            f"not {expect_config_hash}")
    with _checking(path, "schema"):  # the model's own needs of the schema
        model = Cam2Model(model_cfg, schema)
    params = {p.name: p for p in model.parameters()}
    with _checking(path, "params"):
        check_names(f"{model_cfg.variant} model's parameter map", payload["params"], params)
        for name, p in params.items():
            p.value = payload["params"][name]  # the setter refuses another shape
    state = TrainState(model, train_cfg)
    with _checking(path, "adam"):
        state.optimizer.load_state_dict(payload["adam"])
    state.last_day = last_day
    return state


def resume_experiment(state: TrainState, days: list):
    """Prequential loop: evaluate day d+1, after having trained through d.
    Days the state has already trained on are skipped, so a checkpointed
    run continues over the remaining days. A diverged run stops at its first
    non-finite holdout NE (check_finite_ne)."""
    rows = []
    for d in range(len(days) - 1):
        if days[d]["day"] <= state.last_day:
            continue
        losses = train_day(state, days[d])
        ne, agg = evaluate_ne(state.model, days[d + 1])
        rows.append(MetricsRow(state.model.config.variant, state.model.config.seed,
                               days[d + 1]["day"], ne, agg, losses))
        check_finite_ne(rows[-1])
    return state, rows
