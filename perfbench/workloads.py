"""The three confrank benchmark workloads.

Each workload drives the package only through public functions of
``confrank.*`` and is built from the run's seed alone. A workload has a
``setup`` and a ``measure`` that either runs a closed loop for a wall-clock
budget (untraced runs) or a fixed amount of work (traced runs, so per-layer
counts repeat exactly between commits).

The gated end-to-end metric shared by every workload besides set-up time and
peak RSS is ``op_ms``, the 1st percentile latency of the workload's repeated
operation: a training step, a day-file round trip of a 256-event slice, or a
Proposed rank request. On a shared host whose speed drifts by tens of percent
over tens of seconds, the fastest of thousands of millisecond-scale ops
tracks the program's own cost far more steadily than a median or a wall-clock
rate. The medians, tails and throughputs a user sees are printed as the
workload's own metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import shutil
import time

import numpy as np

from confrank import cli
from confrank import config as C
from confrank import datagen as D
from confrank import evalrank as E
from confrank import serialize as S
from confrank import trainer as T
from confrank.autodiff import Adam
from confrank.model import Cam2Model
from confrank.schema import default_schema

TRAIN_DAYS = 4  # train-proposed: prequential prefix of 4 train days + 1 holdout day
SERVE_CANDIDATES = 100
SERVE_K = 10
SERVE_MODELS = ("Baseline", "Proposed")
TRACED_REQUESTS = 600
SLICE_EVENTS = 256  # data-io: events per day-file slice in the round-trip loop
TRACED_SLICES = 200


@dataclasses.dataclass
class Scale:
    """Configs a workload runs at."""

    data: C.DataConfig
    model: C.ModelConfig
    train: C.TrainConfig = dataclasses.field(default_factory=C.TrainConfig)
    eval: C.EvalConfig = dataclasses.field(default_factory=C.EvalConfig)


@dataclasses.dataclass
class Outcome:
    """One measure() call: shared metrics, the workload's own named metrics
    (name, value, unit, note), ops attempted and the failures among them."""

    e2e: dict
    report: list
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    requests: int = 0
    dataset_bytes: float = 0.0
    samples: dict = dataclasses.field(default_factory=dict)  # timing name -> seconds

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def tail_percentile(n: int):
    """Highest of the usual tail percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def timing_report(name: str, samples_s: list) -> list:
    """Median, p99 and the highest percentile with ten samples beyond it, in ms."""
    ms = np.asarray(samples_s) * 1e3
    n = ms.size
    out = [(f"{name}_p50", float(np.median(ms)), "ms", f"n={n}")]
    for p in sorted({99.0, tail_percentile(n) or 99.0}):
        beyond = int(n * (1.0 - p / 100.0))
        out.append((f"{name}_p{p:g}", float(np.percentile(ms, p)), "ms",
                    f"n={n}, {beyond} beyond"))
    return out


def budget(seconds: float, fixed_work: bool, fixed_iterations: int):
    """Iteration indices: a fixed count for traced runs, otherwise as many as
    start within the wall budget (always at least one)."""
    t0 = time.perf_counter()
    i = 0
    while (i < fixed_iterations if fixed_work
           else i == 0 or time.perf_counter() - t0 < seconds):
        yield i
        i += 1


class _StepClock:
    """Times each optimizer step from the end of the previous `Adam.step` (or
    from `start()`) to the end of this one: batch gather, causal labels,
    forward, backward and Adam. With a tracer it also labels the tracer's
    context with the step id from `Adam.zero_grads` to the end of `Adam.step`."""

    def __init__(self, tracer):
        self.samples = []
        self._t0 = time.perf_counter()
        step = Adam.step
        clock = self

        def timed_step(opt):
            out = step(opt)
            now = time.perf_counter()
            clock.samples.append(now - clock._t0)
            clock._t0 = now
            if tracer is not None:
                tracer.context = 0
            return out

        Adam.step = timed_step
        if tracer is not None:
            zero_grads = Adam.zero_grads

            def labelled_zero_grads(opt):
                tracer.context = len(clock.samples) + 1
                return zero_grads(opt)

            Adam.zero_grads = labelled_zero_grads

    def start(self):
        self.samples.clear()
        self._t0 = time.perf_counter()


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _make_days(scale: Scale, n_days: int):
    """World, schema and the first n_days DayLogs, all in memory."""
    world = D.generate_world(scale.data)
    schema = default_schema(scale.data.k_topics, scale.data.n_age_buckets,
                            scale.data.n_content_types)
    return world, schema, list(itertools.islice(D.simulate_days(world, schema), n_days))


# -- train-proposed -----------------------------------------------------


class TrainProposed:
    """Prequential run_experiment of the Proposed variant at default configs."""

    name = "train-proposed"

    def __init__(self, scale: Scale, workdir: str, tracer=None):
        self.scale, self.tracer = scale, tracer
        self.steps = _StepClock(tracer)

    def setup(self):
        n = min(TRAIN_DAYS + 1, self.scale.data.n_days)
        _, self.schema, logs = _make_days(self.scale, n)
        self.days = [T.day_data_from_log(log, self.schema.hash) for log in logs]

    def measure(self, seconds: float, fixed_work: bool) -> Outcome:
        train_events = sum(d["features"].shape[0] for d in self.days[:-1])
        out = Outcome({}, [])
        self.steps.start()
        runs, elapsed = [], 0.0
        for _ in budget(seconds, fixed_work, 1):
            t0 = time.perf_counter()
            try:
                _, rows = T.run_experiment(self.scale.model, self.scale.train, self.days,
                                           self.schema, audit_first_batch=True)
            except AssertionError as e:  # the decoupling audit refused the model
                out.check(False, f"decoupling audit failed: {e}")
                continue
            elapsed += time.perf_counter() - t0
            runs.append([r.ne_aggregated for r in rows])

        out.attempted += len(self.steps.samples)
        for ne in runs:
            out.check(all(math.isfinite(v) for v in ne), f"non-finite holdout NE {ne}")
            out.check(ne == runs[0], f"repeat gave holdout NE {ne}, first gave {runs[0]}")
        if not runs:
            return out
        out.samples = {"step_s": list(self.steps.samples)}
        # The 1st percentile stays above the last, partial batch of each day
        # (4 of ~625 steps per repeat) and below the first step of each
        # run_experiment and day, which also holds the audit or the previous
        # day's evaluation.
        out.e2e = {"op_ms": float(np.percentile(self.steps.samples, 1)) * 1e3}
        out.report = [
            ("train_events_per_s", len(runs) * train_events / elapsed, "events/s",
             f"{len(runs)} runs"),
            *timing_report("step_ms", self.steps.samples),
            ("holdout_ne", float(np.mean(runs[0])), "NE", f"{len(runs[0])} holdout days"),
        ]
        return out


# -- data-io ------------------------------------------------------------


class DataIO:
    """`confrank gen-data` of the default dataset and the `train` load path,
    then a closed loop of day-file round trips on short slices of the days."""

    name = "data-io"

    def __init__(self, scale: Scale, workdir: str, tracer=None):
        self.scale, self.workdir, self.tracer = scale, workdir, tracer

    def setup(self):
        """The in-memory reference dataset the loaded files must equal."""
        world = D.generate_world(self.scale.data)
        self.schema = default_schema(self.scale.data.k_topics,
                                     self.scale.data.n_age_buckets,
                                     self.scale.data.n_content_types)
        self.reference = list(D.simulate_days(world, self.schema))
        self.config_path = os.path.join(self.workdir, "data-config.json")
        with open(self.config_path, "w") as fh:
            json.dump({"data": C.to_dict(self.scale.data)}, fh)

    def _slice(self, i: int) -> D.DayLog:
        """The i-th round-trip input: SLICE_EVENTS consecutive events of one day."""
        log = self.reference[i % len(self.reference)]
        lo = (i // len(self.reference) * SLICE_EVENTS) % max(1, log.n_events - SLICE_EVENTS)
        part = slice(lo, lo + SLICE_EVENTS)
        return D.DayLog(log.day, log.user_ids[part], log.item_ids[part], log.labels[part],
                        log.x_scalar[part], log.features[part],
                        log.conformity_component[part], log.relevance_component[part])

    def measure(self, seconds: float, fixed_work: bool) -> Outcome:
        out = Outcome({}, [])
        target = os.path.join(self.workdir, "dataset")
        argv = ["gen-data", "--config", self.config_path, "--out", target,
                "--seed", str(self.scale.data.seed)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        gen_s = time.perf_counter() - t0
        out.check(code == cli.EXIT_OK, f"gen-data exited {code}")
        t0 = time.perf_counter()
        try:
            _, schema, days = cli._dataset_days(target)
        except cli.CliError as e:
            out.check(False, f"dataset load refused: {e}")
            return out
        load_s = time.perf_counter() - t0
        out.dataset_bytes = sum(os.path.getsize(os.path.join(target, f))
                                for f in os.listdir(target))
        shutil.rmtree(target)
        with _paused(self.tracer):
            out.check(schema.hash == self.schema.hash, "loaded schema differs")
            out.check(len(days) == len(self.reference),
                      f"loaded {len(days)} day files, generated {len(self.reference)}")
            for day, log in zip(days, self.reference):
                out.check(_bit_equal(day, log),
                          f"day file {log.day} is not bit-equal to simulate_days")

        path = os.path.join(self.workdir, "slice.tsv")
        round_trip_s = []
        for i in budget(seconds, fixed_work, TRACED_SLICES):
            part = self._slice(i)
            t0 = time.perf_counter()
            S.write_day_file(path, part, self.schema.hash)
            back = S.read_day_file(path)
            round_trip_s.append(time.perf_counter() - t0)
            with _paused(self.tracer):
                out.check(_bit_equal(back, part), f"slice {i} did not round-trip bit-equal")

        events = sum(log.n_events for log in self.reference)
        out.samples = {"gen_s": [gen_s], "load_s": [load_s], "round_trip_s": round_trip_s}
        out.e2e = {"op_ms": float(np.percentile(round_trip_s, 1)) * 1e3}
        out.report = [
            ("gen_events_per_s", events / gen_s, "events/s", "n=1"),
            ("load_events_per_s", events / load_s, "events/s", "n=1"),
            ("dataset_mb", out.dataset_bytes / 1e6, "MB", f"{len(days)} day files"),
            *timing_report("round_trip_ms", round_trip_s),
        ]
        return out


def _bit_equal(day: dict, log: D.DayLog) -> bool:
    """A loaded day-file dict holds exactly the arrays of the DayLog written."""
    pairs = [(day["user_ids"], log.user_ids), (day["item_ids"], log.item_ids),
             (day["features"], log.features), (day["x"], log.x_scalar),
             (day["labels"], log.labels),
             (day["conformity_component"], log.conformity_component),
             (day["relevance_component"], log.relevance_component)]
    return day["day"] == log.day and all(
        a.dtype == b.dtype and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        for a, b in pairs)


# -- serve-rank ---------------------------------------------------------


class ServeRank:
    """Closed-loop top-k requests against checkpoint-loaded models, then replay."""

    name = "serve-rank"

    def __init__(self, scale: Scale, workdir: str, tracer=None):
        self.scale, self.workdir, self.tracer = scale, workdir, tracer
        if tracer is not None:
            _StepClock(tracer)  # labels set-up training steps with their step id

    def setup(self):
        cfg = self.scale.data
        world, schema, logs = _make_days(self.scale, cfg.n_days)
        days = [T.day_data_from_log(log, schema.hash) for log in logs]
        self.models, self.roundtrip = {}, {}
        probe = days[-1]["features"][:1024]
        for variant in SERVE_MODELS:
            model_cfg = dataclasses.replace(self.scale.model, variant=variant)
            state = T.TrainState(Cam2Model(model_cfg, schema), self.scale.train)
            T.train_day(state, days[0])
            path = os.path.join(self.workdir, f"checkpoint_{variant}.json")
            T.save_checkpoint(state, path)
            loaded = T.load_checkpoint(path)
            with _paused(self.tracer):
                before = state.model.predict(probe)
                after = loaded.model.predict(probe)
            self.roundtrip[variant] = before.tobytes() == after.tobytes()
            self.models[variant] = loaded.model
        history = D.History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            history.update(log, world)
        self.world, self.schema, self.history = world, schema, history
        self.day = cfg.n_days - 1
        self.live = np.flatnonzero(world.birth_day <= self.day)

    def _request(self, i: int):
        rng = np.random.default_rng([self.scale.data.seed, self.day, i])
        user = int(rng.integers(self.world.n_users))
        n = min(SERVE_CANDIDATES, self.live.size)
        items = rng.choice(self.live, size=n, replace=False)
        return user, items

    def measure(self, seconds: float, fixed_work: bool) -> Outcome:
        out = Outcome({}, [])
        for variant, same in self.roundtrip.items():
            out.check(same, f"{variant} checkpoint does not predict bit-identically after load")
        latency = {v: [] for v in SERVE_MODELS}
        rows = 0
        for i in budget(seconds, fixed_work, TRACED_REQUESTS):
            variant = SERVE_MODELS[i % len(SERVE_MODELS)]
            model = self.models[variant]
            user, items = self._request(i)
            if self.tracer is not None:
                self.tracer.context = -(i + 1)
            t0 = time.perf_counter()
            feats = D.derive_features(self.world, self.history, np.full(items.size, user),
                                      items, self.schema)
            ranked = E.rank_topk(model, feats, items, SERVE_K, user_id=user,
                                 schema_hash=self.schema.hash)
            latency[variant].append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.context = 0
            rows += items.size
            with _paused(self.tracer):
                out.check(self._topk_matches(model, feats, items, ranked),
                          f"request {i}: top-k differs from a full sort")
        out.requests = sum(len(v) for v in latency.values())

        models = self.models
        t0 = time.perf_counter()
        rep = E.counterfactual_replay(models, self.world, self.history, self.schema,
                                      self.scale.eval, day=self.day, seed=self.scale.data.seed)
        replay_s = time.perf_counter() - t0
        out.check(all(np.isfinite(rep[v]["total_engagement"]) for v in models),
                  "replay engagement is not finite")

        all_latency = latency["Baseline"] + latency["Proposed"]
        out.samples = {f"rank_{v}_s": latency[v] for v in SERVE_MODELS}
        out.e2e = {"op_ms": float(np.percentile(latency["Proposed"], 1)) * 1e3}
        out.report = [
            *timing_report("rank_ms", all_latency),
            ("rank_rows_per_s", rows / sum(all_latency), "rows/s", f"n={len(all_latency)}"),
            ("replay_s", replay_s, "s", "n=1"),
        ]
        return out

    def _topk_matches(self, model, feats, items, ranked) -> bool:
        scores = E.final_score(model.predict(feats, self.schema.hash))
        order = sorted(range(items.size), key=lambda j: (-scores[j], items[j]))[:SERVE_K]
        return (ranked.item_ids.tolist() == items[order].tolist()
                and ranked.scores.tobytes() == scores[order].tobytes())


WORKLOADS = {w.name: w for w in (TrainProposed, DataIO, ServeRank)}
