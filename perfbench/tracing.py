"""Span tracing of confrank from outside the package.

The tracer replaces public functions and methods of ``confrank.*`` with
wrappers that record one span per call: name, start, end, parent span and the
current step or request id. Spans live in flat in-memory columns and are
written out once, when the run ends. Self time is a span's duration minus the
time its direct children cover; Python's cyclic GC is recorded as spans too
(through ``gc.callbacks``), so collector pauses are not charged to whatever
span happened to trigger them.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TAPE_OPS = ("constant", "leaf", "add", "sub", "mul", "scale", "relu", "sigmoid",
            "log", "abs", "clip", "softmax", "sum", "mean", "matmul", "dense",
            "concat", "slice_cols", "embedding", "stop_gradient")
# Composite ops build their output from other tape ops; counting them too
# would count the same output array twice.
COMPOSITE_OPS = ("dense", "mean")
MODEL_GROUPS = ("shared_bottom", "conformity", "relevance", "task_heads")

GC_SPAN = "python.gc"
GEN_DATA_SPAN = "cli.gen_data"
DATASET_LOAD_SPAN = "cli.dataset_load"

_now = time.perf_counter_ns


def _file_size(path) -> int:
    return os.path.getsize(path)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ctx = array("q")
        self.size = array("q")
        self.stack: list[int] = []
        # current step id (> 0) or rank request id (< 0); 0 outside both
        self.context = 0
        self._on = [True]  # read by every wrapper's closure; paused() clears it
        self._gc_open: list[int] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.ctx.append(self.context)
        self.size.append(0)
        self.end.append(0)
        self.start.append(0)
        self.stack.append(i)
        self.start[i] = _now()
        return i

    def close(self, i: int):
        self.end[i] = _now()
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (used for the benchmark's own checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def wrap(self, fn, name: str, size=None):
        """Wrap fn so each call is a span; size(args, kwargs, result) -> int."""
        nid = self.name_id(name)
        on, open_, close, sizes = self._on, self.open, self.close, self.size

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if size is not None:
                sizes[i] = size(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function; each resumption is a span, so the span
        time is the time spent inside the generator, not in its consumer."""
        nid = self.name_id(name)
        on, open_, close = self._on, self.open, self.close

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid) if on[0] else -1
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    if i >= 0:
                        close(i)
                yield value

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if not self._on[0]:
            return
        if phase == "start":
            self._gc_open.append(self.open(self._gc_id))
        elif self._gc_open:
            self.close(self._gc_open.pop())

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced confrank function; stays in place until exit."""
        from confrank import (autodiff, cli, datagen, evalrank, labels, losses,
                              model, schema, serialize, trainer)

        def op_size(args, kwargs, out):
            return out.data.nbytes

        for kind in TAPE_OPS:
            size = None if kind in COMPOSITE_OPS else op_size
            self._patch_attr(autodiff.Tape, kind, f"autodiff.op.{kind}", size)
        self._patch_attr(autodiff.Tape, "backward", "autodiff.backward")
        self._patch_attr(autodiff.Adam, "step", "autodiff.adam_step")
        self._patch_attr(autodiff.Adam, "zero_grads", "autodiff.zero_grads")

        self._patch_attr(model.Cam2Model, "training_objective", "model.training_objective")
        self._patch_attr(model.Cam2Model, "forward", "model.forward")
        self._patch_attr(model.Cam2Model, "predict", "model.predict",
                         lambda a, k, out: out.shape[0])
        self._wrap_model_groups(model.Cam2Model)
        self._patch_function(model, "check_decoupling", "model.check_decoupling")

        self._patch_function(labels, "causal_labels", "labels.causal_labels")
        self._patch_function(losses, "normalized_cross_entropy",
                             "losses.normalized_cross_entropy")

        self._patch_function(trainer, "train_day", "trainer.train_day")
        self._patch_function(trainer, "evaluate_ne", "trainer.evaluate_ne")
        self._patch_function(trainer, "save_checkpoint", "trainer.save_checkpoint",
                             lambda a, k, out: _file_size(a[1]))
        self._patch_function(trainer, "load_checkpoint", "trainer.load_checkpoint")

        self._patch_function(datagen, "generate_world", "datagen.generate_world")
        self._patch_function(datagen, "simulate_days", "datagen.simulate_days",
                             generator=True)
        self._patch_attr(datagen.History, "update", "datagen.history_update")
        self._patch_function(datagen, "derive_features", "datagen.derive_features",
                             lambda a, k, out: out.shape[0])
        self._patch_function(datagen, "engagement_probability",
                             "datagen.engagement_probability")

        self._patch_function(serialize, "write_day_file", "serialize.write_day_file",
                             lambda a, k, out: _file_size(a[0]))
        self._patch_function(serialize, "read_day_file", "serialize.read_day_file",
                             lambda a, k, out: _file_size(a[0]))
        self._patch_function(serialize, "file_sha256", "serialize.file_sha256",
                             lambda a, k, out: _file_size(a[0]))
        self._patch_function(serialize, "save_container", "serialize.save_container",
                             lambda a, k, out: _file_size(a[0]))
        self._patch_function(serialize, "load_container", "serialize.load_container")

        self._patch_function(schema, "write_schema_file", "schema.write_schema_file")
        self._patch_function(schema, "read_schema_file", "schema.read_schema_file")

        self._patch_function(evalrank, "rank_topk", "evalrank.rank_topk")
        self._patch_function(evalrank, "counterfactual_replay",
                             "evalrank.counterfactual_replay")
        self._patch_function(evalrank, "tail_coverage", "evalrank.tail_coverage")

        self._patch_function(cli, "cmd_gen_data", GEN_DATA_SPAN)
        self._patch_function(cli, "_dataset_days", DATASET_LOAD_SPAN)

        self._gc_id = self.name_id(GC_SPAN)
        gc.callbacks.append(self._on_gc)

    def _patch_attr(self, owner, attr, name, size=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, size))

    def _patch_function(self, module, attr, name, size=None, generator=False):
        """Wrap module.attr and rebind every confrank module that imported it
        by name, so `from .x import f` call sites are traced as well."""
        orig = getattr(module, attr)
        traced = (self.wrap_generator(orig, name) if generator
                  else self.wrap(orig, name, size))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("confrank"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def _wrap_model_groups(self, cls):
        """Wrap each model instance's parameter-group callables at construction."""
        init = cls.__init__
        tracer = self

        def __init__(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for group in MODEL_GROUPS:
                part = getattr(model, group, None)
                name = f"model.forward.{group}"
                if isinstance(part, list):
                    setattr(model, group, [tracer.wrap(p, name) for p in part])
                elif part is not None:
                    setattr(model, group, tracer.wrap(part, name))

        cls.__init__ = __init__

    # -- analysis -------------------------------------------------------

    def columns(self) -> dict:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
                for k in ("name", "start", "end", "parent", "ctx", "size")}

    def totals(self) -> dict:
        """name -> {calls, self_s, incl_s, size, step_calls, step_size, request_calls}."""
        c = self.columns()
        n = c["start"].shape[0]
        dur = (c["end"] - c["start"]).astype(np.float64) / 1e9
        child = np.zeros(n)
        has_parent = c["parent"] >= 0
        np.add.at(child, c["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        size = c["size"].astype(np.float64)
        in_step, in_request = c["ctx"] > 0, c["ctx"] < 0
        count = lambda mask=slice(None), w=None: np.bincount(
            c["name"][mask], weights=None if w is None else w[mask], minlength=k)
        calls, incl, selft, sizes = count(), count(w=dur), count(w=own), count(w=size)
        step_calls, step_size = count(in_step), count(in_step, size)
        request_calls = count(in_request)
        return {name: {"calls": int(calls[i]), "self_s": float(selft[i]),
                       "incl_s": float(incl[i]), "size": float(sizes[i]),
                       "step_calls": int(step_calls[i]), "step_size": float(step_size[i]),
                       "request_calls": int(request_calls[i])}
                for i, name in enumerate(self.names)}

    def size_under(self, name: str, ancestor: str) -> float:
        """Summed size of `name` spans that have an `ancestor` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0.0
        nid, aid = self._ids[name], self._ids[ancestor]
        total = 0.0
        for i in np.flatnonzero(np.frombuffer(self.name, dtype=np.int64) == nid):
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            if p >= 0:
                total += self.size[i]
        return total

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def per_layer_metrics(tracer: Tracer, requests: int, dataset_bytes: float) -> dict:
    """Every per-layer metric, name -> (value, unit); 0 where a layer did no work."""
    t = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "size": 0.0,
             "step_calls": 0, "step_size": 0.0, "request_calls": 0}
    get = lambda name: t.get(name, empty)
    steps = get("autodiff.adam_step")["calls"]
    m = {}

    def self_s(metric):
        m[metric] = (get(metric.removesuffix(".s"))["self_s"], "s")

    for name in ("autodiff.backward.s", "autodiff.adam_step.s", "autodiff.zero_grads.s"):
        self_s(name)
    step_ops = step_bytes = request_ops = 0
    for kind in TAPE_OPS:
        span = get(f"autodiff.op.{kind}")
        m[f"autodiff.op.{kind}.calls"] = (span["calls"], "count")
        m[f"autodiff.op.{kind}.s"] = (span["self_s"], "s")
        if kind not in COMPOSITE_OPS:
            step_ops += span["step_calls"]
            step_bytes += span["step_size"]
            request_ops += span["request_calls"]
    per = lambda total, n: total / n if n else 0.0
    m["autodiff.ops_per_step"] = (per(step_ops, steps), "ops/step")
    m["autodiff.op_bytes_per_step"] = (per(step_bytes, steps), "bytes/step")
    m["autodiff.ops_per_rank_request"] = (per(request_ops, requests), "ops/request")

    self_s("model.training_objective.s")
    self_s("model.forward.s")
    for group in MODEL_GROUPS:
        m[f"model.forward.{group}.s"] = (get(f"model.forward.{group}")["incl_s"], "s")
    predict = get("model.predict")
    m["model.predict.calls"] = (predict["calls"], "count")
    m["model.predict.rows"] = (predict["size"], "rows")
    m["model.predict.s"] = (predict["self_s"], "s")
    self_s("model.check_decoupling.s")
    self_s("labels.causal_labels.s")
    self_s("losses.normalized_cross_entropy.s")

    self_s("trainer.train_day.s")
    self_s("trainer.evaluate_ne.s")
    m["trainer.steps"] = (get("autodiff.adam_step")["calls"], "count")
    self_s("trainer.save_checkpoint.s")
    self_s("trainer.load_checkpoint.s")
    m["trainer.checkpoint_bytes"] = (get("trainer.save_checkpoint")["size"], "bytes")

    self_s("datagen.generate_world.s")
    self_s("datagen.simulate_days.s")
    self_s("datagen.history_update.s")
    feats = get("datagen.derive_features")
    m["datagen.derive_features.calls"] = (feats["calls"], "count")
    m["datagen.derive_features.rows"] = (feats["size"], "rows")
    m["datagen.derive_features.s"] = (feats["self_s"], "s")
    self_s("datagen.engagement_probability.s")

    written = get("serialize.write_day_file")["size"] + get("serialize.save_container")["size"]
    self_s("serialize.write_day_file.s")
    m["serialize.bytes_written"] = (written, "bytes")
    self_s("serialize.read_day_file.s")
    m["serialize.bytes_parsed"] = (get("serialize.read_day_file")["size"], "bytes")
    self_s("serialize.file_sha256.s")
    m["serialize.bytes_hashed"] = (get("serialize.file_sha256")["size"], "bytes")
    self_s("serialize.save_container.s")
    self_s("serialize.load_container.s")
    hashed_gen = tracer.size_under("serialize.file_sha256", GEN_DATA_SPAN)
    hashed_load = tracer.size_under("serialize.file_sha256", DATASET_LOAD_SPAN)
    written_gen = (tracer.size_under("serialize.write_day_file", GEN_DATA_SPAN)
                   + tracer.size_under("serialize.save_container", GEN_DATA_SPAN))
    parsed_load = tracer.size_under("serialize.read_day_file", DATASET_LOAD_SPAN)
    m["serialize.write_amplification"] = (
        (written_gen + hashed_gen) / dataset_bytes if dataset_bytes else 0.0, "ratio")
    m["serialize.read_amplification"] = (
        (hashed_load + parsed_load) / dataset_bytes if dataset_bytes else 0.0, "ratio")

    self_s("schema.write_schema_file.s")
    self_s("schema.read_schema_file.s")
    self_s("evalrank.rank_topk.s")
    self_s("evalrank.counterfactual_replay.s")
    self_s("evalrank.tail_coverage.s")
    m["cli.gen_data.s"] = (get(GEN_DATA_SPAN)["incl_s"], "s")
    self_s("cli.dataset_load.s")
    m["python.gc.collections"] = (get(GC_SPAN)["calls"], "count")
    m["python.gc.s"] = (get(GC_SPAN)["self_s"], "s")
    return m
