"""Variant-wired multi-task ranking network with causal auxiliary modules.

The production-shaped part is a shared-bottom MLP feeding one small head per
engagement task. The causal addition is one auxiliary module per name in
`CAUSAL`, each a pair of residual towers (user side, item side):

  * conformity module — reads statistical engagement features, predicts
    user/item conformity scalars, combined as |u + i|, and emits a
    conformity embedding;
  * relevance module — reads attribute/content features, predicts per-topic
    user-affinity and item-membership probabilities, combined as u * i, and
    emits a relevance embedding.

The embeddings are concatenated into the task heads through a stop-gradient
barrier, so task losses never push gradients into the causal modules. Each
variant is a `config.VariantSpec`; the ablations rewire exactly one choice
of the reference wiring (Proposed) at a time:

  variant    causal  inject_at  stop_grad  tower_buckets           joint_mix
  Baseline   no      -          -          -                       -
  Proposed   yes     bottom     yes        statistical, attribute  no
  TaskArch   yes     last       yes        statistical, attribute  no
  JointLoss  yes     bottom     no         statistical, attribute  yes
  AllFeats   yes     bottom     yes        all, all                no

inject_at "bottom" concatenates the embeddings onto the shared-bottom output
that enters each task head; "last" concatenates them onto the input of each
head's final layer. joint_mix blends the causal targets with the anchor
task label. `Cam2Model.loss_terms` derives the causal targets and builds every
loss term, for training and for the decoupling audit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .autodiff import Node, Parameter, Tape, clamp, glorot_uniform
from .config import VARIANTS, ModelConfig
from .labels import causal_labels
from .losses import PROB_RANGE
from .schema import SIDES, Schema

# Rows per gradless forward in predict and causal_embeddings, so inference
# memory does not grow with the number of rows scored. A multiple of 4: with
# OpenBLAS the last bits of a matmul row can change when the row is among the
# trailing (n mod 4) rows of an n-row batch, so chunk boundaries on multiples
# of 4 keep chunked results bit-identical to one full-batch forward.
INFER_CHUNK = 2048

# The causal modules, in order: each is a Cam2Model attribute and parameter
# group, a CausalLabels target and a loss term weighted by <name>_weight.
CAUSAL = ("conformity", "relevance")
GROUPS = ("shared_bottom", "task_heads", *CAUSAL, "mixture")
CAUSAL_TERMS = (*(f"{name}_loss" for name in CAUSAL), "mixture_loss")


class SchemaHashError(ValueError):
    """Features come from a schema the model was not built for."""


class VariantError(ValueError):
    pass


@dataclass
class ModelOutputs:
    """One forward pass: task probabilities plus, keyed by causal module
    name, each module's prediction ([n, head width]; None on a gradless
    tape, as only the losses read it) and embedding ([n, d_e])."""

    task_probs: list  # T nodes of shape [n]
    preds: dict = field(default_factory=dict)
    embeddings: dict = field(default_factory=dict)


def _column_index(cols: list):
    """An index for the feature columns cols: a slice if they are one
    ascending contiguous run, so gathering them is a view; otherwise an
    intp array; None if there are none."""
    if not cols:
        return None
    if cols == list(range(cols[0], cols[0] + len(cols))):
        return slice(cols[0], cols[0] + len(cols))
    return np.array(cols, dtype=np.intp)


class _Builder:
    """Seeded parameter factory for one of GROUPS; each group draws from its
    own stream, seeded by its place in GROUPS, so shared parts initialize
    identically across variants."""

    def __init__(self, seed: int, group: str):
        self.rng = np.random.default_rng([seed, GROUPS.index(group)])
        self.group = group
        self.params = []

    def dense(self, name: str, fan_in: int, fan_out: int, trainable: bool = True):
        """Glorot weights, zero bias; an untrainable pair is drawn alike but not kept."""
        w = Parameter(f"{self.group}/{name}/w", glorot_uniform(self.rng, fan_in, fan_out))
        b = Parameter(f"{self.group}/{name}/b", np.zeros(fan_out))
        if trainable:
            self.params += [w, b]
        return w, b

    def embedding(self, name: str, vocab: int, dim: int) -> Parameter:
        """A [vocab, dim] table of N(0, 0.01) rows."""
        rows = Parameter(f"{self.group}/{name}/emb", self.rng.normal(0.0, 0.01, (vocab, dim)))
        self.params.append(rows)
        return rows

    def inputs(self, schema: Schema, dim: int, bucket=None, side=None):
        """One input block over a bucket and side of the schema (every feature
        if both are None): (dense column index, input width, [(categorical
        name, [vocab, dim] embedding)]). A side's embeddings are named after
        it: "user/<feature>"."""
        dense, cats = schema.dense_for(bucket, side), schema.cats_for(bucket, side)
        prefix = f"{side}/" if side else ""
        tables = [(s.name, self.embedding(prefix + s.name, s.vocab_size, dim)) for s in cats]
        return _column_index(dense), len(dense) + dim * len(cats), tables


def _gather(tape: Tape, features: np.ndarray, indices: dict, block) -> Node:
    """One input block's node (see _Builder.inputs): its dense columns, then
    an embedding per categorical, looked up with the row's indices from
    `indices`."""
    dense_index, _, tables = block
    pieces = []
    if dense_index is not None:
        pieces.append(tape.constant(features[:, dense_index]))
    for name, rows in tables:
        pieces.append(tape.embedding(rows, indices[name]))
    if not pieces:
        return tape.constant(np.zeros((features.shape[0], 0)))
    return pieces[0] if len(pieces) == 1 else tape.concat(pieces, axis=1)


class _Mlp:
    """Dense stack with relu between layers; final layer is linear unless
    relu_last.

    extra_final widens the final layer's fan-in for inputs concatenated
    right before it (inject_at "last").
    """

    def __init__(self, b: _Builder, name: str, in_width: int, widths, extra_final: int = 0,
                 relu_last: bool = False):
        self.relu_last = relu_last
        self.layers = []
        prev = in_width
        for i, w in enumerate(widths):
            if i == len(widths) - 1:
                prev += extra_final
            self.layers.append(b.dense(f"{name}/l{i}", prev, w))
            prev = w

    def __call__(self, tape: Tape, x: Node, stop_before_last: Node | None = None) -> Node:
        """Runs the stack; if stop_before_last is given, it is concatenated
        onto the input of the final layer (inject_at "last")."""
        for i, (w, bias) in enumerate(self.layers):
            last = i == len(self.layers) - 1
            if last and stop_before_last is not None:
                x = tape.concat([x, stop_before_last], axis=1)
            x = tape.dense(x, w, bias, relu=self.relu_last or not last)
        return x


class _ResidualTower:
    """Input projection followed by residual blocks: x + f2(relu(f1(x)))."""

    def __init__(self, b: _Builder, name: str, in_width: int, width: int, blocks: int):
        self.proj = b.dense(f"{name}/proj", in_width, width)
        self.blocks = [
            (b.dense(f"{name}/b{i}/d1", width, width), b.dense(f"{name}/b{i}/d2", width, width))
            for i in range(blocks)
        ]

    def __call__(self, tape: Tape, x: Node) -> Node:
        h = tape.dense(x, *self.proj, relu=True)
        for (w1, b1), (w2, b2) in self.blocks:
            h = tape.dense(tape.dense(h, w1, b1, relu=True), w2, b2, residual=h)
        return h


class _CausalModule:
    """Per side (user, item) an input block feeding a residual tower and a
    sigmoid head, plus an embedding projection of both towers.

    Returns (pred, embedding): pred = pair(tape, user head, item head) is the
    module's prediction, which only the losses read, so a gradless tape skips
    it (None). Only task losses can reach the projection, so behind a
    stop-gradient it is a seeded constant, not a parameter, and runs on a
    gradless tape.
    """

    def __init__(self, b: _Builder, schema: Schema, bucket: str, cfg: ModelConfig,
                 stop_grad: bool, head_out: int, pair):
        self.inputs = {side: b.inputs(schema, cfg.embed_dim, bucket, side) for side in SIDES}
        width = cfg.tower_width
        self.towers = {side: _ResidualTower(b, f"module/{side}", self.inputs[side][1], width,
                                            cfg.tower_blocks) for side in SIDES}
        self.heads = {side: b.dense(f"module/{side}_head", width, head_out) for side in SIDES}
        self.proj = b.dense("module/embed", 2 * width, cfg.causal_embed_dim,
                            trainable=not stop_grad)
        self.stop_grad = stop_grad
        self.pair = pair

    def __call__(self, tape: Tape, features: np.ndarray, indices: dict):
        towers = [self.towers[side](tape, _gather(tape, features, indices, self.inputs[side]))
                  for side in SIDES]
        pred = None
        if tape.recording:
            pred = self.pair(tape, *(tape.sigmoid(tape.dense(t, *self.heads[side]))
                                     for side, t in zip(SIDES, towers)))
        if not self.stop_grad:
            return pred, tape.dense(tape.concat(towers, axis=1), *self.proj)
        frozen = Node(np.concatenate([t.data for t in towers], axis=1))  # a stop-gradient read
        return pred, Tape(grad=False).dense(frozen, *self.proj)


class Cam2Model:
    """Parameter container + forward pass for one variant."""

    def __init__(self, config: ModelConfig, schema: Schema):
        self.config = config
        self.spec = VARIANTS[config.variant]
        self.schema = schema
        flags = schema.slices["item_topic_flags"]
        self.k_topics = flags.stop - flags.start
        self._groups = {g: [] for g in GROUPS}
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self):
        cfg, spec = self.config, self.spec

        sb = _Builder(cfg.seed, "shared_bottom")
        self._sb_inputs = sb.inputs(self.schema, cfg.embed_dim)
        self.shared_bottom = _Mlp(sb, "mlp", self._sb_inputs[1], cfg.shared_widths,
                                  relu_last=True)
        self._groups["shared_bottom"] = sb.params

        # per CAUSAL module: head width, pair op and topic mask, the
        # topic-flag columns its target and mixture readout use
        modules = ((1, lambda tape, u, i: tape.abs(tape.add(u, i)),
                    lambda flags: np.ones((flags.shape[0], 1))),
                   (self.k_topics, lambda tape, u, i: tape.mul(u, i), lambda flags: flags))
        self._topic_masks = {}  # causal module name -> topic mask
        for name, bucket, (head_out, pair, mask) in zip(
                CAUSAL, spec.tower_buckets, modules, strict=True) if spec.causal else ():
            b = _Builder(cfg.seed, name)
            module = _CausalModule(b, self.schema, bucket, cfg, spec.stop_grad, head_out, pair)
            for side, (_, width, _) in module.inputs.items():
                if width == 0:
                    raise VariantError(f"variant {cfg.variant} needs at least one {side}-side "
                                       f"{bucket or 'any'} feature for the {name} module")
            setattr(self, name, module)
            self._groups[name] = b.params
            self._topic_masks[name] = mask
        if spec.causal:
            self.mixture_logits = Parameter("mixture/logits", np.zeros((1, len(CAUSAL))))
            self._groups["mixture"] = [self.mixture_logits]

        th = _Builder(cfg.seed, "task_heads")
        head_in = cfg.shared_widths[-1]
        extra = len(CAUSAL) * cfg.causal_embed_dim if spec.causal else 0
        last = spec.inject_at == "last"
        self.task_heads = [
            _Mlp(th, f"task{t}", head_in + (0 if last else extra), cfg.head_widths,
                 extra_final=extra if last else 0)
            for t in range(len(cfg.task_weights))]
        self._groups["task_heads"] = th.params

    # -- parameters -----------------------------------------------------

    def parameters(self) -> list:
        return [p for g in GROUPS for p in self._groups[g]]

    def groups(self) -> dict:
        return {g: list(ps) for g, ps in self._groups.items() if ps}

    def zero_grads(self):
        for p in self.parameters():
            p.grad.fill(0.0)

    # -- forward --------------------------------------------------------

    def check_schema(self, schema_hash: str):
        if schema_hash != self.schema.hash:
            raise SchemaHashError(
                f"features hashed {schema_hash} but model was built for {self.schema.hash}"
            )

    def _checked(self, features: np.ndarray, schema_hash: str | None) -> np.ndarray:
        """features as a float64 matrix of the schema's arity; the schema hash
        is checked too if one is given."""
        if schema_hash is not None:
            self.check_schema(schema_hash)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.schema.arity():
            raise SchemaHashError(
                f"feature matrix {features.shape} does not match schema arity "
                f"{self.schema.arity()}")
        return features

    def forward(self, tape: Tape, features: np.ndarray) -> ModelOutputs:
        features = self._checked(features, None)
        # each categorical column as int64 once, for every table that reads it
        indices = {name: features[:, col].astype(np.int64)
                   for name, col in self.schema.cat_col.items()}
        shared_out = self.shared_bottom(tape, _gather(tape, features, indices, self._sb_inputs))

        out = ModelOutputs(task_probs=[])
        for name in CAUSAL if self.spec.causal else ():
            out.preds[name], out.embeddings[name] = getattr(self, name)(tape, features, indices)
        embeddings = [tape.stop_gradient(e) if self.spec.stop_grad else e
                      for e in out.embeddings.values()]

        # one head input for every head: their input gradients accumulate
        # into it in reverse head order, as into three separate concats
        head_in, before_last = shared_out, None
        if embeddings and self.spec.inject_at == "last":
            before_last = tape.concat(embeddings, axis=1)
        elif embeddings:
            head_in = tape.concat([shared_out, *embeddings], axis=1)
        for head in self.task_heads:
            logit = head(tape, head_in, stop_before_last=before_last)  # [n, 1]
            out.task_probs.append(tape.sum(tape.clip(tape.sigmoid(logit), *PROB_RANGE), axis=1))
        return out

    def _mixture(self, tape: Tape, out: ModelOutputs, flags: np.ndarray) -> Node:
        """Diagnostic Pr(t) = sum over causal modules m of w_m Pr(t|m), with
        Pr(t|m) the mean of m's prediction over its topic mask of the item
        topic flags. Only the mixture logits receive gradient from its loss,
        so each Pr(t|m) is an array off a stop-gradient read of m's pred."""
        w = tape.softmax(tape.leaf(self.mixture_logits))  # [1, len(CAUSAL)]
        terms = []
        for m, name in enumerate(CAUSAL):
            pred, mask = tape.stop_gradient(out.preds[name]).data, self._topic_masks[name](flags)
            denom = np.maximum(mask.sum(axis=1), 1.0)
            p = tape.constant(clamp((pred * mask).sum(axis=1) * (1.0 / denom), *PROB_RANGE))
            terms.append(tape.mul(tape.sum(tape.slice_cols(w, m, m + 1), axis=1), p))  # [1] * [n]
        return reduce(tape.add, terms)

    def topic_flags(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64)[:, self.schema.slices["item_topic_flags"]]

    # -- losses ---------------------------------------------------------

    def loss_terms(self, tape: Tape, features: np.ndarray, labels: np.ndarray, x):
        """(forward outputs, {name: unweighted scalar loss node}) in summation
        order: task0 ... task{T-1}, then for causal variants CAUSAL_TERMS.
        The causal targets are derived here alone: each module's field of
        causal_labels (anchor label, column 0, x, config.thresh) over its
        topic mask, blended with the anchor label if joint_mix."""
        outs = self.forward(tape, features)
        labels = np.asarray(labels, dtype=np.float64)
        terms = {f"task{t}": tape.bce(p, labels[:, t], *PROB_RANGE)
                 for t, p in enumerate(outs.task_probs)}
        if self.spec.causal:
            anchor, flags = labels[:, 0], self.topic_flags(features)
            causal = causal_labels(anchor, x, self.config.thresh)
            lam = self.config.joint_label_mix
            for name in CAUSAL:
                mask = self._topic_masks[name](flags)
                target = getattr(causal, name)[:, None] * mask
                if self.spec.joint_mix:
                    target = (1 - lam) * target + lam * anchor[:, None] * mask
                terms[f"{name}_loss"] = self._residual_loss(tape, outs.preds[name], target)
            terms["mixture_loss"] = tape.bce(self._mixture(tape, outs, flags), anchor, *PROB_RANGE)
        return outs, terms

    def training_objective(self, tape: Tape, features: np.ndarray, labels: np.ndarray, x):
        """(objective, forward outputs, loss_terms dict): the optimized node is
        the in-order weighted sum of the nonzero-weighted loss_terms, mixture
        term included, each weighted by its config weight."""
        cfg = self.config
        outs, terms = self.loss_terms(tape, features, labels, x)
        weights = (*cfg.task_weights, *(getattr(cfg, f"{name}_weight") for name in CAUSAL),
                   cfg.mixture_weight)  # zip stops at the task terms for Baseline
        pieces = [n if w == 1.0 else tape.scale(n, w)  # x * 1.0 is x, bit for bit
                  for n, w in zip(terms.values(), weights) if w]
        return reduce(tape.add, pieces), outs, terms  # ((p0 + p1) + p2) + ...

    def _residual_loss(self, tape: Tape, pred: Node, target: np.ndarray) -> Node:
        """Row mean of sum over columns of |target - pred| (squared if
        config.squared_causal_loss); pred and target are [n, columns]."""
        resid = tape.abs(tape.sub(tape.constant(target), pred))
        if self.config.squared_causal_loss:
            resid = tape.mul(resid, resid)
        return tape.mean(tape.sum(resid, axis=1))

    # -- diagnostics ----------------------------------------------------

    def _infer(self, features: np.ndarray, schema_hash: str | None, read) -> tuple:
        """read(outputs) -> tuple of per-row arrays, from gradless forwards over
        INFER_CHUNK-row slices of features (one empty slice if there are no
        rows), copied chunk by chunk into arrays allocated once for all rows."""
        features = self._checked(features, schema_hash)
        n = features.shape[0]
        stacked = None
        for lo in range(0, max(n, 1), INFER_CHUNK):
            part = read(self.forward(Tape(grad=False), features[lo : lo + INFER_CHUNK]))
            if stacked is None:
                stacked = tuple(np.empty((n, *a.shape[1:])) for a in part)
            for dst, a in zip(stacked, part):
                dst[lo : lo + a.shape[0]] = a
        return stacked

    def predict(self, features: np.ndarray, schema_hash: str | None = None) -> np.ndarray:
        """[n, T] task probabilities, computed INFER_CHUNK rows at a time."""
        return self._infer(features, schema_hash, lambda outs: (
            np.column_stack([p.data for p in outs.task_probs]),))[0]

    def causal_embeddings(self, features: np.ndarray):
        """One [n, d_e] array per CAUSAL module, in order, INFER_CHUNK rows at a time."""
        if not self.spec.causal:
            raise VariantError(f"{self.config.variant} has no causal embeddings")
        return self._infer(features, None,
                           lambda outs: tuple(e.data for e in outs.embeddings.values()))


def gradient_provenance(model: Cam2Model, features, labels, x) -> dict:
    """Which loss components push nonzero gradient into which parameter group.

    One forward+backward of Cam2Model.loss_terms per component ("task" is the
    task terms summed in order) gives max-abs gradient per (component, group).
    """
    n_tasks = len(model.config.task_weights)
    report = {}
    for comp in ("task", *(CAUSAL_TERMS if model.spec.causal else ())):
        model.zero_grads()
        tape = Tape()
        _, terms = model.loss_terms(tape, features, labels, x)
        tape.backward(reduce(tape.add, list(terms.values())[:n_tasks]) if comp == "task"
                      else terms[comp])
        report[comp] = {
            g: max((float(np.abs(p.grad).max()) for p in ps), default=0.0)
            for g, ps in model.groups().items()
        }
    model.zero_grads()
    return report


def check_decoupling(model: Cam2Model, features, labels, x):
    """Abort-worthy audit of the variant's gradient-flow contract: with a
    stop-gradient no task gradient reaches the causal modules, without one
    some does, and no module's causal loss reaches another module."""
    prov = gradient_provenance(model, features, labels, x)
    if not model.spec.causal:
        return prov
    if model.spec.stop_grad:
        for g in CAUSAL:
            if prov["task"][g] != 0.0:
                raise AssertionError(f"task losses leaked gradient into {g} module")
    elif all(prov["task"][g] <= 1e-12 for g in CAUSAL):
        raise AssertionError(
            f"{model.config.variant} expects task gradients in causal modules")
    for name in CAUSAL:
        for g in CAUSAL:
            if g != name and prov[f"{name}_loss"][g] != 0.0:
                raise AssertionError(f"{name}_loss leaked gradient into {g} module")
    return prov
