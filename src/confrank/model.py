"""Variant-wired multi-task ranking network with causal auxiliary modules.

The production-shaped part is a shared-bottom MLP feeding one small head per
engagement task. The causal addition is a pair of auxiliary modules, each a
pair of residual towers (user side, item side):

  * conformity module — reads statistical engagement features, predicts
    user/item conformity scalars and emits a conformity embedding;
  * relevance module — reads attribute/content features, predicts per-topic
    user-affinity and item-membership probabilities and emits a relevance
    embedding.

Both embeddings are concatenated into the task heads through a stop-gradient
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

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .autodiff import Adam, EmbeddingTable, Node, Parameter, Tape, glorot_uniform
from .config import VARIANTS, ModelConfig
from .labels import causal_labels
from .schema import Schema

# Rows per gradless forward in predict and causal_embeddings, so inference
# memory does not grow with the number of rows scored. A multiple of 4: with
# OpenBLAS the last bits of a matmul row can change when the row is among the
# trailing (n mod 4) rows of an n-row batch, so chunk boundaries on multiples
# of 4 keep chunked results bit-identical to one full-batch forward.
INFER_CHUNK = 2048

GROUPS = ("shared_bottom", "task_heads", "conformity", "relevance", "mixture")
CAUSAL_TERMS = ("conformity_loss", "relevance_loss", "mixture_loss")


class SchemaHashError(ValueError):
    """Features come from a schema the model was not built for."""


class VariantError(ValueError):
    pass


@dataclass
class ModelOutputs:
    """One forward pass: task probabilities plus causal-module readouts.

    A forward on a gradless tape leaves the four readouts the losses need
    (u_hat, i_hat, u_x, i_x) at None.
    """

    task_probs: list  # T nodes of shape [n]
    u_hat: Node | None = None  # [n] user-conformity prediction
    i_hat: Node | None = None  # [n] item-conformity prediction
    u_x: Node | None = None  # [n, k] per-topic user affinity
    i_x: Node | None = None  # [n, k] per-topic item membership
    e_conf: Node | None = None  # [n, d_e]
    e_rel: Node | None = None  # [n, d_e]


class _Builder:
    """Seeded parameter factory; one independent stream per subnetwork so
    shared parts initialize identically across variants."""

    def __init__(self, seed: int, group: str, group_index: int):
        self.rng = np.random.default_rng([seed, group_index])
        self.group = group
        self.params = []

    def dense(self, name: str, fan_in: int, fan_out: int):
        w = Parameter(f"{self.group}/{name}/w", glorot_uniform(self.rng, fan_in, fan_out))
        b = Parameter(f"{self.group}/{name}/b", np.zeros(fan_out))
        self.params += [w, b]
        return w, b

    def embedding(self, name: str, vocab: int, dim: int) -> EmbeddingTable:
        t = EmbeddingTable(f"{self.group}/{name}/emb", vocab, dim, self.rng)
        self.params.append(t.rows)
        return t


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
    """Two residual towers plus prediction heads and an embedding projection.

    Only the losses read the heads, so a gradless tape skips them (None).
    """

    def __init__(self, b: _Builder, name: str, user_width: int, item_width: int,
                 tower_width: int, blocks: int, head_out: int, d_e: int):
        self.user_tower = _ResidualTower(b, f"{name}/user", user_width, tower_width, blocks)
        self.item_tower = _ResidualTower(b, f"{name}/item", item_width, tower_width, blocks)
        self.user_head = b.dense(f"{name}/user_head", tower_width, head_out)
        self.item_head = b.dense(f"{name}/item_head", tower_width, head_out)
        self.proj = b.dense(f"{name}/embed", 2 * tower_width, d_e)

    def __call__(self, tape: Tape, user_in: Node, item_in: Node):
        up = self.user_tower(tape, user_in)
        ip = self.item_tower(tape, item_in)
        u_head = i_head = None
        if tape.recording:
            u_head = tape.sigmoid(tape.dense(up, *self.user_head))
            i_head = tape.sigmoid(tape.dense(ip, *self.item_head))
        embed = tape.dense(tape.concat([up, ip], axis=1), *self.proj)
        return u_head, i_head, embed


class Cam2Model:
    """Parameter container + forward pass for one variant."""

    def __init__(self, config: ModelConfig, schema: Schema):
        self.config = config
        self.spec = VARIANTS[config.variant]
        self.schema = schema
        self.schema_hash = schema.hash
        self.k_topics = len(schema.dense_cols["item_topic_flags"])
        self._groups = {g: [] for g in GROUPS}
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self):
        cfg, spec = self.config, self.spec

        sb = _Builder(cfg.seed, "shared_bottom", 0)
        self._sb_dense_cols = self.schema.dense_for()
        self._sb_cats = self.schema.cats_for()
        self._sb_embeds = {
            s.name: sb.embedding(s.name, s.vocab_size, cfg.embed_dim) for s in self._sb_cats
        }
        sb_in = len(self._sb_dense_cols) + cfg.embed_dim * len(self._sb_cats)
        self.shared_bottom = _Mlp(sb, "mlp", sb_in, cfg.shared_widths, relu_last=True)
        self._groups["shared_bottom"] = sb.params

        if spec.causal:
            bucket_c, bucket_r = spec.tower_buckets
            cm = _Builder(cfg.seed, "conformity", 2)
            self._conf_inputs = self._tower_inputs(cm, bucket_c)
            self.conformity = _CausalModule(
                cm, "module",
                self._input_width(self._conf_inputs, "user"),
                self._input_width(self._conf_inputs, "item"),
                cfg.tower_width, cfg.tower_blocks, 1, cfg.causal_embed_dim)
            self._groups["conformity"] = cm.params

            rm = _Builder(cfg.seed, "relevance", 3)
            self._rel_inputs = self._tower_inputs(rm, bucket_r)
            self.relevance = _CausalModule(
                rm, "module",
                self._input_width(self._rel_inputs, "user"),
                self._input_width(self._rel_inputs, "item"),
                cfg.tower_width, cfg.tower_blocks, self.k_topics, cfg.causal_embed_dim)
            self._groups["relevance"] = rm.params

            for side in ("user", "item"):
                if self._input_width(self._conf_inputs, side) == 0:
                    raise VariantError(
                        f"variant {cfg.variant} needs at least one {side}-side "
                        "statistical feature for the conformity module")

            mx = _Builder(cfg.seed, "mixture", 4)
            self.mixture_logits = Parameter("mixture/logits", np.zeros((1, 2)))
            mx.params.append(self.mixture_logits)
            self._groups["mixture"] = mx.params

        th = _Builder(cfg.seed, "task_heads", 1)
        head_in = cfg.shared_widths[-1]
        extra = 2 * cfg.causal_embed_dim if spec.causal else 0
        last = spec.inject_at == "last"
        self.task_heads = [
            _Mlp(th, f"task{t}", head_in + (0 if last else extra), cfg.head_widths,
                 extra_final=extra if last else 0)
            for t in range(len(cfg.task_weights))]
        self._groups["task_heads"] = th.params

    def _tower_inputs(self, builder: _Builder, bucket):
        """Per-side (dense column list, [(spec, table)]) for a causal module."""
        out = {}
        for side in ("user", "item"):
            dense_cols = self.schema.dense_for(bucket, side)
            cats = self.schema.cats_for(bucket, side)
            tables = [(s, builder.embedding(f"{side}/{s.name}", s.vocab_size,
                                            self.config.embed_dim)) for s in cats]
            out[side] = (dense_cols, tables)
        return out

    def _input_width(self, inputs, side) -> int:
        dense_cols, tables = inputs[side]
        return len(dense_cols) + self.config.embed_dim * len(tables)

    # -- parameters -----------------------------------------------------

    def parameters(self) -> list:
        return [p for g in GROUPS for p in self._groups[g]]

    def groups(self) -> dict:
        return {g: list(ps) for g, ps in self._groups.items() if ps}

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def make_optimizer(self, lr=1e-3, betas=(0.9, 0.999), eps=1e-8) -> Adam:
        return Adam(self.parameters(), lr=lr, betas=betas, eps=eps)

    # -- forward --------------------------------------------------------

    def check_schema(self, schema_hash: str):
        if schema_hash != self.schema_hash:
            raise SchemaHashError(
                f"features hashed {schema_hash} but model was built for {self.schema_hash}"
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

    def _gather_input(self, tape: Tape, features: np.ndarray, dense_cols,
                      cat_tables) -> Node:
        pieces = []
        if dense_cols:
            pieces.append(tape.constant(features[:, dense_cols]))
        for spec, table in cat_tables:
            idx = features[:, self.schema.cat_col[spec.name]].astype(np.int64)
            pieces.append(tape.embedding(table, idx))
        if not pieces:
            return tape.constant(np.zeros((features.shape[0], 0)))
        return pieces[0] if len(pieces) == 1 else tape.concat(pieces, axis=1)

    def forward(self, tape: Tape, features: np.ndarray,
                schema_hash: str | None = None) -> ModelOutputs:
        features = self._checked(features, schema_hash)
        sb_cat_tables = [(s, self._sb_embeds[s.name]) for s in self._sb_cats]
        sb_in = self._gather_input(tape, features, self._sb_dense_cols, sb_cat_tables)
        shared_out = self.shared_bottom(tape, sb_in)

        out = ModelOutputs(task_probs=[])
        spec = self.spec
        if spec.causal:
            u_hat, i_hat, e_conf = self.conformity(
                tape,
                self._gather_input(tape, features, *self._conf_inputs["user"]),
                self._gather_input(tape, features, *self._conf_inputs["item"]))
            u_x, i_x, e_rel = self.relevance(
                tape,
                self._gather_input(tape, features, *self._rel_inputs["user"]),
                self._gather_input(tape, features, *self._rel_inputs["item"]))
            if tape.recording:
                out.u_hat, out.i_hat = tape.sum(u_hat, axis=1), tape.sum(i_hat, axis=1)
                out.u_x, out.i_x = u_x, i_x
            out.e_conf, out.e_rel = e_conf, e_rel
            if spec.stop_grad:
                e_conf, e_rel = tape.stop_gradient(e_conf), tape.stop_gradient(e_rel)

        # one head input for every head: their input gradients accumulate
        # into it in reverse head order, as into three separate concats
        head_in, before_last = shared_out, None
        if spec.causal and spec.inject_at == "last":
            before_last = tape.concat([e_conf, e_rel], axis=1)
        elif spec.causal:
            head_in = tape.concat([shared_out, e_conf, e_rel], axis=1)
        for head in self.task_heads:
            logit = head(tape, head_in, stop_before_last=before_last)
            out.task_probs.append(self._squeeze_prob(tape, logit))
        return out

    def _squeeze_prob(self, tape: Tape, logit: Node) -> Node:
        p = tape.clip(tape.sigmoid(logit), L.PROB_CLIP, 1.0 - L.PROB_CLIP)
        return tape.sum(p, axis=1)  # [n, 1] -> [n]

    def _mixture(self, tape: Tape, out: ModelOutputs, flags: np.ndarray) -> Node:
        """Diagnostic Pr(t) = w1 Pr(t|Conf) + w2 Pr(t|Rel) given the item
        topic flags; only the two mixture logits receive gradient from its
        loss."""
        topics = tape.constant(flags)
        p_conf = tape.clip(tape.abs(tape.add(tape.stop_gradient(out.u_hat),
                                             tape.stop_gradient(out.i_hat))),
                           L.PROB_CLIP, 1.0 - L.PROB_CLIP)
        prod = tape.mul(tape.stop_gradient(out.u_x), tape.stop_gradient(out.i_x))
        masked = tape.mul(prod, topics)
        denom = np.maximum(topics.data.sum(axis=1), 1.0)
        p_rel = tape.clip(tape.mul(tape.sum(masked, axis=1),
                                   tape.constant(1.0 / denom)),
                          L.PROB_CLIP, 1.0 - L.PROB_CLIP)
        w = tape.softmax(tape.leaf(self.mixture_logits))  # [1, 2]
        w1 = tape.sum(tape.slice_cols(w, 0, 1), axis=1)  # [1]
        w2 = tape.sum(tape.slice_cols(w, 1, 2), axis=1)
        return tape.add(tape.mul(w1, p_conf), tape.mul(w2, p_rel))

    def topic_flags(self, features: np.ndarray) -> np.ndarray:
        cols = self.schema.dense_cols["item_topic_flags"]
        return np.asarray(features, dtype=np.float64)[:, cols]

    # -- losses ---------------------------------------------------------

    def loss_terms(self, tape: Tape, features: np.ndarray, labels: np.ndarray, x):
        """(forward outputs, {name: unweighted scalar loss node}) in summation
        order: task0 ... task{T-1}, then for causal variants conformity_loss,
        relevance_loss and mixture_loss. The causal targets are derived here
        alone: causal_labels on the anchor label (column 0), x, config.thresh
        and the topic flags, blended with the anchor label if joint_mix."""
        outs = self.forward(tape, features)
        labels = np.asarray(labels, dtype=np.float64)
        terms = {f"task{t}": tape.bce(p, labels[:, t], L.PROB_CLIP, 1.0 - L.PROB_CLIP)
                 for t, p in enumerate(outs.task_probs)}
        if self.spec.causal:
            anchor, flags = labels[:, 0], self.topic_flags(features)
            causal = causal_labels(anchor, x, self.config.thresh, flags)
            c_bar, r_bar = causal.conformity, causal.per_interest
            if self.spec.joint_mix:
                lam = self.config.joint_label_mix
                c_bar = (1 - lam) * c_bar + lam * anchor
                r_bar = (1 - lam) * r_bar + lam * anchor[:, None] * flags
            terms.update(zip(CAUSAL_TERMS, (
                self._conformity_node(tape, outs, c_bar),
                self._relevance_node(tape, outs, r_bar),
                tape.bce(self._mixture(tape, outs, flags), anchor,
                         L.PROB_CLIP, 1.0 - L.PROB_CLIP))))
        return outs, terms

    def training_objective(self, tape: Tape, features: np.ndarray, labels: np.ndarray, x):
        """(objective, forward outputs, loss_terms dict): the optimized node is
        the in-order weighted sum of the nonzero-weighted loss_terms, mixture
        term included, each weighted by its config weight."""
        cfg = self.config
        outs, terms = self.loss_terms(tape, features, labels, x)
        weights = (*cfg.task_weights, cfg.conformity_weight, cfg.relevance_weight,
                   cfg.mixture_weight)  # zip stops at the task terms for Baseline
        pieces = [n if w == 1.0 else tape.scale(n, w)  # x * 1.0 is x, bit for bit
                  for n, w in zip(terms.values(), weights) if w]
        objective = pieces[0]
        for n in pieces[1:]:
            objective = tape.add(objective, n)
        return objective, outs, terms

    def _conformity_node(self, tape: Tape, outs: ModelOutputs, c_bar) -> Node:
        s = tape.abs(tape.add(outs.u_hat, outs.i_hat))
        resid = tape.abs(tape.sub(tape.constant(c_bar), s))
        if self.config.squared_causal_loss:
            resid = tape.mul(resid, resid)
        return tape.mean(resid)

    def _relevance_node(self, tape: Tape, outs: ModelOutputs, r_bar) -> Node:
        prod = tape.mul(outs.u_x, outs.i_x)
        resid = tape.abs(tape.sub(tape.constant(r_bar), prod))
        if self.config.squared_causal_loss:
            resid = tape.mul(resid, resid)
        return tape.mean(tape.sum(resid, axis=1))

    # -- diagnostics ----------------------------------------------------

    def _infer(self, features: np.ndarray, schema_hash: str | None, read) -> tuple:
        """read(outputs) -> tuple of per-row arrays, from gradless forwards over
        INFER_CHUNK-row slices of features, stacked in row order. A single
        chunk's arrays are returned as they are; more are copied, chunk by
        chunk, into arrays allocated for all rows."""
        features = self._checked(features, schema_hash)
        n = features.shape[0]
        if n <= INFER_CHUNK:
            return read(self.forward(Tape(grad=False), features))
        stacked = None
        for lo in range(0, n, INFER_CHUNK):
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
        """([n, d_e] e_conf, [n, d_e] e_rel), computed INFER_CHUNK rows at a time."""
        if not self.spec.causal:
            raise VariantError(f"{self.config.variant} has no causal embeddings")
        return self._infer(features, None, lambda outs: (outs.e_conf.data, outs.e_rel.data))


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
        if comp == "task":
            node, *rest = list(terms.values())[:n_tasks]
            for n in rest:
                node = tape.add(node, n)
        else:
            node = terms[comp]
        tape.backward(node)
        report[comp] = {
            g: max((float(np.abs(p.grad).max()) for p in ps), default=0.0)
            for g, ps in model.groups().items()
        }
    model.zero_grads()
    return report


def check_decoupling(model: Cam2Model, features, labels, x):
    """Abort-worthy audit of the variant's gradient-flow contract: with a
    stop-gradient no task gradient reaches the causal modules, without one
    some does, and the two causal losses never cross modules."""
    prov = gradient_provenance(model, features, labels, x)
    if not model.spec.causal:
        return prov
    if model.spec.stop_grad:
        for g in ("conformity", "relevance"):
            if prov["task"][g] != 0.0:
                raise AssertionError(f"task losses leaked gradient into {g} module")
    elif prov["task"]["conformity"] <= 1e-12 and prov["task"]["relevance"] <= 1e-12:
        raise AssertionError(
            f"{model.config.variant} expects task gradients in causal modules")
    if prov["conformity_loss"]["relevance"] != 0.0 or prov["relevance_loss"]["conformity"] != 0.0:
        raise AssertionError("causal losses leaked across modules")
    return prov
