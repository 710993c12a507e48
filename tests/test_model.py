import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_model_config
from oracles import (conformity_loss, mixture_decomposition, mixture_weights, relevance_loss,
                     total_loss)
from confrank import losses as L
from confrank import serialize as S
from confrank import trainer as T
from confrank.autodiff import Adam, Tape
from confrank.config import VARIANTS, ModelConfig, TrainConfig
from confrank.labels import causal_labels
from confrank import model as M
from confrank.model import (CAUSAL, INFER_CHUNK, Cam2Model, SchemaHashError, VariantError,
                            _column_index, _gather, check_decoupling, gradient_provenance)
from confrank.schema import (ATTRIBUTE, DENSE, SIDES, STATISTICAL, FeatureSpec,
                             default_schema, validate_schema)


@pytest.fixture(scope="module")
def batch(tiny_dataset):
    _, _, schema, logs, _ = tiny_dataset
    log = logs[1]
    n = 48
    return schema, log.features[:n], log.labels[:n], log.x_scalar[:n]


def build(schema, **over):
    return Cam2Model(tiny_model_config(**over), schema)


def targets(model, labels, x):
    return causal_labels(labels[:, 0], x, model.config.thresh)


def raw_heads(model, module, features):
    """[user head, item head] of a causal module: each side's sigmoid head
    over its tower, recomputed from module.towers and module.heads."""
    tape = Tape(grad=False)
    indices = {name: features[:, col].astype(np.int64)
               for name, col in model.schema.cat_col.items()}
    return [tape.sigmoid(tape.dense(
                module.towers[side](tape, _gather(tape, features, indices, module.inputs[side])),
                *module.heads[side])).data
            for side in SIDES]


class TestBuild:
    def test_baseline_has_no_causal_parameters(self, batch):
        schema, *_ = batch
        model = build(schema, variant="Baseline")
        groups = model.groups()
        assert "conformity" not in groups and "relevance" not in groups
        assert "mixture" not in groups

    def test_proposed_parameter_count_arithmetic(self, batch):
        schema, *_ = batch
        base = build(schema, variant="Baseline")
        prop = build(schema, variant="Proposed")
        count = lambda m, g: sum(p.value.size for p in m.groups().get(g, []))
        total = lambda m: sum(p.value.size for p in m.parameters())
        cfg = prop.config
        n_tasks = len(cfg.task_weights)
        widened = n_tasks * 2 * cfg.causal_embed_dim * cfg.head_widths[0]
        expected = (total(base) + count(prop, "conformity") + count(prop, "relevance")
                    + count(prop, "mixture") + widened)
        assert total(prop) == expected

    def test_same_seed_identical_init(self, batch):
        schema, *_ = batch
        a, b = build(schema), build(schema)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_shared_bottom_init_matches_across_variants(self, batch):
        schema, *_ = batch
        base = build(schema, variant="Baseline")
        prop = build(schema, variant="Proposed")
        for pa, pb in zip(base.groups()["shared_bottom"], prop.groups()["shared_bottom"]):
            assert np.array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("variant,digest", [
        ("Baseline", "300cc863257efbb1"), ("Proposed", "26eb8bfa73dcff98"),
        ("TaskArch", "2e4097b0e36a29df"), ("JointLoss", "54ed32506019f081"),
        ("AllFeats", "54848b56cbf0997b")])
    def test_initial_parameters_are_pinned(self, variant, digest):
        """Each parameter's name and initial bytes, in parameters() order, then
        each causal module's projection, hash to the value pinned for the
        variant: each group's stream is seeded by its place in GROUPS, so
        reordering GROUPS, or any draw inside a group, changes it."""
        model = Cam2Model(tiny_model_config(variant=variant), default_schema(4))
        h = hashlib.sha256()
        for p in model.parameters():
            h.update(p.name.encode())
            h.update(p.value.tobytes())
        for name in CAUSAL if model.spec.causal else ():
            for array in getattr(model, name).proj:
                h.update(array.value.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_parameters_are_views_of_the_optimizer_buffers(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        opt = Adam(model.parameters())
        params = model.parameters()
        flat = np.concatenate([p.value.ravel() for p in params])
        assert flat.tobytes() == opt._value.tobytes()  # laid out in params order
        for p in params:
            assert np.shares_memory(p.value, opt._value)
            assert np.shares_memory(p.grad, opt._grad)
        tape = Tape()
        objective, _, _ = model.training_objective(tape, features, labels, x)
        tape.backward(objective)
        assert np.any(opt._grad)
        opt.zero_grads()
        assert not any(np.any(p.grad) for p in params)

    @pytest.mark.parametrize("variant", ["Proposed", "TaskArch", "AllFeats", "JointLoss"])
    def test_only_jointloss_trains_the_embedding_projection(self, batch, tmp_path, variant):
        """Behind a stop-gradient the projection is a constant: in no
        parameter list, group, optimizer or checkpoint. JointLoss trains it."""
        schema, *_ = batch
        state = T.TrainState(build(schema, variant=variant), TrainConfig())
        model = state.model
        T.save_checkpoint(state, tmp_path / "ckpt.json")
        payload = S.load_container(tmp_path / "ckpt.json")
        embed = {f"{g}/module/embed/{wb}" for g in ("conformity", "relevance")
                 for wb in "wb"}
        held = [
            {p.name for p in model.parameters()},
            {p.name for ps in model.groups().values() for p in ps},
            {p.name for p in state.optimizer.params},
            set(payload["params"]),
            set(payload["adam"]),
        ]
        for names in held:
            assert (names & embed) == (embed if variant == "JointLoss" else set())

    def test_frozen_projection_is_the_seeded_init_and_stays_put(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        joint = build(schema, variant="JointLoss")
        state, _ = T.run_experiment(tiny_model_config(variant="Proposed"),
                                    TrainConfig(batch_size=32), days, schema)
        prop = state.model
        for module in ("conformity", "relevance"):
            frozen = getattr(prop, module).proj
            for p, q in zip(frozen, getattr(joint, module).proj):
                assert p.name == q.name
                assert p.value.tobytes() == q.value.tobytes(), p.name
                assert not np.any(p.grad), p.name

    def test_jointloss_minus_proposed_is_the_two_projections(self, batch):
        schema, *_ = batch
        cfg = ModelConfig()
        total = lambda v: sum(p.value.size for p in
                              Cam2Model(dataclasses.replace(cfg, variant=v), schema).parameters())
        d_e, width = cfg.causal_embed_dim, cfg.tower_width
        assert total("JointLoss") - total("Proposed") == 2 * (2 * width * d_e + d_e)

    def test_empty_statistical_bucket_rejected(self):
        schema = validate_schema([
            FeatureSpec("user_a", DENSE, ATTRIBUTE),
            FeatureSpec("item_topic_flags", DENSE, ATTRIBUTE, width=3),
            FeatureSpec("user_interest_weights", DENSE, ATTRIBUTE, width=3),
        ])
        with pytest.raises(VariantError, match="statistical"):
            build(schema, variant="Proposed")


class TestForward:
    def test_predictions_within_clip_bounds(self, batch):
        schema, features, *_ = batch
        for variant in ("Baseline", "Proposed", "TaskArch", "JointLoss", "AllFeats"):
            preds = build(schema, variant=variant).predict(features)
            assert preds.min() >= 1e-7 and preds.max() <= 1.0 - 1e-7

    def test_causal_embeddings_are_consumed(self, batch):
        schema, features, *_ = batch
        model = build(schema, variant="Proposed")
        before = model.predict(features)
        # perturb the (frozen) embedding projections: a consumed input must change p_t
        for p in (*model.conformity.proj, *model.relevance.proj):
            p.value = p.value + 0.5
        after = model.predict(features)
        assert not np.allclose(before, after)

    def test_schema_hash_enforced(self, batch):
        schema, features, *_ = batch
        model = build(schema)
        with pytest.raises(SchemaHashError):
            model.predict(features, schema_hash="deadbeef")
        model.predict(features, schema_hash=schema.hash)

    def test_forward_deterministic(self, batch):
        schema, features, *_ = batch
        model = build(schema)
        assert np.array_equal(model.predict(features), model.predict(features))

    def test_predict_matches_recording_forward_bitwise(self, batch):
        schema, features, *_ = batch
        for variant in VARIANTS:
            model = build(schema, variant=variant)
            outs = model.forward(Tape(), features)
            recorded = np.column_stack([p.data for p in outs.task_probs])
            assert model.predict(features).tobytes() == recorded.tobytes(), variant

    def test_causal_embeddings_match_recording_forward_bitwise(self, batch):
        schema, features, *_ = batch
        for variant in ("Proposed", "TaskArch", "JointLoss", "AllFeats"):
            model = build(schema, variant=variant)
            outs = model.forward(Tape(), features)
            e_conf, e_rel = model.causal_embeddings(features)
            assert e_conf.tobytes() == outs.embeddings["conformity"].data.tobytes(), variant
            assert e_rel.tobytes() == outs.embeddings["relevance"].data.tobytes(), variant

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_strided_features_score_as_their_contiguous_copy(self, tiny_dataset, variant):
        """Input blocks whose columns form one run are gathered as views; a
        column slice of a wider array must give the bytes its copy gives, in
        predict and in a training step's objective and gradients."""
        _, _, schema, logs, _ = tiny_dataset
        rows = distinct_rows(schema, logs, 101)
        wide = np.concatenate([np.full((101, 2), 7.0), rows, np.full((101, 3), -1.0)], axis=1)
        strided = wide[:, 2 : 2 + schema.arity()]
        assert not strided.flags.c_contiguous
        copy = np.ascontiguousarray(strided)
        model = build(schema, variant=variant)
        assert model.predict(strided).tobytes() == model.predict(copy).tobytes()

        labels = logs[1].labels[:101]
        x = logs[1].x_scalar[:101]
        results = []
        for feats in (strided, copy):
            model.zero_grads()
            tape = Tape()
            objective, _, _ = model.training_objective(tape, feats, labels, x)
            tape.backward(objective)
            results.append((objective.data.tobytes(),
                            [p.grad.tobytes() for p in model.parameters()]))
        assert results[0] == results[1]

    def test_input_blocks_gathered_through_slices_or_index_arrays(self):
        assert _column_index([3, 4]) == slice(3, 5)
        assert _column_index([7]) == slice(7, 8)
        assert _column_index([]) is None
        for cols in ([0, 2], [4, 3], [1, 2, 4]):
            index = _column_index(cols)
            assert index.dtype == np.intp and index.tolist() == cols

    def test_de_zero_matches_baseline(self, batch):
        schema, features, *_ = batch
        base = build(schema, variant="Baseline")
        prop = build(schema, variant="Proposed", causal_embed_dim=0)
        assert np.array_equal(base.predict(features), prop.predict(features))


def distinct_rows(schema, logs, n, seed=0):
    """n feature rows resampled from the logs, each dense value jittered so
    that no two rows are alike (a misplaced chunk cannot go unnoticed)."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([log.features for log in logs])
    rows = pool[rng.integers(0, pool.shape[0], size=n)]
    dense = schema.dense_for()
    rows[:, dense] += rng.normal(0.0, 0.1, size=(n, len(dense)))
    return rows


class TestChunkedInference:
    @pytest.mark.parametrize("n", [0, INFER_CHUNK, INFER_CHUNK + 1, 2 * INFER_CHUNK + 3])
    def test_matches_one_unchunked_forward_in_row_order(self, tiny_dataset, n):
        # a tolerance, not bitwise: multithreaded BLAS may already change the
        # last bit of an unchunked forward from one call to the next
        _, _, schema, logs, _ = tiny_dataset
        features = distinct_rows(schema, logs, n)
        close = lambda a, b: np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
        for variant in VARIANTS:
            model = build(schema, variant=variant)
            outs = model.forward(Tape(grad=False), features)
            preds = model.predict(features)
            assert preds.shape == (n, len(model.config.task_weights))
            close(preds, np.column_stack([p.data for p in outs.task_probs]))
            if model.spec.causal:
                e_conf, e_rel = model.causal_embeddings(features)
                close(e_conf, outs.embeddings["conformity"].data)
                close(e_rel, outs.embeddings["relevance"].data)

    def test_peak_memory_does_not_grow_with_rows(self, tiny_dataset):
        _, _, schema, logs, _ = tiny_dataset
        model = build(schema, variant="Proposed")
        features = distinct_rows(schema, logs, 8 * INFER_CHUNK)

        def traced_peak(rows):
            tracemalloc.start()
            try:
                model.predict(rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        model.predict(features[:INFER_CHUNK])  # warm up numpy's own allocations
        one_chunk = traced_peak(features[:INFER_CHUNK])
        assert traced_peak(features) < 2 * one_chunk


class TestGradientProvenance:
    def test_task_losses_leave_causal_modules_untouched(self, batch):
        schema, features, labels, x = batch
        for variant in ("Proposed", "TaskArch", "AllFeats"):
            model = build(schema, variant=variant)
            prov = gradient_provenance(model, features, labels, x)
            assert prov["task"]["conformity"] == 0.0
            assert prov["task"]["relevance"] == 0.0
            assert prov["task"]["shared_bottom"] > 0.0
            assert prov["task"]["task_heads"] > 0.0

    def test_conformity_loss_confined(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        prov = gradient_provenance(model, features, labels, x)
        assert prov["conformity_loss"]["conformity"] > 0.0
        for g in ("relevance", "shared_bottom", "task_heads", "mixture"):
            assert prov["conformity_loss"][g] == 0.0
        assert prov["relevance_loss"]["relevance"] > 0.0
        assert prov["relevance_loss"]["conformity"] == 0.0

    def test_mixture_loss_touches_only_logits(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        prov = gradient_provenance(model, features, labels, x)
        assert prov["mixture_loss"]["mixture"] > 0.0
        for g in ("conformity", "relevance", "shared_bottom", "task_heads"):
            assert prov["mixture_loss"][g] == 0.0

    def test_jointloss_task_gradients_reach_causal_modules(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="JointLoss")
        prov = gradient_provenance(model, features, labels, x)
        assert prov["task"]["conformity"] > 1e-12
        assert prov["task"]["relevance"] > 1e-12

    def test_jointloss_audits_the_blended_targets(self, batch):
        # the audit must check the objective JointLoss trains: causal targets
        # blended with the anchor task label (squared losses, so the max-abs
        # gradients depend on the targets and not only on residual signs)
        schema, features, labels, x = batch
        model = build(schema, variant="JointLoss", squared_causal_loss=True)
        causal = targets(model, labels, x)
        lam, anchor = model.config.joint_label_mix, labels[:, 0]
        flags = model.topic_flags(features)
        relevance = causal.relevance[:, None] * flags
        cases = {
            "conformity_loss": ("conformity", causal.conformity[:, None],
                                ((1 - lam) * causal.conformity + lam * anchor)[:, None]),
            "relevance_loss": ("relevance", relevance,
                               (1 - lam) * relevance + lam * anchor[:, None] * flags),
        }

        def group_grads(pred, target):
            model.zero_grads()
            tape = Tape()
            outs = model.forward(tape, features)
            tape.backward(model._residual_loss(tape, outs.preds[pred], target))
            return {g: max(float(np.abs(p.grad).max()) for p in ps)
                    for g, ps in model.groups().items()}

        prov = gradient_provenance(model, features, labels, x)
        for comp, (pred, raw, blended) in cases.items():
            assert prov[comp] == group_grads(pred, blended)
            assert prov[comp] != group_grads(pred, raw)

    def test_check_decoupling_passes_all_variants(self, batch):
        schema, features, labels, x = batch
        for variant in ("Baseline", "Proposed", "TaskArch", "JointLoss", "AllFeats"):
            model = build(schema, variant=variant)
            check_decoupling(model, features, labels, x)

    @pytest.mark.parametrize("name", CAUSAL)
    def test_check_decoupling_refuses_each_leak(self, batch, monkeypatch, name):
        """Each leak the audit guards against, reported for one module at a
        time, raises; the audit reads the report gradient_provenance gives."""
        schema, features, labels, x = batch
        others = [g for g in CAUSAL if g != name]

        def audit(variant, comp, groups, value):
            """check_decoupling of a model whose report reads value for
            comp in groups."""
            model = build(schema, variant=variant)
            prov = gradient_provenance(model, features, labels, x)
            prov[comp].update(dict.fromkeys(groups, value))
            monkeypatch.setattr(M, "gradient_provenance", lambda *args: prov)
            return lambda: check_decoupling(model, features, labels, x)

        cases = [(("Proposed", "task", [name], 1e-3),
                  f"task losses leaked gradient into {name} module"),
                 (("JointLoss", "task", CAUSAL, 0.0), "expects task gradients"),
                 *((("Proposed", f"{name}_loss", [g], 1e-3),
                    f"{name}_loss leaked gradient into {g} module") for g in others)]
        for args, message in cases:
            with pytest.raises(AssertionError, match=message):
                audit(*args)()
        # JointLoss passes while any one module receives task gradient
        audit("JointLoss", "task", others, 0.0)()

    @pytest.mark.parametrize("variant", ["Proposed", "TaskArch", "JointLoss", "AllFeats"])
    def test_modules_are_only_called_through_their_attributes(self, batch, variant):
        """Every forward calls each causal module once, through the model
        attribute named after it, and reads nothing else off it: plain
        counting functions in their place give the same bytes."""
        schema, features, labels, x = batch
        plain, wrapped = build(schema, variant=variant), build(schema, variant=variant)
        calls = dict.fromkeys(["forward", *CAUSAL], 0)

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("forward", *CAUSAL):
            setattr(wrapped, name, counting(name, getattr(wrapped, name)))

        def step(model):
            model.zero_grads()
            tape = Tape()
            objective, _, _ = model.training_objective(tape, features, labels, x)
            tape.backward(objective)
            return objective.data.tobytes(), [p.grad.tobytes() for p in model.parameters()]

        runs = [
            lambda m: m.predict(features).tobytes(),
            step,
            lambda m: [e.tobytes() for e in m.causal_embeddings(features)],
            lambda m: check_decoupling(m, features, labels, x),
        ]
        for run in runs:
            before = calls["forward"]
            assert run(wrapped) == run(plain)
            assert calls["forward"] > before
            assert all(calls[name] == calls["forward"] for name in CAUSAL), calls


class _ConstantsTape(Tape):
    """Keeps every node made by Tape.constant."""

    def __init__(self):
        super().__init__()
        self.constants = []

    def constant(self, data):
        node = super().constant(data)
        self.constants.append(node)
        return node


class TestTrainingObjective:
    def test_constants_receive_no_gradient(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        tape = _ConstantsTape()
        objective, _, _ = model.training_objective(tape, features, labels, x)
        tape.backward(objective)
        assert tape.constants
        assert [n.shape for n in tape.constants if n.grad is not None] == []

    def test_proposed_step_records_at_most_86_ops(self, batch):
        # default-config Proposed: 127 recorded ops before Tape.bce, the shared
        # head input and unscaled unit-weight terms, 90 before the constant
        # causal-embedding projection; every recorded op gets a gradient
        schema, features, labels, x = batch
        model = Cam2Model(ModelConfig(variant="Proposed"), schema)
        tape = Tape()
        objective, _, _ = model.training_objective(tape, features, labels, x)
        assert len(tape._ops) <= 86
        tape.backward(objective)
        assert [out.shape for out, _ in tape._ops if out.grad is None] == []

    def test_report_total_is_weighted_sum(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        tape = Tape()
        objective, _, terms = model.training_objective(tape, features, labels, x)
        cfg = model.config
        value = {name: float(node.data) for name, node in terms.items()}
        recomputed = (total_loss([value[f"task{t}"] for t in range(len(cfg.task_weights))],
                                 value["conformity_loss"], value["relevance_loss"],
                                 cfg.task_weights, cfg.conformity_weight,
                                 cfg.relevance_weight)
                      + cfg.mixture_weight * value["mixture_loss"])
        assert float(objective.data) == pytest.approx(recomputed, abs=1e-12)

    def test_baseline_report_has_no_causal_losses(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Baseline")
        tape = Tape()
        _, _, terms = model.training_objective(tape, features, labels, x)
        assert list(terms) == [f"task{t}" for t in range(labels.shape[1])]

    def test_graph_losses_match_reference_formulas(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        causal = targets(model, labels, x)
        tape = Tape()
        _, outs, terms = model.training_objective(tape, features, labels, x)
        (u, i), (u_x, i_x) = (raw_heads(model, m, features)
                              for m in (model.conformity, model.relevance))
        assert outs.preds["conformity"].data.tobytes() == np.abs(u + i).tobytes()
        assert outs.preds["relevance"].data.tobytes() == (u_x * i_x).tobytes()
        assert float(terms["conformity_loss"].data) == pytest.approx(
            conformity_loss(causal.conformity, u[:, 0], i[:, 0]), abs=1e-12)
        assert float(terms["relevance_loss"].data) == pytest.approx(
            relevance_loss(causal.relevance[:, None] * model.topic_flags(features), u_x, i_x),
            abs=1e-12)
        for t in range(labels.shape[1]):
            assert float(terms[f"task{t}"].data) == pytest.approx(
                L.bce(outs.task_probs[t].data, labels[:, t]), abs=1e-12)

    def test_objective_is_in_order_weighted_sum_of_loss_terms(self, batch):
        schema, features, labels, x = batch
        for variant in VARIANTS:
            for squared in (False, True):
                model = build(schema, variant=variant, squared_causal_loss=squared)
                cfg = model.config
                objective, _, _ = model.training_objective(Tape(), features, labels, x)
                _, terms = model.loss_terms(Tape(), features, labels, x)
                names = [f"task{t}" for t in range(len(cfg.task_weights))]
                weights = list(cfg.task_weights)
                if model.spec.causal:
                    names += ["conformity_loss", "relevance_loss", "mixture_loss"]
                    weights += [cfg.conformity_weight, cfg.relevance_weight,
                                cfg.mixture_weight]
                assert list(terms) == names
                scaled = [terms[n].data * w for n, w in zip(names, weights) if w]
                total = scaled[0]
                for v in scaled[1:]:
                    total = total + v
                assert objective.data.tobytes() == total.tobytes(), (variant, squared)

    def test_mixture_matches_oracle(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        model.mixture_logits.value = np.array([[0.7, -0.4]])
        tape = Tape()
        outs = model.forward(tape, features)
        flags = model.topic_flags(features)
        mix = model._mixture(tape, outs, flags)
        (u, i), (u_x, i_x) = (raw_heads(model, m, features)
                              for m in (model.conformity, model.relevance))
        clip = lambda p: np.clip(p, L.PROB_CLIP, 1.0 - L.PROB_CLIP)
        p_conf = clip(np.abs(u[:, 0] + i[:, 0]))
        p_rel = clip((u_x * i_x * flags).sum(axis=1) / np.maximum(flags.sum(axis=1), 1.0))
        expected = mixture_decomposition(p_conf, p_rel,
                                         *mixture_weights(model.mixture_logits.value[0]))
        assert mix.data.shape == expected.shape
        assert np.max(np.abs(mix.data - expected)) <= 1e-12
