import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_model_config
from oracles import conformity_loss, mixture_decomposition, mixture_weights, relevance_loss
from confrank import losses as L
from confrank.autodiff import Tape
from confrank.config import VARIANTS
from confrank.labels import causal_labels
from confrank.model import (INFER_CHUNK, Cam2Model, SchemaHashError, VariantError,
                            check_decoupling, gradient_provenance)
from confrank.schema import (ATTRIBUTE, DENSE, STATISTICAL, FeatureSpec,
                             validate_schema)


@pytest.fixture(scope="module")
def batch(tiny_dataset):
    _, _, schema, logs, _ = tiny_dataset
    log = logs[1]
    n = 48
    return schema, log.features[:n], log.labels[:n], log.x_scalar[:n]


def build(schema, **over):
    return Cam2Model(tiny_model_config(**over), schema)


def targets(model, features, labels, x):
    return causal_labels(labels[:, 0], x, model.config.thresh,
                         model.topic_flags(features))


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

    def test_parameters_are_views_of_the_optimizer_buffers(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        opt = model.make_optimizer()
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
        # perturb the embedding projections: a consumed input must change p_t
        for p in model.groups()["conformity"] + model.groups()["relevance"]:
            if p.name.endswith("embed/w") or p.name.endswith("embed/b"):
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
            assert e_conf.tobytes() == outs.e_conf.data.tobytes(), variant
            assert e_rel.tobytes() == outs.e_rel.data.tobytes(), variant

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
                close(e_conf, outs.e_conf.data)
                close(e_rel, outs.e_rel.data)

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
        causal = targets(model, features, labels, x)
        lam, anchor = model.config.joint_label_mix, labels[:, 0]
        flags = model.topic_flags(features)
        cases = {
            "conformity_loss": (model._conformity_node, causal.conformity,
                                (1 - lam) * causal.conformity + lam * anchor),
            "relevance_loss": (model._relevance_node, causal.per_interest,
                               (1 - lam) * causal.per_interest + lam * anchor[:, None] * flags),
        }

        def group_grads(loss_node, target):
            model.zero_grads()
            tape = Tape()
            tape.backward(loss_node(tape, model.forward(tape, features), target))
            return {g: max(float(np.abs(p.grad).max()) for p in ps)
                    for g, ps in model.groups().items()}

        prov = gradient_provenance(model, features, labels, x)
        for comp, (loss_node, raw, blended) in cases.items():
            assert prov[comp] == group_grads(loss_node, blended)
            assert prov[comp] != group_grads(loss_node, raw)

    def test_check_decoupling_passes_all_variants(self, batch):
        schema, features, labels, x = batch
        for variant in ("Baseline", "Proposed", "TaskArch", "JointLoss", "AllFeats"):
            model = build(schema, variant=variant)
            check_decoupling(model, features, labels, x)


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

    def test_report_total_is_weighted_sum(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        tape = Tape()
        _, _, report = model.training_objective(tape, features, labels, x)
        cfg = model.config
        recomputed = (sum(w * l for w, l in zip(cfg.task_weights, report.task))
                      + cfg.conformity_weight * report.conformity
                      + cfg.relevance_weight * report.relevance)
        assert report.total == pytest.approx(recomputed, abs=1e-12)

    def test_baseline_report_has_no_causal_losses(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Baseline")
        tape = Tape()
        _, _, report = model.training_objective(tape, features, labels, x)
        assert report.conformity == 0.0 and report.relevance == 0.0

    def test_graph_losses_match_reference_formulas(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        causal = targets(model, features, labels, x)
        tape = Tape()
        _, outs, report = model.training_objective(tape, features, labels, x)
        u, i = outs.u_hat.data, outs.i_hat.data
        assert report.conformity == pytest.approx(
            conformity_loss(causal.conformity, u, i), abs=1e-12)
        assert report.relevance == pytest.approx(
            relevance_loss(causal.per_interest, outs.u_x.data, outs.i_x.data),
            abs=1e-12)
        for t in range(labels.shape[1]):
            assert report.task[t] == pytest.approx(
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
        clip = lambda p: np.clip(p, L.PROB_CLIP, 1.0 - L.PROB_CLIP)
        p_conf = clip(np.abs(outs.u_hat.data + outs.i_hat.data))
        p_rel = clip((outs.u_x.data * outs.i_x.data * flags).sum(axis=1)
                     / np.maximum(flags.sum(axis=1), 1.0))
        expected = mixture_decomposition(p_conf, p_rel,
                                         *mixture_weights(model.mixture_logits.value[0]))
        assert mix.data.shape == expected.shape
        assert np.max(np.abs(mix.data - expected)) <= 1e-12
