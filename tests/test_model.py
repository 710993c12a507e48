import dataclasses

import numpy as np
import pytest

from conftest import tiny_model_config
from confrank.autodiff import Tape
from confrank.config import VARIANTS
from confrank.labels import causal_labels
from confrank.model import (Cam2Model, SchemaHashError, VariantError,
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
        objective, _, _ = model.training_objective(
            tape, features, labels, targets(model, features, labels, x))
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


class TestGradientProvenance:
    def test_task_losses_leave_causal_modules_untouched(self, batch):
        schema, features, labels, x = batch
        for variant in ("Proposed", "TaskArch", "AllFeats"):
            model = build(schema, variant=variant)
            prov = gradient_provenance(model, features, labels,
                                       targets(model, features, labels, x))
            assert prov["task"]["conformity"] == 0.0
            assert prov["task"]["relevance"] == 0.0
            assert prov["task"]["shared_bottom"] > 0.0
            assert prov["task"]["task_heads"] > 0.0

    def test_conformity_loss_confined(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        prov = gradient_provenance(model, features, labels,
                                   targets(model, features, labels, x))
        assert prov["conformity_loss"]["conformity"] > 0.0
        for g in ("relevance", "shared_bottom", "task_heads", "mixture"):
            assert prov["conformity_loss"][g] == 0.0
        assert prov["relevance_loss"]["relevance"] > 0.0
        assert prov["relevance_loss"]["conformity"] == 0.0

    def test_mixture_loss_touches_only_logits(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        prov = gradient_provenance(model, features, labels,
                                   targets(model, features, labels, x))
        assert prov["mixture_loss"]["mixture"] > 0.0
        for g in ("conformity", "relevance", "shared_bottom", "task_heads"):
            assert prov["mixture_loss"][g] == 0.0

    def test_jointloss_task_gradients_reach_causal_modules(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="JointLoss")
        prov = gradient_provenance(model, features, labels,
                                   targets(model, features, labels, x))
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

        prov = gradient_provenance(model, features, labels, causal)
        for comp, (loss_node, raw, blended) in cases.items():
            assert prov[comp] == group_grads(loss_node, blended)
            assert prov[comp] != group_grads(loss_node, raw)

    def test_check_decoupling_passes_all_variants(self, batch):
        schema, features, labels, x = batch
        for variant in ("Baseline", "Proposed", "TaskArch", "JointLoss", "AllFeats"):
            model = build(schema, variant=variant)
            check_decoupling(model, features, labels,
                             targets(model, features, labels, x))


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
        objective, _, _ = model.training_objective(
            tape, features, labels, targets(model, features, labels, x))
        tape.backward(objective)
        assert tape.constants
        assert [n.shape for n in tape.constants if n.grad is not None] == []

    def test_report_total_is_weighted_sum(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        tape = Tape()
        _, _, report = model.training_objective(
            tape, features, labels, targets(model, features, labels, x))
        cfg = model.config
        recomputed = (sum(w * l for w, l in zip(cfg.task_weights, report.task))
                      + cfg.conformity_weight * report.conformity
                      + cfg.relevance_weight * report.relevance)
        assert report.total == pytest.approx(recomputed, abs=1e-12)

    def test_baseline_report_has_no_causal_losses(self, batch):
        schema, features, labels, x = batch
        model = build(schema, variant="Baseline")
        tape = Tape()
        _, _, report = model.training_objective(tape, features, labels, None)
        assert report.conformity == 0.0 and report.relevance == 0.0

    def test_graph_losses_match_reference_formulas(self, batch):
        from confrank import losses as L
        schema, features, labels, x = batch
        model = build(schema, variant="Proposed")
        causal = targets(model, features, labels, x)
        tape = Tape()
        _, outs, report = model.training_objective(tape, features, labels, causal)
        u, i = outs.u_hat.data, outs.i_hat.data
        assert report.conformity == pytest.approx(
            L.conformity_loss(causal.conformity, u, i), abs=1e-12)
        assert report.relevance == pytest.approx(
            L.relevance_loss(causal.per_interest, outs.u_x.data, outs.i_x.data),
            abs=1e-12)
        for t in range(labels.shape[1]):
            assert report.task[t] == pytest.approx(
                L.task_loss(outs.task_probs[t].data, labels[:, t]), abs=1e-12)
