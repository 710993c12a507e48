"""Acceptance gate: nine end-to-end checks of the whole package.

Criteria 1-4 and 8 are exact (finite differences, bitwise contracts, formula
oracles, determinism). Criteria 5-7 are empirical: they run the shipped
variant comparison, evalrank.ablation_run, on the default synthetic
configuration and assert the directional pattern the architecture is
supposed to produce, with regression thresholds frozen from pre-registered
oracle runs. Criterion 9 drives the CLI end to end.

The empirical criteria are slow (minutes); run the rest of the suite with
``pytest --ignore=tests/test_acceptance.py`` for a quick signal.
"""
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from oracles import conformity_loss, mixture_decomposition, relevance_loss, total_loss
from confrank import cli
from confrank import evalrank as E
from confrank import losses as L
from confrank import trainer as T
from confrank.autodiff import Tape
from confrank.config import (DataConfig, EvalConfig, ModelConfig, TrainConfig,
                             VARIANTS)
from confrank.datagen import generate_world, simulate_days
from confrank.model import Cam2Model, check_decoupling, gradient_provenance
from confrank.schema import default_schema


# -- shared fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def default_dataset():
    """The default synthetic ecosystem used by the empirical criteria."""
    cfg = DataConfig()
    world = generate_world(cfg)
    schema = default_schema(cfg.k_topics, cfg.n_age_buckets, cfg.n_content_types)
    logs = list(simulate_days(world, schema))
    days = [T.day_data_from_log(log, schema.hash) for log in logs]
    return cfg, world, schema, logs, days


@pytest.fixture(scope="module")
def micro_setup():
    """Tiny two-task world for exact gradient checks (widths <= 8, d_e=4, k=3)."""
    cfg = DataConfig(n_users=40, n_items=80, k_topics=3, n_tasks=2, n_days=3,
                     new_items_per_day=4, mean_activity=4.0,
                     task_alpha=(1.5, 1.0), task_beta=(2.0, 2.2),
                     task_gamma=(-1.0, -1.5), seed=11)
    world = generate_world(cfg)
    schema = default_schema(cfg.k_topics, cfg.n_age_buckets, cfg.n_content_types)
    logs = list(simulate_days(world, schema))
    day = T.day_data_from_log(logs[1], schema.hash)
    model_cfg = ModelConfig(variant="Proposed", shared_widths=(8, 8),
                            head_widths=(8, 1), tower_width=8, tower_blocks=1,
                            embed_dim=4, causal_embed_dim=4,
                            task_weights=(1.0, 1.0), seed=5)
    return schema, day, model_cfg


class _RecordingTape(Tape):
    """Captures every value passing a stop-gradient barrier, in order."""

    def __init__(self):
        super().__init__()
        self.stopped = []

    def stop_gradient(self, a):
        self.stopped.append(a.data.copy())
        return super().stop_gradient(a)


class _FrozenBarrierTape(Tape):
    """Replays captured barrier values as constants.

    A stop-gradient barrier defines its output's derivative as zero, so the
    function whose finite differences match the analytic gradient is the one
    where barrier outputs are held at their base-point values while parameters
    are perturbed.
    """

    def __init__(self, stopped):
        super().__init__()
        self._replay = list(stopped)

    def stop_gradient(self, a):
        frozen = self._replay.pop(0)
        return super().stop_gradient(type(a)(frozen))


def _objective_value(model, feats, labels, x, stopped):
    tape = _FrozenBarrierTape(stopped)
    obj, _, _ = model.training_objective(tape, feats, labels, x)
    return float(obj.data)


# -- 1. gradient correctness -------------------------------------------


def test_criterion_1_gradients_match_finite_differences(micro_setup):
    schema, day, model_cfg = micro_setup
    model = Cam2Model(model_cfg, schema)
    n = 16
    feats, labels, x = day["features"][:n], day["labels"][:n], day["x"][:n]

    tape = _RecordingTape()
    obj, _, _ = model.training_objective(tape, feats, labels, x)
    model.zero_grads()
    tape.backward(obj)
    stopped = tape.stopped

    start = time.time()
    h = 1e-5
    worst_rel = worst_abs = 0.0
    for p in model.parameters():
        grad = p.grad.copy()
        it = np.nditer(p.value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p.value[idx]
            p.value[idx] = keep + h
            hi = _objective_value(model, feats, labels, x, stopped)
            p.value[idx] = keep - h
            lo = _objective_value(model, feats, labels, x, stopped)
            p.value[idx] = keep
            fd = (hi - lo) / (2 * h)
            err = abs(grad[idx] - fd)
            ok = err <= 1e-6 or err / max(abs(fd), abs(grad[idx])) <= 1e-4
            assert ok, (f"{p.name}{idx}: analytic={grad[idx]:.10g} fd={fd:.10g}")
            worst_abs = max(worst_abs, err)
            if max(abs(fd), abs(grad[idx])) > 0:
                worst_rel = max(worst_rel, err / max(abs(fd), abs(grad[idx])))
    elapsed = time.time() - start
    assert elapsed < 60.0, f"finite-difference sweep took {elapsed:.1f}s"


# -- 2. stop-gradient contract -----------------------------------------


def test_criterion_2_stop_gradient_contract(micro_setup):
    schema, day, model_cfg = micro_setup
    n = 32
    feats, labels, x = day["features"][:n], day["labels"][:n], day["x"][:n]
    for variant in ("Proposed", "TaskArch", "AllFeats"):
        model = Cam2Model(dataclasses.replace(model_cfg, variant=variant), schema)
        check_decoupling(model, feats, labels, x)  # raises on violation
        prov = gradient_provenance(model, feats, labels, x)
        assert prov["task"]["conformity"] == 0.0  # bitwise zero
        assert prov["task"]["relevance"] == 0.0
        assert prov["conformity_loss"]["relevance"] == 0.0
        assert prov["relevance_loss"]["conformity"] == 0.0

    joint = Cam2Model(dataclasses.replace(model_cfg, variant="JointLoss"), schema)
    prov = gradient_provenance(joint, feats, labels, x)
    assert prov["task"]["conformity"] + prov["task"]["relevance"] > 1e-12


# -- 3. loss formula oracles -------------------------------------------


def test_criterion_3_loss_formula_oracles():
    assert conformity_loss([1], [0.3], [0.4]) == pytest.approx(0.3, abs=1e-9)
    assert conformity_loss([1], [0.6], [0.6]) == pytest.approx(0.2, abs=1e-9)
    assert relevance_loss([[1, 0]], [[0.5, 0.5]], [[1, 0]]) == pytest.approx(0.5, abs=1e-9)
    assert relevance_loss([[1, 1, 0]], [[0.8, 0.5, 0.1]],
                          [[1, 1, 1]]) == pytest.approx(0.8, abs=1e-9)
    assert total_loss((0.5, 0.25), 0.1, 0.2, (2.0, 4.0), 1.0, 0.5) == pytest.approx(2.2, abs=1e-9)
    blend = mixture_decomposition(0.3, 0.8, 0.25, 0.75)
    assert blend == pytest.approx(0.25 * 0.3 + 0.75 * 0.8, abs=1e-9)

    y = [1, 0, 0, 1]
    p_base = [0.5, 0.5, 0.5, 0.5]
    assert L.normalized_cross_entropy(p_base, y) == pytest.approx(1.0, abs=1e-12)
    got = L.normalized_cross_entropy([0.9, 0.1, 0.2, 0.8], y)
    hand = np.mean([-np.log(0.9), -np.log(0.9), -np.log(0.8), -np.log(0.8)])
    assert got == pytest.approx(hand / np.log(2.0), abs=1e-9)


# -- 4. determinism & warm start ---------------------------------------


def test_criterion_4_determinism_and_warm_start(micro_setup, tmp_path):
    schema, _, model_cfg = micro_setup
    cfg = DataConfig(n_users=40, n_items=80, k_topics=3, n_tasks=2, n_days=4,
                     new_items_per_day=4, mean_activity=4.0,
                     task_alpha=(1.5, 1.0), task_beta=(2.0, 2.2),
                     task_gamma=(-1.0, -1.5), seed=11)
    world = generate_world(cfg)
    days = [T.day_data_from_log(log, schema.hash)
            for log in simulate_days(world, schema)]
    tc = TrainConfig(batch_size=32)

    paths = []
    for tag in ("a", "b"):
        state, _ = T.run_experiment(model_cfg, tc, days, schema,
                                    audit_first_batch=False)
        path = str(tmp_path / f"{tag}.json")
        T.save_checkpoint(state, path)
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()

    part, _ = T.run_experiment(model_cfg, tc, days[:3], schema,
                               audit_first_batch=False)
    mid = str(tmp_path / "mid.json")
    T.save_checkpoint(part, mid)
    resumed = T.load_checkpoint(mid)
    T.resume_experiment(resumed, days)
    cont = str(tmp_path / "resumed.json")
    T.save_checkpoint(resumed, cont)
    with open(paths[0], "rb") as a, open(cont, "rb") as b:
        assert a.read() == b.read()  # bitwise: params, Adam state, step counts


# -- 5. variant comparison sign pattern --------------------------------

# The directional comparison uses 10 pre-registered seeds (0-9): per-seed
# deltas of non-Baseline variants sit in a +-1% noise band at this scale, so
# 5-seed medians are not reliable. Each variant is compared against the
# same-seed Baseline (paired by data order, init of shared parts, and shuffle).
COMPARISON_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def ablation(default_dataset):
    """The shipped sweep, evalrank.ablation_run, over Baseline, Proposed and
    AllFeats at the comparison seeds: the NE table, and per seed the last-day
    replay of every variant and the probes of each causal one (its first
    EvalConfig().probe_samples = 10000 rows). Shared by criteria 5-7."""
    _, world, schema, _, days = default_dataset
    start = time.time()
    result = E.ablation_run(ModelConfig(), TrainConfig(), EvalConfig(), world, days,
                            schema, seeds=COMPARISON_SEEDS,
                            variants=("Proposed", "AllFeats"))
    result["elapsed_s"] = time.time() - start
    return result


def test_criterion_5_variant_sign_pattern(ablation):
    deltas = {}
    for variant in ("Proposed", "AllFeats"):
        per_seed = ablation["table"][variant]["per_seed"]
        deltas[variant] = [per_seed[s]["delta_pct"] for s in COMPARISON_SEEDS]
    med_p = float(np.median(deltas["Proposed"]))
    med_a = float(np.median(deltas["AllFeats"]))
    assert med_p < 0.0, f"Proposed median delta {med_p:+.3f}%"
    assert med_p < med_a, f"Proposed {med_p:+.3f}% vs AllFeats {med_a:+.3f}%"
    neg = sum(1 for d in deltas["Proposed"] if d < 0.0)
    # same rate as "4 of 5" at the registered seed count
    need = int(np.ceil(0.8 * len(COMPARISON_SEEDS)))
    assert neg >= need, f"Proposed beat Baseline in only {neg}/{len(COMPARISON_SEEDS)} seeds"
    assert ablation["elapsed_s"] < 1800.0


# -- 6. disentanglement probes -----------------------------------------

# Floors frozen from the pre-registered oracle run (calibration, 5 seeds,
# default config) at half the worst observed margin:
#   R2(e_conf->pop) - R2(e_rel->pop)     observed 0.80-0.85  -> floor 0.40
#   R2(e_rel->align) - R2(e_conf->align) observed 0.18-0.22  -> floor 0.09
PROBE_POP_MARGIN = 0.40
PROBE_ALIGN_MARGIN = 0.09


def test_criterion_6_trained_probe_ordering(ablation):
    pop_margins, align_margins = [], []
    for seed in range(5):
        p = ablation["probes"][seed]["Proposed"]
        pop_margins.append(p["e_conf"]["popularity"] - p["e_rel"]["popularity"])
        align_margins.append(p["e_rel"]["alignment"] - p["e_conf"]["alignment"])
    assert min(pop_margins) > PROBE_POP_MARGIN, pop_margins
    assert min(align_margins) > PROBE_ALIGN_MARGIN, align_margins


def test_criterion_6_random_init_probes_carry_no_signal(default_dataset):
    """An untrained model's probe R^2 must be < 0.05 on every cell.

    This check is expected to FAIL, and the failure is left visible on
    purpose: the conformity embedding is a (frozen, random) projection of the
    tower penultimates, and the item tower's statistical inputs (z-scored log
    impression/view counts) are already nearly collinear with the probe target
    z(log popularity). Any random linear+relu map preserves that linear
    information, so an untrained model structurally scores R^2 ~ 0.96 on the
    popularity probe. Silencing the projection at init is not an option: in
    the decoupled variants no gradient path ever updates it, so a zero start
    would disable the causal pathway permanently. The bound below is therefore
    unattainable for this architecture; the assertion is kept (not weakened,
    not skipped) so the gap stays on the record.
    """
    _, world, schema, logs, _ = default_dataset
    log = logs[-1]
    n = min(10000, len(log.user_ids))
    worst = {}
    for seed in range(5):
        model = Cam2Model(ModelConfig(variant="Proposed", seed=seed), schema)
        p = E.disentanglement_probe(model, world, log.features[:n],
                                    log.user_ids[:n], log.item_ids[:n])
        for emb, row in p.items():
            for target, r2 in row.items():
                key = f"{emb}->{target}"
                worst[key] = max(worst.get(key, 0.0), r2)
    assert max(worst.values()) < 0.05, (
        "untrained probes must be uninformative, but measured " +
        ", ".join(f"{k}={v:.3f}" for k, v in sorted(worst.items())))


# -- 7. long-tail replay direction -------------------------------------


def test_criterion_7_replay_tail_direction(ablation):
    """Proposed must cover at least as many long-tail items as Baseline
    (median over seeds of the paired tail-count difference, 50% and 75%
    engagement quantiles) in a frozen one-day counterfactual replay.

    This check is expected to FAIL at this scale, and the failure is left
    visible on purpose. A pre-registered oracle sweep (3 replay sizes x 5
    seeds, identical frozen candidate sets, history ending the day before
    the replay) measured the paired difference at -1..0 items at the 50%
    quantile and -5..0 at 75% out of tail sets of ~150-225 items: a <=3%
    deficit, directionally consistent but never positive. The claimed tail
    widening arises from a deployment feedback loop (serving a conformity-
    corrected ranker changes exposure, which changes future conformity
    features and training data, compounding over days); a single-shot
    offline replay holds exposure history fixed, so that mechanism cannot
    operate, and the better-calibrated model redistributes mass within the
    head instead. The assertion is kept (not weakened, not skipped) so the
    gap stays on the record.
    """
    diffs50, diffs75 = [], []
    for seed in range(5):
        counts = {v: ablation["replay"][seed][v]["counts"] for v in ("Baseline", "Proposed")}
        diffs50.append(counts["Proposed"][0.5] - counts["Baseline"][0.5])
        diffs75.append(counts["Proposed"][0.75] - counts["Baseline"][0.75])
    assert np.median(diffs50) >= 0, f"50% tail-count diffs {diffs50}"
    assert np.median(diffs75) >= 0, f"75% tail-count diffs {diffs75}"


# -- 8. degenerate-holdout guard ---------------------------------------


def test_criterion_8_degenerate_holdout_raises(micro_setup):
    schema, day, model_cfg = micro_setup
    model = Cam2Model(model_cfg, schema)
    degenerate = dict(day)
    degenerate["labels"] = np.ones_like(day["labels"])
    with pytest.raises(L.DegenerateLabelsError):
        T.evaluate_ne(model, degenerate)
    degenerate["labels"] = np.zeros_like(day["labels"])
    with pytest.raises(L.DegenerateLabelsError):
        T.evaluate_ne(model, degenerate)


# -- 9. end-to-end pipeline --------------------------------------------


def test_criterion_9_end_to_end_pipeline(tmp_path, capsys):
    start = time.time()
    data = str(tmp_path / "data")
    out = str(tmp_path / "train")
    assert cli.main(["gen-data", "--out", data]) == 0
    assert cli.main(["train", "--dataset", data, "--out", out,
                     "--variant", "Proposed", "--seed", "0"]) == 0
    assert cli.main(["report", "--metrics", out]) == 0
    text = capsys.readouterr().out
    elapsed = time.time() - start
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"

    # variant-comparison-shaped table: NE cell populated for the trained run
    with open(os.path.join(out, "report.json")) as fh:
        summary = json.load(fh)
    assert summary["ne"]["Proposed"]["median_ne"] > 0
    # age-bucket-shaped table: every bucket cell populated
    for bucket in ("[0-1 day)", "[1-3 days)", "[3-10 days)", "[10+ days)"):
        cell = summary["age_table"][bucket]
        assert cell["events"] > 0 and 0.0 <= cell["rate"] <= 1.0
        assert bucket in text
    assert summary["tail"]["counts"]["0.5"] > 0
    assert summary["cohort"]["casual"]["users"] > 0
