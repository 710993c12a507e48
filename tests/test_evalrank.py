import numpy as np
import pytest

import oracles
from conftest import tiny_model_config
from confrank import evalrank as E
from confrank import trainer as T
from confrank.config import DataConfig, EvalConfig, ModelConfig, TrainConfig
from confrank.datagen import History, generate_world, simulate_days
from confrank.model import Cam2Model
from confrank.schema import default_schema


class TestFinalScore:
    def test_single_task(self):
        """One task's score is its probability; more tasks score their row sum."""
        probs = np.array([[0.7, 0.1, 0.25], [0.2, 0.4, 0.4]])
        assert E.final_score(probs).tobytes() == (probs @ np.ones(3)).tobytes()
        assert E.final_score([[0.7]])[0] == 0.7


class TestRankTopk:
    @pytest.fixture()
    def model(self, tiny_dataset):
        _, _, schema, _, _ = tiny_dataset
        return Cam2Model(tiny_model_config(), schema)

    def test_single_candidate(self, model, tiny_dataset):
        _, _, _, logs, _ = tiny_dataset
        ranked = E.rank_topk(model, logs[0].features[:1], [42], k=5)
        assert list(ranked.item_ids) == [42]

    def test_tie_break_ascending_item_id(self, model, tiny_dataset):
        _, _, _, logs, _ = tiny_dataset
        feats = np.repeat(logs[0].features[:1], 2, axis=0)  # identical scores
        ranked = E.rank_topk(model, feats, [9, 3], k=2)
        assert list(ranked.item_ids) == [3, 9]

    def test_topk_agrees_with_full_sort(self, model, tiny_dataset):
        _, _, _, logs, _ = tiny_dataset
        feats = logs[1].features[:100]
        ids = np.arange(100)
        full = E.rank_topk(model, feats, ids, k=100)
        top = E.rank_topk(model, feats, ids, k=10)
        assert np.array_equal(full.item_ids[:10], top.item_ids)
        assert np.all(np.diff(full.scores) <= 1e-15)

    def test_bad_k_and_empty(self, model, tiny_dataset):
        _, _, _, logs, _ = tiny_dataset
        with pytest.raises(E.EvalError):
            E.rank_topk(model, logs[0].features[:1], [1], k=0)
        with pytest.raises(E.EvalError):
            E.rank_topk(model, logs[0].features[:0], [], k=1)


class TestTopKOrder:
    ITEMS = np.array([[7, 2, 5, 4], [1, 3, 0, 9]])
    SCORES = np.array([[0.5, 0.9, 0.5, 0.1], [0.2, 0.2, 0.2, 0.8]])
    # descending score, equal scores by ascending item id
    WANT = [[2, 5, 7, 4], [9, 0, 1, 3]]

    @pytest.mark.parametrize("k", [1, 3, 4, 10])
    def test_each_row_alone_and_in_a_matrix(self, k):
        want = [w[:k] for w in self.WANT]
        for items, scores, row in zip(self.ITEMS, self.SCORES, want):
            assert items[E._top_k_order(items, scores, k)].tolist() == row
        order = E._top_k_order(self.ITEMS, self.SCORES, k)
        assert np.take_along_axis(self.ITEMS, order, axis=1).tolist() == want


class TestTailCoverage:
    def test_single_item(self):
        out = E.tail_coverage([0, 10, 0])
        assert out["counts"][0.5] == 1 and out["counts"][0.75] == 1

    def test_uniform(self):
        out = E.tail_coverage(np.ones(100))
        assert out["counts"][0.5] == 50 and out["counts"][0.75] == 75

    def test_cumulative_arithmetic(self):
        out = E.tail_coverage([40, 30, 20, 10])
        assert out["counts"][0.5] == 2 and out["counts"][0.75] == 3

    def test_monotone_in_quantile(self):
        rng = np.random.default_rng(1)
        eng = rng.random(50)
        out = E.tail_coverage(eng, quantiles=(0.25, 0.5, 0.75, 0.9))
        counts = [out["counts"][q] for q in (0.25, 0.5, 0.75, 0.9)]
        assert counts == sorted(counts)

    def test_empty_log(self):
        with pytest.raises(E.EvalError):
            E.tail_coverage(np.zeros(5))


class TestEngagementByItemAge:
    def test_all_born_today(self):
        out = E.engagement_by_item_age([3, 3, 3], [3, 3, 3], [1, 0, 1])
        assert out["[0-1 day)"]["events"] == 3
        for label in E.AGE_BUCKET_LABELS[1:]:
            assert out[label]["events"] == 0

    def test_half_open_boundary(self):
        out = E.engagement_by_item_age([3], [0], [1])
        assert out["[3-10 days)"]["events"] == 1

    def test_known_rates_reproduced(self):
        rng = np.random.default_rng(2)
        ages = np.array([0, 2, 5, 20])
        rates = {0: 0.8, 2: 0.5, 5: 0.25, 20: 0.1}
        event_days, births, engaged = [], [], []
        for age in ages:
            for _ in range(3000):
                event_days.append(age)
                births.append(0)
                engaged.append(rng.random() < rates[age])
        out = E.engagement_by_item_age(event_days, births, engaged)
        assert out["[0-1 day)"]["rate"] == pytest.approx(0.8, abs=0.03)
        assert out["[1-3 days)"]["rate"] == pytest.approx(0.5, abs=0.03)
        assert out["[3-10 days)"]["rate"] == pytest.approx(0.25, abs=0.03)
        assert out["[10+ days)"]["rate"] == pytest.approx(0.1, abs=0.03)

    def test_negative_age_rejected(self):
        with pytest.raises(E.EvalError, match="birth"):
            E.engagement_by_item_age([1], [5], [1])


class TestCohortMetrics:
    def test_rule_boundaries(self):
        active = np.zeros((4, 28), dtype=bool)
        active[1, 0] = True  # 1 day -> casual
        active[2, :2] = True  # 2 days -> casual
        active[3, :3] = True  # 3 days -> not casual
        out = E.cohort_metrics(active, np.zeros(4))
        assert out["casual_mask"].tolist() == [False, True, True, False]

    def test_freeze_semantics(self):
        active = np.zeros((2, 30), dtype=bool)
        active[0, -2] = True
        before = E.cohort_metrics(active, np.zeros(2))["casual_mask"].copy()
        # activity added outside the trailing window cannot change the tag
        active[:, 0] = True
        after = E.cohort_metrics(active, np.zeros(2))["casual_mask"]
        assert np.array_equal(before, after)

    def test_window_exceeds_history(self):
        with pytest.raises(E.EvalError, match="window"):
            E.cohort_metrics(np.zeros((2, 10), dtype=bool), np.zeros(2))


class TestProbes:
    def test_constant_target_r2_zero(self):
        rng = np.random.default_rng(0)
        assert E.linear_probe_r2(rng.normal(size=(100, 4)), np.ones(100)) == 0.0

    def test_r2_in_unit_interval(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=200)
        r2 = E.linear_probe_r2(x, y)
        assert 0.0 <= r2 <= 1.0
        assert r2 > 0.5

    def test_untrained_model_probes_near_zero(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        model = Cam2Model(tiny_model_config(), schema)
        log = logs[1]
        probe = E.disentanglement_probe(model, world, log.features,
                                        log.user_ids, log.item_ids)
        for emb in probe.values():
            for r2 in emb.values():
                assert 0.0 <= r2 <= 1.0


class TestReplayAndSignTest:
    def test_sign_test_exact(self):
        out = E.paired_sign_test([-1.0, -2.0, -0.5, -0.1, -3.0])
        assert out["negative"] == 5 and out["p_value"] == pytest.approx(2 / 32)
        assert E.paired_sign_test([])["p_value"] == 1.0
        mixed = E.paired_sign_test([-1.0, 1.0])
        assert mixed["p_value"] == 1.0

    def test_replay_identical_models_identical_results(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        model = Cam2Model(tiny_model_config(), schema)
        hist = History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            hist.update(log, world)
        ecfg = EvalConfig(replay_users=20, replay_candidates=30, replay_k=5)
        out = E.counterfactual_replay({"a": model, "b": model}, world, hist,
                                      schema, ecfg, day=cfg.n_days - 1, seed=0)
        assert np.array_equal(out["a"]["item_engagements"], out["b"]["item_engagements"])
        assert out["a"]["counts"] == out["b"]["counts"]

    @staticmethod
    def _assert_replay_equals_user_by_user(models, world, hist, schema, ecfg, day):
        got = E.counterfactual_replay(models, world, hist, schema, ecfg, day=day, seed=4)
        want = oracles.counterfactual_replay(models, world, hist, schema, ecfg, day=day, seed=4)
        assert got.keys() == want.keys() == models.keys()
        for name in models:
            for key in ("item_engagements", "item_exposures"):
                assert got[name][key].tobytes() == want[name][key].tobytes()
            for key in ("counts", "total_engagement", "bottom80_exposure_share"):
                assert got[name][key] == want[name][key]

    @pytest.mark.parametrize("ecfg", [
        EvalConfig(replay_users=20, replay_candidates=30, replay_k=5),
        EvalConfig(replay_users=1, replay_candidates=7, replay_k=1),
        EvalConfig()])
    def test_replay_equals_user_by_user_loop(self, tiny_dataset, ecfg):
        cfg, world, schema, logs, _ = tiny_dataset
        hist = History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            hist.update(log, world)
        models = {v: Cam2Model(tiny_model_config(variant=v), schema)
                  for v in ("Baseline", "Proposed")}
        self._assert_replay_equals_user_by_user(models, world, hist, schema, ecfg,
                                                cfg.n_days - 1)

    def test_replay_equals_user_by_user_loop_at_default_config(self):
        cfg = DataConfig(n_days=2, seed=2)
        world, schema = generate_world(cfg), default_schema()
        hist = History.empty(world.n_users, world.n_items)
        hist.update(next(iter(simulate_days(world, schema))), world)
        models = {"Baseline": Cam2Model(ModelConfig(variant="Baseline"), schema)}
        self._assert_replay_equals_user_by_user(models, world, hist, schema, EvalConfig(), 1)


SMALL_EVAL = EvalConfig(replay_users=20, replay_candidates=30, replay_k=5, probe_samples=200)


class TestAblationRun:
    def test_baseline_delta_zero_every_seed(self, tiny_dataset):
        _, world, schema, _, days = tiny_dataset
        cfg = tiny_model_config()
        result = E.ablation_run(cfg, TrainConfig(batch_size=64), SMALL_EVAL, world,
                                days[:2], schema, seeds=range(5), variants=["Baseline"])
        row = result["table"]["Baseline"]
        for seed, cell in row["per_seed"].items():
            assert cell["delta_pct"] == 0.0

    def test_too_few_seeds_rejected(self, tiny_dataset):
        _, world, schema, _, days = tiny_dataset
        with pytest.raises(E.EvalError, match="seeds"):
            E.ablation_run(tiny_model_config(), TrainConfig(), SMALL_EVAL, world,
                           days[:2], schema, seeds=[0, 1])

    def test_repeated_variant_rejected(self, tiny_dataset):
        _, world, schema, _, days = tiny_dataset
        with pytest.raises(E.EvalError, match="variant Proposed is repeated"):
            E.ablation_run(tiny_model_config(), TrainConfig(), SMALL_EVAL, world,
                           days[:2], schema, seeds=range(5), variants=["Proposed", "Proposed"])

    def test_ne_table_pairs_deltas_by_seed(self):
        """A delta is taken against the same seed's Baseline, and is None
        where that seed has no Baseline run; medians and the sign test use
        the paired deltas only."""
        table = E.ne_table({("Baseline", 0): 1.0, ("Proposed", 0): 0.9, ("Proposed", 1): 1.2})
        assert list(table) == ["Baseline", "Proposed"]
        per_seed = table["Proposed"]["per_seed"]
        assert per_seed[0]["delta_pct"] == pytest.approx(-10.0)
        assert per_seed[1]["delta_pct"] is None
        assert table["Proposed"]["median_ne"] == pytest.approx(1.05)
        assert table["Proposed"]["median_delta_pct"] == pytest.approx(-10.0)
        assert table["Proposed"]["sign_test"]["n"] == 1
        assert E.ne_table({("Proposed", 0): 0.9})["Proposed"]["median_delta_pct"] is None
