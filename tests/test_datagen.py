import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import tiny_data_config
from confrank import datagen as D
from confrank.config import DataConfig
from confrank.schema import DENSE, STATISTICAL, FeatureSpec, default_schema, validate_schema
from confrank.serialize import write_day_file


def small_world(**over):
    cfg = tiny_data_config(**over)
    return cfg, D.generate_world(cfg)


class TestGenerateWorld:
    def test_zipf_zero_is_uniform(self):
        _, world = small_world(zipf_s=0.0)
        assert np.allclose(world.popularity, world.popularity[0])

    def test_same_seed_identical(self):
        cfg = tiny_data_config()
        a, b = D.generate_world(cfg), D.generate_world(cfg)
        for name in ("conformity", "interests", "popularity", "topics",
                     "quality", "birth_day", "content_type"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zipf_top_percent_mass(self):
        # oracle: exact partial sums of r^-1.2 over ranks
        _, world = small_world(n_items=1000, zipf_s=1.2, new_items_per_day=10)
        ranks = np.arange(1, 1001, dtype=np.float64)
        mass = ranks**-1.2
        expected_share = mass[:10].sum() / mass.sum()
        assert expected_share > 0.15
        top10 = np.sort(world.popularity)[::-1][:10]
        assert top10.sum() / world.popularity.sum() == pytest.approx(expected_share)

    def test_invalid_counts(self):
        from confrank.config import ConfigError
        with pytest.raises(ConfigError):
            tiny_data_config(n_users=0)
        with pytest.raises(ConfigError):
            tiny_data_config(k_topics=1)
        with pytest.raises(ConfigError, match="k_topics"):
            tiny_data_config(k_topics=2)  # an item may draw 3 distinct topics

    def test_casual_segment_only_scales_activity(self):
        # [DERIVED] the segment is drawn after every other field, so a world
        # with casual_fraction=0 is the element-wise reference: each user's
        # activity is either unchanged or scaled by exactly the casual factor
        _, base = small_world(n_users=4000, casual_fraction=0.0)
        _, world = small_world(n_users=4000, casual_fraction=0.25,
                               casual_activity_scale=0.01)
        scaled = np.isclose(world.activity, base.activity * 0.01)
        kept = np.isclose(world.activity, base.activity)
        assert np.all(scaled | kept)
        assert 0.2 < scaled.mean() < 0.3  # binomial(4000, 0.25) 3-sigma band
        for field in ("conformity", "popularity", "birth_day"):
            assert np.array_equal(getattr(base, field), getattr(world, field))

    def test_every_item_has_a_topic(self):
        _, world = small_world()
        assert (world.topics.sum(axis=1) >= 1).all()


class TestMatchesItemByItemDraws:
    """The generator's whole-array topic draw and event order give, bit for
    bit, the per-item rng.choice loop and the np.lexsort day loop in
    oracles.py, and leave the generator in the same state. If a numpy
    release changes the draws Generator.choice makes, this fails, so a
    dataset never changes silently."""

    @pytest.mark.parametrize("k", [3, 4, 8, 13, 20011])
    @pytest.mark.parametrize("n_items", [1, 5, 60])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_topic_rows_and_generator_state(self, seed, n_items, k):
        ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = D._draw_topics(ours, n_items, k)
        assert got.tobytes() == oracles.item_topics(loop, n_items, k).tobytes()
        assert ours.bit_generator.state == loop.bit_generator.state
        assert ours.integers(0, 2**62, size=3).tolist() == loop.integers(0, 2**62, size=3).tolist()

    WORLDS = [dict(), dict(k_topics=3, seed=3), dict(k_topics=13, seed=11),
              dict(n_items=1, new_items_per_day=0), "default"]

    @staticmethod
    def _config(over):
        return DataConfig(n_days=3) if over == "default" else tiny_data_config(**over)

    @pytest.mark.parametrize("over", WORLDS)
    def test_world_equals_item_by_item_world(self, monkeypatch, over):
        cfg = self._config(over)
        got = D.generate_world(cfg)
        monkeypatch.setattr(D, "_draw_topics", oracles.item_topics)
        want = D.generate_world(cfg)
        # every array drawn after the topics matches too: the stream is in step
        for f in dataclasses.fields(D.World):
            if f.name != "cfg":
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    @pytest.mark.parametrize("over", WORLDS)
    def test_days_equal_lexsorted_days(self, over):
        cfg = self._config(over)
        world = D.generate_world(cfg)
        schema = default_schema(cfg.k_topics, cfg.n_age_buckets, cfg.n_content_types)
        days = zip(D.simulate_days(world, schema), oracles.simulate_days(world, schema),
                   strict=True)
        for got, want in days:
            assert got.day == want.day
            for f in dataclasses.fields(D.DayLog):
                if f.name != "day":
                    assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    def test_topic_shares_match_per_event_normalisation(self, tiny_world):
        _, world = tiny_world
        rng = np.random.default_rng(0)
        users = rng.integers(0, world.n_users, 500)
        items = rng.integers(0, world.n_items, 500)
        got = world.interest_alignment(users, items)
        assert got.tobytes() == oracles.interest_alignment(world, users, items).tobytes()


class TestEngagementProbability:
    def test_zero_conformity_decorrelates_popularity(self):
        cfg, world = small_world(n_items=2000, new_items_per_day=10)
        world.conformity[:] = 0.0
        rng = np.random.default_rng(0)
        users = rng.integers(0, world.n_users, size=100_000)
        items = rng.integers(0, world.n_items, size=100_000)
        p = D.engagement_probability(world, users, items, 0)
        r = np.corrcoef(p, world.z_log_pop[items])[0, 1]
        assert abs(r) < 0.02

    def test_both_terms_vanish(self):
        cfg, world = small_world()
        world.conformity[0] = 0.0
        world.interests[0] = 0.0
        world.interests[0, 0] = 1.0
        item = int(np.flatnonzero(world.topics[:, 0] == 0)[0])
        p = D.engagement_probability(world, [0], [item], 1)
        expected = 1.0 / (1.0 + np.exp(-cfg.task_gamma[1]))
        assert p[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_coefficients(self):
        cfg, world = small_world(task_alpha=(0.0,) * 3, task_beta=(0.0,) * 3)
        rng = np.random.default_rng(1)
        users = rng.integers(0, world.n_users, 50)
        items = rng.integers(0, world.n_items, 50)
        p = D.engagement_probability(world, users, items, 2)
        expected = 1.0 / (1.0 + np.exp(-cfg.task_gamma[2]))
        assert np.allclose(p, expected)


class TestSimulateDays:
    def test_zero_activity_gives_empty_logs(self):
        cfg, world = small_world(mean_activity=0.0)
        world.activity[:] = 0.0
        for log in D.simulate_days(world, default_schema(cfg.k_topics)):
            assert log.n_events == 0

    def test_zero_tilt_exposure_is_uniform(self):
        cfg, world = small_world(n_users=1, n_items=200, exposure_tilt=0.0,
                                 new_items_per_day=1, n_days=2)
        world.activity[:] = 100_000.0
        log = next(iter(D.simulate_days(world, default_schema(cfg.k_topics))))
        live = np.flatnonzero(world.birth_day <= 0)
        counts = np.bincount(log.item_ids, minlength=world.n_items)[live]
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_history_is_fold_of_prior_days(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        hist = D.History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            hist.update(log, world)
        # replays of the same seed reproduce the folded state day by day
        hist2 = D.History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            hist2.update(log, world)
        assert np.array_equal(hist.item_impressions, hist2.item_impressions)
        total_imps = sum(log.n_events for log in logs[:-1])
        assert hist.item_impressions.sum() == total_imps
        assert hist.user_impressions.sum() == total_imps
        assert hist.item_clicks.sum() == sum(log.labels[:, 0].sum() for log in logs[:-1])

    def test_events_sorted_by_user_item(self, tiny_dataset):
        _, _, _, logs, _ = tiny_dataset
        for log in logs:
            keys = np.lexsort((log.item_ids, log.user_ids))
            assert np.array_equal(keys, np.arange(log.n_events))

    def test_determinism_byte_level(self, tmp_path):
        cfg = tiny_data_config()
        schema = default_schema(cfg.k_topics, cfg.n_age_buckets, cfg.n_content_types)
        paths = []
        for run in range(2):
            world = D.generate_world(cfg)
            log = next(iter(D.simulate_days(world, schema)))
            path = tmp_path / f"day_{run}.json"
            write_day_file(path, log, schema.hash)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


def _unstarted_then_closed(days):
    days.close()


def _first_day_then_dropped(days):
    next(iter(days))  # the caller's reference is dropped with the generator


def _islice_then_dropped(days):
    list(itertools.islice(days, 2))


def _one_day_then_closed(days):
    next(days)
    days.close()


def _every_day(days):
    list(days)


class TestDrawThread:
    """simulate_days draws day d+1 on one worker thread while it derives day
    d; however the caller stops, the worker is gone when it has stopped."""

    @pytest.mark.parametrize("stop", [_unstarted_then_closed, _first_day_then_dropped,
                                      _islice_then_dropped, _one_day_then_closed, _every_day])
    def test_stopping_leaves_no_thread(self, tiny_world, stop):
        cfg, world = tiny_world
        before = threading.active_count()
        stop(D.simulate_days(world, default_schema(cfg.k_topics)))
        assert threading.active_count() == before

    def test_failing_draw_reaches_the_consumer(self, tiny_world, monkeypatch):
        cfg, world = tiny_world
        error = RuntimeError("draw failed")
        real = D._draw_day

        def draw(world, rng, day):
            if day == 2:
                raise error
            return real(world, rng, day)

        monkeypatch.setattr(D, "_draw_day", draw)
        before = threading.active_count()
        seen = []
        with pytest.raises(RuntimeError) as raised:
            for log in D.simulate_days(world, default_schema(cfg.k_topics)):
                seen.append(log.day)
        assert raised.value is error
        assert seen == [0, 1]
        assert threading.active_count() == before

    def test_one_worker_draws_every_day_in_order(self, tiny_world, monkeypatch):
        cfg, world = tiny_world
        calls = []
        real = D._draw_day

        def draw(world, rng, day):
            calls.append((threading.get_ident(), day))
            return real(world, rng, day)

        monkeypatch.setattr(D, "_draw_day", draw)
        list(D.simulate_days(world, default_schema(cfg.k_topics)))
        threads = {ident for ident, _ in calls}
        assert [day for _, day in calls] == list(range(cfg.n_days))
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_concurrent_generators_give_the_same_days(self, tiny_world, tiny_dataset):
        """Three callers, each with its own generator over one shared world,
        with thread switches forced often: every day is the lone run's."""
        cfg, world = tiny_world
        schema, want = tiny_dataset[2], tiny_dataset[3]
        results = [None] * 3

        def run(i):
            results[i] = list(D.simulate_days(world, schema))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got in results:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                for f in dataclasses.fields(D.DayLog):
                    assert np.asarray(getattr(a, f.name)).tobytes() == \
                        np.asarray(getattr(b, f.name)).tobytes(), f.name


class TestDeriveFeatures:
    def test_unseen_item_ctr_is_half(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        hist = D.History.empty(world.n_users, world.n_items)
        # raw (pre-zscore) value is checked directly
        imps = hist.item_impressions[[0]]
        ctr = (hist.item_clicks[[0]] + 1.0) / (imps + 2.0)
        assert ctr[0] == 0.5

    def test_day_permutation_invariance(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        hist = D.History.empty(world.n_users, world.n_items)
        hist.update(logs[0], world)
        log = logs[1]
        rng = np.random.default_rng(5)
        perm = rng.permutation(log.n_events)
        feats = D.derive_features(world, hist, log.user_ids, log.item_ids, schema)
        feats_perm = D.derive_features(world, hist, log.user_ids[perm],
                                       log.item_ids[perm], schema)
        assert np.allclose(feats_perm, feats[perm], atol=1e-12)

    def test_statistical_columns_zscored(self, tiny_dataset):
        _, _, schema, logs, _ = tiny_dataset
        log = logs[2]
        for col in range(5):  # the statistical engagement block
            assert abs(log.features[:, col].mean()) < 1e-9

    def test_topic_flags_stay_binary(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        start = 5 + 1 + cfg.k_topics
        flags = logs[1].features[:, start : start + cfg.k_topics]
        assert set(np.unique(flags)) <= {0.0, 1.0}
        assert np.array_equal(flags, world.topics[logs[1].item_ids])


def _history_through(world, logs, day):
    hist = D.History.empty(world.n_users, world.n_items)
    for log in logs[:day]:
        hist.update(log, world)
    return hist


class TestFeatureBuffer:
    """derive_features writes one buffer through the schema's column slices;
    the rows must equal, byte for byte, the column-stacked reference rows."""

    @pytest.mark.parametrize("n", [0, 1, 3, 100, 101])
    def test_equals_column_stacked_rows(self, tiny_dataset, n):
        _, world, schema, logs, _ = tiny_dataset
        hist = _history_through(world, logs, 2)
        rng = np.random.default_rng(n)
        users = rng.integers(world.n_users, size=n)
        items = rng.integers(world.n_items, size=n)
        got = D.derive_features(world, hist, users, items, schema)
        want = oracles.derive_features(world, hist, users, items, schema)
        assert got.shape == want.shape == (n, schema.arity())
        assert got.tobytes() == want.tobytes()

    def test_equals_column_stacked_rows_on_a_default_day(self):
        cfg = DataConfig(n_days=2, seed=5)
        world = D.generate_world(cfg)
        schema = default_schema()
        logs = list(D.simulate_days(world, schema))
        hist = _history_through(world, logs, 1)
        want = oracles.derive_features(world, hist, logs[1].user_ids, logs[1].item_ids, schema)
        assert logs[1].n_events > 10_000
        assert logs[1].features.tobytes() == want.tobytes()

    def test_reordered_schema_moves_the_columns(self, tiny_dataset):
        """The schema, not derive_features, decides where each feature goes."""
        _, world, schema, logs, _ = tiny_dataset
        hist = _history_through(world, logs, 2)
        users, items = logs[2].user_ids, logs[2].item_ids
        reordered = validate_schema(schema.specs[::-1])
        got = D.derive_features(world, hist, users, items, reordered)
        want = D.derive_features(world, hist, users, items, schema)
        for s in schema.specs:
            assert np.array_equal(got[:, reordered.slices[s.name]], want[:, schema.slices[s.name]])

    @pytest.mark.parametrize("case", ["extra", "missing", "renamed", "wrong_width", "vocab",
                                      "bucket"])
    def test_refuses_a_schema_it_cannot_fill(self, tiny_dataset, case):
        """A schema is refused unless its features, in any order, are the
        generator's as declared: names, widths, vocab sizes and buckets."""
        cfg, world, schema, logs, _ = tiny_dataset
        specs = list(schema.specs)
        if case == "vocab":
            specs = default_schema(cfg.k_topics, n_age_buckets=3).specs
        elif case == "bucket":
            specs = [dataclasses.replace(s, bucket=STATISTICAL) if s.name == "item_quality"
                     else s for s in specs]
        elif case == "extra":
            specs.append(FeatureSpec("item_age", DENSE, STATISTICAL))
        elif case == "missing":
            specs = [s for s in specs if s.name != "item_quality"]
        elif case == "renamed":
            specs[0] = FeatureSpec("item_impressions", DENSE, STATISTICAL)
        else:
            specs = [FeatureSpec(s.name, s.encoding, s.bucket, cfg.k_topics + 1)
                     if s.name == "item_topic_flags" else s for s in specs]
        bad = validate_schema(specs)
        assert cfg.n_age_buckets != 3
        named = {"vocab": "user_age_bucket", "bucket": "item_quality"}.get(case, "")
        for n in (0, 5):
            with pytest.raises(D.DataGenError, match=f"schema does not match.*{named}"):
                D.derive_features(world, D.History.empty(world.n_users, world.n_items),
                                  np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), bad)


class TestZscoreColumns:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 101, 20000])
    def test_equals_mean_and_std_form(self, n):
        rng = np.random.default_rng(n)
        mat = np.column_stack([
            rng.normal(size=n),
            np.full(n, 3.25),  # constant: sd 0, divided by 1
            1e9 + rng.normal(size=n),  # large offset
            -1e12 + 1e3 * rng.random(n),
            rng.integers(0, 3, size=n).astype(np.float64),
        ])
        got = D._zscore_columns(mat)
        assert got.tobytes() == oracles.zscore_columns(mat).tobytes()


class TestDeriveX:
    def make_history(self, engagements, top_engagements):
        hist = D.History.empty(1, 10)
        hist.user_engagements[0] = engagements
        hist.user_top_decile_engagements[0] = top_engagements
        return hist

    def test_all_top_decile(self):
        assert D.derive_x(self.make_history(7, 7))[0] == 1.0

    def test_no_history_default(self):
        assert D.derive_x(self.make_history(0, 0))[0] == 0.5

    def test_ratio(self):
        assert D.derive_x(self.make_history(12, 3))[0] == 0.25


class TestGroundTruthSeparability:
    def test_conformity_component_correlation(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        log = logs[1]
        target = world.conformity[log.user_ids] * world.z_log_pop[log.item_ids]
        r = np.corrcoef(log.conformity_component, target)[0, 1]
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_components_reconstruct_probability(self, tiny_dataset):
        cfg, world, schema, logs, _ = tiny_dataset
        log = logs[1]
        p = D.engagement_probability(world, log.user_ids, log.item_ids, 0)
        logit = log.conformity_component + log.relevance_component + cfg.task_gamma[0]
        recon = np.clip(1.0 / (1.0 + np.exp(-logit)), 1e-7, 1 - 1e-7)
        assert np.allclose(recon, p, atol=1e-12)
