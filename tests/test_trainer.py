import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_model_config
from confrank import trainer as T
from confrank.config import TrainConfig
from confrank.losses import DegenerateLabelsError
from confrank.model import Cam2Model
from confrank.serialize import CheckpointError

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def fresh_state(tiny_dataset):
    _, _, schema, _, _ = tiny_dataset
    model = Cam2Model(tiny_model_config(), schema)
    return T.TrainState(model, TrainConfig(batch_size=64))


def params_of(state):
    return {p.name: p.value.copy() for p in state.model.parameters()}


class TestTrainDay:
    def test_empty_day_only_advances_counter(self, fresh_state, tiny_dataset):
        _, _, schema, _, _ = tiny_dataset
        before = params_of(fresh_state)
        empty = {"schema_hash": schema.hash, "day": 0,
                 "features": np.zeros((0, schema.arity())),
                 "labels": np.zeros((0, 3), dtype=np.int64), "x": np.zeros(0)}
        losses = T.train_day(fresh_state, empty)
        assert fresh_state.last_day == 0
        assert losses == {}
        for name, val in params_of(fresh_state).items():
            assert np.array_equal(val, before[name])

    def test_descent_on_single_batch(self, fresh_state, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        day = dict(days[0])
        day["features"] = day["features"][:32]
        day["labels"] = day["labels"][:32]
        day["x"] = day["x"][:32]
        from confrank.autodiff import Tape
        model = fresh_state.model
        before, _, _ = model.training_objective(Tape(), day["features"],
                                                day["labels"], day["x"])
        T.train_day(fresh_state, day)
        after, _, _ = model.training_objective(Tape(), day["features"],
                                               day["labels"], day["x"])
        assert float(after.data) < float(before.data)

    def test_day_sequencing_enforced(self, fresh_state, tiny_dataset):
        _, _, _, _, days = tiny_dataset
        with pytest.raises(T.SequencingError):
            T.train_day(fresh_state, days[1])
        T.train_day(fresh_state, days[0])
        with pytest.raises(T.SequencingError):
            T.train_day(fresh_state, days[0])

    def test_bitwise_determinism(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset

        def run():
            model = Cam2Model(tiny_model_config(), schema)
            state = T.TrainState(model, TrainConfig(batch_size=64))
            for d in days[:2]:
                T.train_day(state, d)
            return params_of(state)

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name


class TestRunExperiment:
    def test_two_days_give_one_row(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        _, rows = T.run_experiment(tiny_model_config(), TrainConfig(batch_size=64),
                                   days[:2], schema)
        assert len(rows) == 1
        assert rows[0].day == days[1]["day"]

    def test_aggregated_ne_is_task_mean(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        _, rows = T.run_experiment(tiny_model_config(), TrainConfig(batch_size=64),
                                   days[:3], schema)
        for r in rows:
            assert r.ne_aggregated == pytest.approx(np.mean(r.ne_per_task))

    def test_baseline_rows_lack_causal_losses(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        cfg = tiny_model_config(variant="Baseline")
        _, rows = T.run_experiment(cfg, TrainConfig(batch_size=64), days[:2], schema)
        assert set(rows[0].train_losses) == {"task0", "task1", "task2", "objective"}

    def test_objective_is_weighted_sum_of_term_means(self, tiny_dataset):
        """The record's objective is the day mean of the optimized objective:
        every loss_terms mean, mixture_loss included, times its weight."""
        _, _, schema, _, days = tiny_dataset
        cfg = tiny_model_config(variant="Proposed")
        _, rows = T.run_experiment(cfg, TrainConfig(batch_size=64), days[:2], schema)
        losses = rows[0].train_losses
        weights = {f"task{t}": w for t, w in enumerate(cfg.task_weights)}
        weights.update(conformity_loss=cfg.conformity_weight,
                       relevance_loss=cfg.relevance_weight,
                       mixture_loss=cfg.mixture_weight)
        assert set(losses) == {*weights, "objective"}
        expected = sum(w * losses[name] for name, w in weights.items())
        assert losses["objective"] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_holdout_raises(self, tiny_dataset):
        _, _, schema, _, days = tiny_dataset
        bad = dict(days[1])
        bad["labels"] = np.ones_like(bad["labels"])
        empty = dict(days[1])
        for key in ("features", "labels", "x"):
            empty[key] = empty[key][:0]
        for holdout in (bad, empty):
            with pytest.raises(DegenerateLabelsError):
                T.run_experiment(tiny_model_config(), TrainConfig(batch_size=64),
                                 [days[0], holdout], schema)

    def test_diverged_run_stops_at_its_first_non_finite_ne(self, tiny_dataset, monkeypatch):
        _, _, schema, _, days = tiny_dataset
        nan_day = dict(days[1])
        nan_day["features"] = nan_day["features"].copy()
        nan_day["features"][0, 0] = np.nan
        trained = []
        train_day = T.train_day
        monkeypatch.setattr(T, "train_day",
                            lambda state, day: trained.append(day["day"]) or train_day(state, day))
        with pytest.raises(T.NonFiniteMetricError, match="Proposed seed 3: holdout day 1 NE"):
            T.run_experiment(tiny_model_config(), TrainConfig(batch_size=64),
                             [days[0], nan_day, *days[2:]], schema, audit_first_batch=False)
        assert trained == [0]

    @pytest.mark.parametrize("variant", ["Baseline", "Proposed"])
    def test_audit_uses_first_day_with_events(self, tiny_dataset, monkeypatch, variant):
        """A day 0 without events moves the first-batch audit to day 1; with
        no events on any day there is no audit, only the empty-holdout error."""
        _, _, schema, _, days = tiny_dataset
        empty = [{k: v[:0] if isinstance(v, np.ndarray) else v for k, v in d.items()}
                 for d in days[:2]]
        audited = []
        audit = T.check_decoupling
        monkeypatch.setattr(T, "check_decoupling",
                            lambda model, f, *rest: audited.append(f) or audit(model, f, *rest))
        cfg = tiny_model_config(variant=variant)
        _, rows = T.run_experiment(cfg, TrainConfig(batch_size=64),
                                   [empty[0], days[1], days[2]], schema)
        assert len(rows) == 2
        assert len(audited) == 1 and np.array_equal(audited[0], days[1]["features"][:64])

        audited.clear()
        with pytest.raises(DegenerateLabelsError):
            T.run_experiment(cfg, TrainConfig(batch_size=64), empty, schema)
        assert audited == []


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_dataset, tmp_path):
        _, _, schema, _, days = tiny_dataset
        state, _ = T.run_experiment(tiny_model_config(), TrainConfig(batch_size=64),
                                    days[:3], schema)
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(state, path)
        loaded = T.load_checkpoint(path)
        for p, q in zip(state.model.parameters(), loaded.model.parameters()):
            assert p.name == q.name and np.array_equal(p.value, q.value)
        feats = days[0]["features"][:16]
        assert np.array_equal(state.model.predict(feats), loaded.model.predict(feats))
        assert loaded.last_day == state.last_day

    def test_tampered_byte_detected(self, fresh_state, tmp_path):
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(fresh_state, path)
        blob = path.read_bytes()
        target = b'"last_day": -1'
        assert blob.count(target) == 1
        path.write_bytes(blob.replace(target, b'"last_day": 99'))
        with pytest.raises(CheckpointError, match="checksum"):
            T.load_checkpoint(path)

    def test_wrong_config_refused(self, fresh_state, tmp_path):
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(fresh_state, path)
        with pytest.raises(CheckpointError, match="config"):
            T.load_checkpoint(path, expect_config_hash="0" * 16)

    def test_warm_start_equivalence(self, tiny_dataset, tmp_path):
        _, _, schema, _, days = tiny_dataset
        cfg, tcfg = tiny_model_config(), TrainConfig(batch_size=64)

        straight, _ = T.run_experiment(cfg, tcfg, days, schema)

        state, _ = T.run_experiment(cfg, tcfg, days[:3], schema)
        path = tmp_path / "mid.json"
        T.save_checkpoint(state, path)
        resumed = T.load_checkpoint(path)
        T.resume_experiment(resumed, days[2:])

        for p, q in zip(straight.model.parameters(), resumed.model.parameters()):
            assert np.array_equal(p.value, q.value), p.name
        for name in straight.optimizer.state:
            a = straight.optimizer.state[name]
            b = resumed.optimizer.state[name]
            assert a["t"] == b["t"]
            assert np.array_equal(a["m"], b["m"]) and np.array_equal(a["v"], b["v"])

    @pytest.mark.parametrize("variant", ["Proposed", "JointLoss"])
    def test_committed_checkpoint_loads_and_resaves_byte_identically(self, tiny_dataset,
                                                                     tmp_path, variant):
        """tests/data holds `confrank train` checkpoints of the tiny CLI config
        written by an earlier build. Loading one and saving it again gives the
        same bytes only while every parameter keeps its name, shape and order,
        and the optimizer tracks exactly the trainable ones."""
        path = DATA_DIR / f"checkpoint_{variant}_3.json"
        state = T.load_checkpoint(path)
        assert state.model.config.variant == variant and state.last_day == 2
        again = tmp_path / "again.json"
        T.save_checkpoint(state, again)
        assert again.read_bytes() == path.read_bytes()
        day = tiny_dataset[4][-1]
        probs = state.model.predict(day["features"], day["schema_hash"])
        assert probs.shape == day["labels"].shape
        assert np.all((probs > 0.0) & (probs < 1.0))
