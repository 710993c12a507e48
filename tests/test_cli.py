import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import operator
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_model_config
from containers import read_v3, resign_manifest, rewrite_as_version, rewrite_payload, write_v3
from hypothesis import example, given, settings, strategies as st

from confrank import cli
from confrank import evalrank as E
from confrank import serialize as S
from confrank import trainer as T
from confrank import config as C
from confrank.config import VARIANTS, run_config_from_dict
from confrank.datagen import History, generate_world, simulate_days
from confrank.schema import default_schema, read_schema_file, schema_from_rows

TINY_CONFIG = {
    "data": {"n_users": 60, "n_items": 120, "k_topics": 4, "n_days": 4,
             "new_items_per_day": 5, "task_gamma": [-1.5, -2.0, -2.5], "seed": 7},
    "model": {"variant": "Proposed", "shared_widths": [16, 8], "head_widths": [8, 1],
              "tower_width": 8, "tower_blocks": 1, "embed_dim": 4,
              "causal_embed_dim": 4, "seed": 3},
    "train": {"batch_size": 64},
    "seeds": [0, 1, 2, 3, 4],
}


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_candidates_file(path, item_ids, features, schema_hash):
    """A `rank` candidate file: the schema-hash header, then one
    item_id<TAB>features... row per candidate."""
    with open(path, "w") as fh:
        fh.write(f"# schema_hash={schema_hash}\tn_features={features.shape[1]}\n")
        for item, row in zip(item_ids, features):
            fh.write(str(int(item)) + "\t" + "\t".join(f"{v:.17g}" for v in row) + "\n")


@pytest.fixture(scope="session")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(data_dir)]) == 0
    return root, str(cfg_path), str(data_dir)


@pytest.fixture(scope="session")
def trained_run(cli_env):
    """One `confrank train` of the tiny config (Proposed, seed 3): (out dir, stdout)."""
    root, cfg_path, data_dir = cli_env
    out = root / "run_proposed"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out)]) == 0
    return out, stdout.getvalue()


class TestGenData:
    def test_expected_files(self, cli_env):
        _, _, data_dir = cli_env
        names = sorted(os.listdir(data_dir))
        days = [n for n in names if n.startswith("day_")]
        assert days == [S.day_filename(d) for d in range(4)]
        for required in ("schema.tsv", "world.json", "manifest.json"):
            assert required in names

    def test_same_seed_reproduces_bytes(self, cli_env, tmp_path):
        _, cfg_path, data_dir = cli_env
        other = tmp_path / "data2"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(other)]) == 0
        for name in sorted(os.listdir(data_dir)):
            assert _sha(os.path.join(data_dir, name)) == _sha(other / name), name

    def test_refuses_nonempty_dir_without_force(self, cli_env, capsys):
        _, cfg_path, data_dir = cli_env
        assert cli.main(["gen-data", "--config", cfg_path, "--out", data_dir]) == 2
        assert "--force" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"n_userz": 5}}))
        assert cli.main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert "n_userz" in capsys.readouterr().err

    def test_too_few_topics_refused_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "k2.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "data": {**TINY_CONFIG["data"], "k_topics": 2}}))
        out = tmp_path / "o"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert "k_topics" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_train_writes_checkpoint_and_metrics(self, trained_run):
        out, stdout = trained_run
        assert "holdout_NE" in stdout and "L_C=" in stdout
        assert (out / "checkpoint_Proposed_3.json").exists()
        metrics = json.loads((out / "metrics_Proposed_3.json").read_text())
        assert metrics["variant"] == "Proposed"
        assert len(metrics["rows"]) == 3  # prequential: D-1 (train, eval-next) steps
        assert set(metrics["ecosystem"]) == {"age_table", "tail", "cohort"}
        # train_total, L_C and L_R are read from the row's loss record
        for row, line in zip(metrics["rows"], stdout.splitlines()):
            losses = row["train_losses"]
            assert set(losses) == {"task0", "task1", "task2", "conformity_loss",
                                   "relevance_loss", "mixture_loss", "objective"}
            assert (f"train_total={losses['objective']:.5f} "
                    f"L_C={losses['conformity_loss']:.5f} "
                    f"L_R={losses['relevance_loss']:.5f}") in line

    def test_variant_and_seed_flags(self, cli_env, capsys):
        root, cfg_path, data_dir = cli_env
        out = root / "run_baseline"
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out), "--variant", "Baseline",
                         "--seed", "11"]) == 0
        assert "L_C=" not in capsys.readouterr().out
        assert (out / "checkpoint_Baseline_11.json").exists()

    def test_unknown_variant_is_usage_error(self, cli_env, capsys):
        _, cfg_path, data_dir = cli_env
        code = cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", "/tmp/unused_cli_out", "--variant", "Nope"])
        assert code == 1
        err = capsys.readouterr().err
        for v in VARIANTS:
            assert v in err

    def test_resume_refuses_variant_and_seed(self, cli_env, trained_run, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        ckpt = str(trained_run[0] / "checkpoint_Proposed_3.json")
        for flags in (["--variant", "Baseline"], ["--seed", "11"]):
            out = tmp_path / flags[0].strip("-")
            assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                             "--out", str(out), "--resume", ckpt, *flags]) == 1
            assert "--resume" in capsys.readouterr().err
            assert not out.exists()

    def test_tampered_manifest_refused(self, cli_env, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        import shutil
        bad = tmp_path / "tampered"
        shutil.copytree(data_dir, bad)
        path = bad / S.day_filename(1)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert "refused" in capsys.readouterr().err

    def test_text_day_file_refused(self, cli_env, tmp_path, capsys):
        """A day file in the old tab-separated text format, listed in a manifest
        that matches it, is refused as a dataset, naming the file."""
        _, cfg_path, data_dir = cli_env
        import shutil
        old = tmp_path / "text_days"
        shutil.copytree(data_dir, old)
        day = S.read_day_file(os.path.join(data_dir, S.day_filename(1)))
        lines = [f"# schema_hash={day['schema_hash']}\tn_features={day['features'].shape[1]}"
                 f"\tn_tasks={day['labels'].shape[1]}"]
        for i in range(day["x"].shape[0]):
            row = [day["day"], day["user_ids"][i], day["item_ids"][i], *day["features"][i],
                   day["x"][i], *day["labels"][i], day["conformity_component"][i],
                   day["relevance_component"][i]]
            lines.append("\t".join(f"{v:.17g}" for v in row))
        name = S.day_filename(1)
        (old / name).write_text("\n".join(lines) + "\n")
        resign_manifest(old)
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(old),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "dataset refused" in err and name in err

    def test_v1_day_file_refused(self, cli_env, tmp_path, capsys):
        """A version-1 day file, listed in a manifest that matches it, is
        refused as a dataset, naming the version."""
        self._old_day_file_refused(cli_env, tmp_path, capsys, version=1)

    def test_v2_day_file_refused(self, cli_env, tmp_path, capsys):
        """The same for a version-2 day file (base64 arrays inside JSON)."""
        self._old_day_file_refused(cli_env, tmp_path, capsys, version=2)

    @staticmethod
    def _old_day_file_refused(cli_env, tmp_path, capsys, version):
        _, cfg_path, data_dir = cli_env
        import shutil
        old = tmp_path / f"v{version}_days"
        shutil.copytree(data_dir, old)
        rewrite_as_version(old / S.day_filename(1), version)
        resign_manifest(old)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(old),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dataset refused" in err and f"version {version} container" in err
        assert not out.exists()

    def test_resume_refuses_other_config(self, cli_env, trained_run, tmp_path, capsys):
        _, _, data_dir = cli_env
        other = tmp_path / "lr.json"
        other.write_text(json.dumps({**TINY_CONFIG, "train": {"batch_size": 64, "lr": 0.5}}))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(other), "--dataset", data_dir,
                         "--out", str(out), "--resume",
                         str(trained_run[0] / "checkpoint_Proposed_3.json")]) == 2
        assert "trained under config" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_nothing_left_to_train_refused(self, cli_env, trained_run, tmp_path,
                                                       capsys):
        """A checkpoint that trained every day before the holdout day exits 2
        naming its last day, and writes nothing."""
        _, cfg_path, data_dir = cli_env
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out), "--resume",
                         str(trained_run[0] / "checkpoint_Proposed_3.json")]) == 2
        assert "trained through day 2" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_matches_straight_run(self, cli_env, trained_run, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        short = _first_days(data_dir, tmp_path / "data_short", 2)
        part = tmp_path / "part"
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(short),
                         "--out", str(part)]) == 0
        resumed = tmp_path / "resumed"
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(resumed), "--resume",
                         str(part / "checkpoint_Proposed_3.json")]) == 0
        capsys.readouterr()

        straight = trained_run[0] / "checkpoint_Proposed_3.json"
        assert straight.read_bytes() == (resumed / "checkpoint_Proposed_3.json").read_bytes()

    def test_reads_world_once(self, cli_env, tmp_path, monkeypatch, capsys):
        """One dataset load: train reads and checks world.json once."""
        _, cfg_path, data_dir = cli_env
        calls = []
        read = S.read_world_file
        monkeypatch.setattr(S, "read_world_file", lambda path: calls.append(path) or read(path))
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(tmp_path / "o")]) == 0
        assert calls == [os.path.join(data_dir, "world.json")]

    def test_ecosystem_summary_covers_the_loaded_days(self, cli_env, tmp_path, capsys):
        """On a 2-day view of the 4-day dataset the cohort window is day 0 and
        each cohort's engagement is its users' day-1 anchor labels; days the
        view does not load count for nothing."""
        _, cfg_path, data_dir = cli_env
        short = _first_days(data_dir, tmp_path / "data_short", 2)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(short),
                         "--out", str(out)]) == 0
        cohort = json.loads((out / "metrics_Proposed_3.json").read_text())["ecosystem"]["cohort"]
        day0, day1 = (S.read_day_file(os.path.join(data_dir, S.day_filename(d))) for d in (0, 1))
        n_users = TINY_CONFIG["data"]["n_users"]
        active = np.isin(np.arange(n_users), day0["user_ids"])
        post = np.bincount(day1["user_ids"], weights=day1["labels"][:, 0], minlength=n_users)
        assert cohort["window_days"] == 1
        for name, mask in (("casual", active), ("non_casual", ~active)):
            assert cohort[name]["users"] == mask.sum()
            assert cohort[name]["mean_engagement"] == pytest.approx(post[mask].mean(), abs=1e-12)
            assert cohort[name]["mean_active_days"] == (1.0 if name == "casual" else 0.0)


def _first_days(data_dir, dest, n_days: int):
    """A view of the dataset in data_dir holding only its first n_days day
    files, with schema.tsv, world.json and a manifest of those files."""
    import shutil
    dest.mkdir()
    keep = [*map(S.day_filename, range(n_days)), "schema.tsv", "world.json"]
    for name in keep:
        shutil.copy(os.path.join(data_dir, name), dest / name)
    manifest = S.load_manifest(data_dir)
    S.write_manifest(str(dest), manifest["config_hash"], manifest["schema_hash"], keep)
    return dest


# Each of these exits 2 before the output directory is made.
MALFORMED_RUNS = {
    "negative_mixture_weight": {"model": {"mixture_weight": -1}},
    "negative_batch_size": {"train": {"batch_size": -5}},
    "no_shared_layers": {"model": {"shared_widths": []}},
    "zero_tower_width": {"model": {"tower_width": 0}},
    "zero_embed_dim": {"model": {"embed_dim": 0}},
    "negative_causal_embed_dim": {"model": {"causal_embed_dim": -1}},
    "more_task_weights_than_tasks": {"model": {"task_weights": [1, 1, 1, 1]}},
    "fewer_task_weights_than_tasks": {"model": {"task_weights": [1, 1]}},
    # a value whose type differs from its field's default, or outside Adam's range
    "float_batch_size": {"train": {"batch_size": 1.5}},
    "scalar_shared_widths": {"model": {"shared_widths": 16}},
    "negative_lr": {"train": {"lr": -1}},
    "zero_eps": {"train": {"eps": 0}},
    "beta_above_one": {"train": {"betas": [1.5, 0.999]}},
    # a float that is not finite: each trained with exit 0 or exited 3 after
    # --out was made before config._check_type refused it
    "nan_mixture_weight": {"model": {"mixture_weight": float("nan")}},
    "infinite_eps": {"train": {"eps": float("inf")}},
    "nan_task_weight": {"model": {"task_weights": [1.0, float("nan"), 1.0]}},
    "infinite_task_weight": {"model": {"task_weights": [1.0, 1.0, float("inf")]}},
    "nan_conformity_weight": {"model": {"conformity_weight": float("nan")}},
    "infinite_relevance_weight": {"model": {"relevance_weight": float("inf")}},
    "infinite_lr": {"train": {"lr": float("inf")}},
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", list(MALFORMED_RUNS))
def test_malformed_run_refused_before_out(cli_env, tmp_path, capsys, command, case):
    _, _, data_dir = cli_env
    cfg = dict(TINY_CONFIG)
    for section, over in MALFORMED_RUNS[case].items():
        cfg[section] = {**TINY_CONFIG[section], **over}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--dataset", data_dir,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# Each data-config edit, with the field its refusal names: gen-data exits 2
# naming the config file before --out is made. Before DataConfig checked
# these ranges, the first three exited 3, the NaN task_alpha wrote a dataset
# with no positive label, and the rest exited 2 only after --out was made.
MALFORMED_DATA = {
    "no_tasks": ({"n_tasks": 0, "task_alpha": [], "task_beta": [], "task_gamma": []},
                 "n_tasks"),
    "one_beta_value": ({"conformity_beta": [1.0]}, "conformity_beta"),
    "three_beta_values": ({"conformity_beta": [1.0, 2.0, 3.0]}, "conformity_beta"),
    "zero_beta_value": ({"conformity_beta": [0.0, 5.0]}, "conformity_beta"),
    "one_age_bucket": ({"n_age_buckets": 1}, "n_age_buckets"),
    "one_content_type": ({"n_content_types": 1}, "n_content_types"),
    "negative_activity": ({"mean_activity": -1.0}, "mean_activity"),
    "negative_new_items": ({"new_items_per_day": -1}, "new_items_per_day"),
    "catalog_too_small": ({"new_items_per_day": 40}, "new_items_per_day"),
    "nan_task_alpha": ({"task_alpha": [float("nan")] * 3}, "task_alpha"),
    "infinite_zipf_s": ({"zipf_s": float("inf")}, "zipf_s"),
}


@pytest.mark.parametrize("case", list(MALFORMED_DATA))
def test_malformed_data_config_refused_before_out(tmp_path, capsys, case):
    over, field = MALFORMED_DATA[case]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "data": {**TINY_CONFIG["data"], **over}}))
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad config file {cfg_path}" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
@pytest.mark.parametrize("where", ["out", "parent"])
def test_out_that_is_not_a_directory_refused(cli_env, tmp_path, capsys, command, where):
    """An --out that is a file, or lies under one, exits 2 naming it before
    anything is written."""
    _, cfg_path, data_dir = cli_env
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    out = blocker if where == "out" else blocker / "out"
    argv = [command, "--config", cfg_path, "--out", str(out)]
    if command != "gen-data":
        argv += ["--dataset", data_dir]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "runtime error" not in err
    assert os.listdir(tmp_path) == ["file"]
    assert blocker.read_text() == "not a directory"


def test_resume_refuses_dataset_with_other_task_count(cli_env, trained_run, tmp_path,
                                                      capsys):
    """Under --resume the checkpoint's model fixes the task count."""
    two_tasks = {**TINY_CONFIG, "data": {**TINY_CONFIG["data"], "n_tasks": 2,
                                         "task_alpha": [1.6, 1.2], "task_beta": [2.2, 2.6],
                                         "task_gamma": [-1.5, -2.0]}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(two_tasks))
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    out = tmp_path / "out"
    assert cli.main(["train", "--dataset", str(data), "--out", str(out), "--resume",
                     str(trained_run[0] / "checkpoint_Proposed_3.json")]) == 2
    assert "3 tasks" in capsys.readouterr().err
    assert not out.exists()


class TestAblate:
    def test_ablate_outputs(self, cli_env, capsys):
        root, cfg_path, data_dir = cli_env
        out = root / "ablation"
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out), "--variants", "Baseline", "Proposed"]) == 0
        text = (out / "ablation.txt").read_text()
        assert "Baseline" in text and "Proposed" in text and "not a target" in text
        result = json.loads((out / "ablation.json").read_text())
        base = result["table"]["Baseline"]
        assert all(cell["delta_pct"] == 0.0 for cell in base["per_seed"].values())
        assert len(base["per_seed"]) == 5
        seeds = [str(s) for s in TINY_CONFIG["seeds"]]
        assert sorted(result["replay"]) == sorted(result["probes"]) == seeds
        for seed in seeds:
            assert set(result["replay"][seed]) == {"Baseline", "Proposed"}
            assert set(result["probes"][seed]) == {"Proposed"}  # Baseline has no embeddings

        # Proposed's replay is the criterion-7 replay of a same-seed model:
        # history folds every day but the replayed last one.
        cfg = run_config_from_dict(TINY_CONFIG)
        world = generate_world(cfg.data)
        schema = default_schema(cfg.data.k_topics, cfg.data.n_age_buckets,
                                cfg.data.n_content_types)
        logs = list(simulate_days(world, schema))
        days = [T.day_data_from_log(log, schema.hash) for log in logs]
        history = History.empty(world.n_users, world.n_items)
        for log in logs[:-1]:
            history.update(log, world)
        seed = TINY_CONFIG["seeds"][0]
        model_cfg = dataclasses.replace(cfg.model, variant="Proposed", seed=seed)
        state, _ = T.run_experiment(model_cfg, cfg.train, days, schema)
        direct = E.counterfactual_replay({"Proposed": state.model}, world, history, schema,
                                         cfg.eval, day=logs[-1].day, seed=seed)
        assert result["replay"][str(seed)]["Proposed"]["counts"] == {
            str(q): c for q, c in direct["Proposed"]["counts"].items()}

    def test_failed_run_ends_the_sweep(self, cli_env, tmp_path, monkeypatch, capsys):
        """A run that raises stops `ablate` with exit 3 and no ablation.json."""
        _, cfg_path, data_dir = cli_env

        def boom(*args, **kwargs):
            raise RuntimeError("run failed")

        monkeypatch.setattr(T, "run_experiment", boom)
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out)]) == 3
        assert "run failed" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()

    def test_unknown_variant_is_a_usage_error(self, cli_env, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out), "--variants", "Proposed", "Bogus"]) == 1
        assert "invalid choice: 'Bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_seeds(self, cli_env, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(tmp_path / "o"), "--seeds", "0", "1"]) == 2
        assert "5 seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config_file"])
    def test_repeated_seed_refused(self, cli_env, tmp_path, capsys, source):
        """Five copies of one seed are one seed: refused before --out is made."""
        _, cfg_path, data_dir = cli_env
        argv = ["--seeds", "0", "0", "0", "0", "0"]
        if source == "config_file":
            cfg_path = tmp_path / "repeated.json"
            cfg_path.write_text(json.dumps({**TINY_CONFIG, "seeds": [0, 1, 2, 3, 1]}))
            argv = []
        out = tmp_path / "o"
        assert cli.main(["ablate", "--config", str(cfg_path), "--dataset", data_dir,
                         "--out", str(out), "--variants", "Proposed", *argv]) == 2
        repeated = 0 if source == "flag" else 1
        assert f"seed {repeated} is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_variant_refused(self, cli_env, tmp_path, capsys):
        """A variant named twice would train twice per seed and print two
        rows: refused before --out is made."""
        _, cfg_path, data_dir = cli_env
        out = tmp_path / "o"
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(out), "--variants", "Proposed", "Proposed"]) == 2
        assert "variant Proposed is repeated" in capsys.readouterr().err
        assert not out.exists()


NEGATIVE_SEEDS = {  # case -> (argv, config overrides, message)
    "gen-data": (["gen-data", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
    "train": (["train", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
    "train_shuffle_seed": (["train"], {"train": {"shuffle_seed": -1}},
                           "shuffle_seed must be >= 0, got -1"),
    "ablate": (["ablate", "--seeds", "-1", "0", "1", "2", "3"], {},
               "seeds must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", list(NEGATIVE_SEEDS))
def test_negative_seed_refused_before_out(cli_env, tmp_path, capsys, case):
    """A negative data, model, shuffle or ablation seed exits 2 naming it,
    before --out is made (numpy's generators refuse it only later)."""
    _, _, data_dir = cli_env
    (command, *flags), over, message = NEGATIVE_SEEDS[case]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, **over}))
    dataset = [] if command == "gen-data" else ["--dataset", data_dir]
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), *dataset, "--out", str(out),
                     *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime error" not in err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("replay_k", 0), ("replay_candidates", 0), ("replay_users", -1), ("probe_samples", 0)])
def test_eval_config_below_one_refused_before_out(cli_env, tmp_path, capsys, field, value):
    """An eval config value below 1 makes ablate exit 2 naming the config
    file and the field, before --out is made (ablate trained every run and
    then failed, or wrote empty probes)."""
    _, _, data_dir = cli_env
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {field: value}}))
    out = tmp_path / "o"
    assert cli.main(["ablate", "--config", str(cfg_path), "--dataset", data_dir,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad config file {cfg_path}: {field} must be >= 1, got {value}" in err
    assert not out.exists()


class TestRank:
    @pytest.fixture()
    def ckpt(self, trained_run):
        return str(trained_run[0] / "checkpoint_Proposed_3.json")

    @pytest.fixture()
    def candidates(self, cli_env, tmp_path):
        _, _, data_dir = cli_env
        day = S.read_day_file(os.path.join(data_dir, S.day_filename(1)))
        manifest = S.load_manifest(data_dir)
        path = tmp_path / "candidates.tsv"
        n = 20
        write_candidates_file(str(path), np.arange(n), day["features"][:n],
                              manifest["schema_hash"])
        return str(path)

    def test_rank_orders_descending(self, ckpt, candidates, capsys):
        assert cli.main(["rank", "--checkpoint", ckpt,
                         "--candidates", candidates, "-k", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_pool(self, ckpt, candidates, capsys):
        assert cli.main(["rank", "--checkpoint", ckpt,
                         "--candidates", candidates, "-k", "500"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 20

    def test_rank_deterministic(self, ckpt, candidates, capsys):
        cli.main(["rank", "--checkpoint", ckpt, "--candidates", candidates])
        first = capsys.readouterr().out
        cli.main(["rank", "--checkpoint", ckpt, "--candidates", candidates])
        assert capsys.readouterr().out == first

    def test_bad_k(self, ckpt, candidates, capsys):
        assert cli.main(["rank", "--checkpoint", ckpt,
                         "--candidates", candidates, "-k", "0"]) == 1

    @pytest.mark.parametrize("defect,message", [
        ("header_only", "no rows"),
        ("nan_feature", "non-finite"),
        ("fractional_category", "out of vocab"),
        ("fractional_item_id", "item id 3.7 in row 3"),
        ("huge_item_id", "item id 1e+30 in row 3"),
        ("nan_item_id", "item id nan in row 3"),
        ("no_header", "schema_hash"),
        ("no_schema_hash", "schema_hash"),
        ("short_row", "bad.tsv: row 3 has 5 columns but row 0 has"),
        ("non_numeric_cell", "bad.tsv: row 3: could not convert string to float: 'abc'"),
    ])
    def test_malformed_candidates_refused(self, cli_env, ckpt, tmp_path, capsys, defect,
                                          message):
        _, _, data_dir = cli_env
        day = S.read_day_file(os.path.join(data_dir, S.day_filename(1)))
        features = day["features"][:20].copy()
        if defect == "header_only":
            features = features[:0]
        elif defect == "nan_feature":
            features[3, 0] = np.nan
        elif defect == "fractional_category":
            schema = read_schema_file(os.path.join(data_dir, "schema.tsv"))
            features[3, schema.cat_col["content_type"]] = 2.7
        path = tmp_path / "bad.tsv"
        write_candidates_file(str(path), np.arange(features.shape[0]), features,
                              day["schema_hash"])
        bad_id = {"fractional_item_id": "3.7", "huge_item_id": "1e30", "nan_item_id": "nan"}
        if defect in bad_id:
            lines = path.read_text().splitlines(keepends=True)
            lines[4] = bad_id[defect] + lines[4][lines[4].index("\t"):]
            path.write_text("".join(lines))
        if defect in ("short_row", "non_numeric_cell"):
            lines = path.read_text().splitlines(keepends=True)
            cells = lines[4].split("\t")
            cells = cells[:5] if defect == "short_row" else cells[:2] + ["abc"] + cells[3:]
            lines[4] = "\t".join(cells).rstrip("\n") + "\n"
            path.write_text("".join(lines))
        if defect in ("no_header", "no_schema_hash"):
            rows = path.read_text().splitlines(keepends=True)[1:]
            kept = [] if defect == "no_header" else [f"# n_features={features.shape[1]}\n"]
            path.write_text("".join(kept + rows))
        assert cli.main(["rank", "--checkpoint", ckpt, "--candidates", str(path),
                         "-k", "3"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_v1_checkpoint_refused(self, ckpt, candidates, tmp_path, capsys):
        self._old_checkpoint_refused(ckpt, candidates, tmp_path, capsys, version=1)

    def test_v2_checkpoint_refused(self, ckpt, candidates, tmp_path, capsys):
        """A version-2 checkpoint (base64 arrays inside JSON) exits 2 naming
        its version: retrain."""
        self._old_checkpoint_refused(ckpt, candidates, tmp_path, capsys, version=2)

    @staticmethod
    def _old_checkpoint_refused(ckpt, candidates, tmp_path, capsys, version):
        import shutil
        old = tmp_path / f"v{version}.json"
        shutil.copy(ckpt, old)
        rewrite_as_version(old, version)
        assert cli.main(["rank", "--checkpoint", str(old), "--candidates", candidates]) == 2
        captured = capsys.readouterr()
        assert f"version {version} container" in captured.err and not captured.out

    def test_descriptor_past_the_section_refused(self, ckpt, candidates, tmp_path, capsys):
        """A checksum-valid checkpoint whose first array descriptor points past
        the array section exits 2, not 3."""
        doc, _, section = read_v3(ckpt)
        payload = doc["payload"]
        first = next(iter(payload["params"].values()))
        first["offset"] = len(section) // 64 * 64 + 64
        bad = tmp_path / "past.json"
        write_v3(bad, doc["format"], json.dumps(payload).encode(), section)
        assert cli.main(["rank", "--checkpoint", str(bad), "--candidates", candidates]) == 2
        captured = capsys.readouterr()
        assert "outside its section" in captured.err and not captured.out

    def test_missing_checkpoint(self, cli_env, candidates, capsys):
        assert cli.main(["rank", "--checkpoint", "/nonexistent.json",
                         "--candidates", candidates]) == 2

    def test_fault_while_ranking_is_a_runtime_failure(self, ckpt, candidates, monkeypatch,
                                                     capsys):
        """A program fault inside rank exits 3, as in every other command."""
        def boom(*args, **kwargs):
            raise RuntimeError("scoring broke")

        monkeypatch.setattr(E, "rank_topk", boom)
        assert cli.main(["rank", "--checkpoint", ckpt, "--candidates", candidates]) == 3
        assert "runtime error: scoring broke" in capsys.readouterr().err


class TestReport:
    def test_report_tables(self, trained_run, capsys):
        out = trained_run[0]
        assert cli.main(["report", "--metrics", str(out)]) == 0
        stdout = capsys.readouterr().out
        for label in ("[0-1 day)", "[1-3 days)", "[3-10 days)", "[10+ days)"):
            assert label in stdout
        assert "Proposed" in stdout and "casual" in stdout
        assert (out / "report.txt").read_text().strip() in stdout
        summary = json.loads((out / "report.json").read_text())
        assert "Proposed" in summary["ne"]

    def test_failed_rename_keeps_the_old_report(self, trained_run, tmp_path, monkeypatch,
                                                capsys):
        import shutil
        metrics = tmp_path / "m"
        metrics.mkdir()
        for path in trained_run[0].glob("metrics_*.json"):
            shutil.copy(path, metrics)
        old = b'{"old": "report"}'
        (metrics / "report.json").write_bytes(old)
        replace = os.replace

        def refuse_report_json(src, dst):
            if os.fspath(dst).endswith("report.json"):
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_report_json)
        assert cli.main(["report", "--metrics", str(metrics)]) == 3
        assert (metrics / "report.json").read_bytes() == old
        assert (metrics / "report.txt").exists()
        assert not [f for f in os.listdir(metrics) if f.endswith(".tmp")]

    def test_closed_stdout_still_writes_the_report(self, trained_run, tmp_path, monkeypatch,
                                                   capsys):
        """A reader that closes stdout early (every write raises
        BrokenPipeError) fails the print, not the report: report.txt and
        report.json are written first, as a report with stdout open writes
        them."""
        import shutil
        for path in trained_run[0].glob("metrics_*.json"):
            shutil.copy(path, tmp_path)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with monkeypatch.context() as patch:
            patch.setattr("sys.stdout", ClosedPipe())
            assert cli.main(["report", "--metrics", str(tmp_path)]) == 3
        written = {name: (tmp_path / name).read_bytes() for name in ("report.txt", "report.json")}
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 0
        assert "Broken pipe" in capsys.readouterr().err
        for name, data in written.items():
            assert (tmp_path / name).read_bytes() == data

    @pytest.mark.parametrize("defect,message", [
        ("empty_object", "no 'variant' key"),
        ("no_rows", "no rows"),
        ("rows_not_a_list", "no rows"),
        ("row_without_ne", "row 0 has no 'ne_aggregated' key"),
        ("list", "not a JSON object"),
        ("not_json", "is not JSON"),
        ("empty_ecosystem", "no ecosystem['age_table'] key"),
        ("age_bucket_without_rate", "no ecosystem['age_table']['[10+ days)']['rate'] key"),
        ("tail_without_counts", "no ecosystem['tail']['counts'] key"),
        ("cohort_without_window", "no ecosystem['cohort']['window_days'] key"),
        ("casual_without_users", "no ecosystem['cohort']['casual']['users'] key"),
        ("non_casual_without_active_days",
         "no ecosystem['cohort']['non_casual']['mean_active_days'] key"),
        ("string_ne", "row 0 'ne_aggregated' of type str, not int or float"),
        ("null_ne", "row 0 'ne_aggregated' of type NoneType, not int or float"),
        ("list_variant", "unknown variant ['Proposed']"),
        ("list_tail_counts", "ecosystem['tail']['counts'] of type list, not dict"),
        ("string_age_rate",
         "ecosystem['age_table']['[0-1 day)']['rate'] of type str, not int or float or NoneType"),
        ("null_exposure_share",
         "ecosystem['tail']['bottom80_exposure_share'] of type NoneType, not int or float"),
        ("word_tail_count_key", "key ecosystem['tail']['counts']['half'], not a number"),
        ("word_tail_count", "ecosystem['tail']['counts']['0.5'] of type str, not int"),
        ("no_seed", "no 'seed' key"),
        ("string_seed", "'seed' of type str, not int"),
        ("nan_ne", "row 0 'ne_aggregated' is not finite"),
        ("infinite_ne", "row 0 'ne_aggregated' is not finite"),
        ("int_ne_past_float_max", "row 0 'ne_aggregated' is not finite"),
    ])
    def test_malformed_metrics_file_refused(self, trained_run, tmp_path, capsys, defect,
                                            message):
        metrics = json.loads((trained_run[0] / "metrics_Proposed_3.json").read_text())

        drop = object()

        def edited(*keys, value=drop):
            """A copy of metrics whose ecosystem[keys[0]]...[keys[-1]] is
            value, or is gone if no value is given."""
            bad = json.loads(json.dumps(metrics))
            node = bad["ecosystem"]
            for key in keys[:-1]:
                node = node[key]
            if value is drop:
                del node[keys[-1]]
            else:
                node[keys[-1]] = value
            return bad

        def with_ne(ne):
            return {**metrics, "rows": [{**r, "ne_aggregated": ne} for r in metrics["rows"]]}

        bad = {"empty_object": {}, "no_rows": {**metrics, "rows": []},
               "rows_not_a_list": {**metrics, "rows": 5},
               "row_without_ne": {**metrics, "rows": [{}]}, "list": [metrics],
               "empty_ecosystem": {**metrics, "ecosystem": {}},
               "age_bucket_without_rate": edited("age_table", "[10+ days)", "rate"),
               "tail_without_counts": edited("tail", "counts"),
               "cohort_without_window": edited("cohort", "window_days"),
               "casual_without_users": edited("cohort", "casual", "users"),
               "non_casual_without_active_days": edited("cohort", "non_casual",
                                                        "mean_active_days"),
               "string_ne": with_ne("x"), "null_ne": with_ne(None),
               "list_variant": {**metrics, "variant": ["Proposed"]},
               "list_tail_counts": edited("tail", "counts", value=[1, 2]),
               "string_age_rate": edited("age_table", "[0-1 day)", "rate", value="x"),
               "null_exposure_share": edited("tail", "bottom80_exposure_share", value=None),
               "word_tail_count_key": edited("tail", "counts", value={"half": 3}),
               "word_tail_count": edited("tail", "counts", value={"0.5": "three"}),
               "no_seed": {k: v for k, v in metrics.items() if k != "seed"},
               "string_seed": {**metrics, "seed": "3"},
               "nan_ne": with_ne(float("nan")), "infinite_ne": with_ne(float("-inf")),
               "int_ne_past_float_max": with_ne(10**400)}
        path = tmp_path / "metrics_Proposed_3.json"
        path.write_text("{" if defect == "not_json" else json.dumps(bad[defect]))
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not list(tmp_path.glob("report.*"))

    def test_unreadable_metrics_file_refused(self, tmp_path, capsys):
        """A metrics_*.json that cannot be read (here a directory) exits 2
        naming it."""
        path = tmp_path / "metrics_x.json"
        path.mkdir()
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read metrics file {path}" in err and "runtime error" not in err
        assert not list(tmp_path.glob("report.*"))

    def test_delta_vs_baseline(self, trained_run, tmp_path, capsys):
        metrics = json.loads((trained_run[0] / "metrics_Proposed_3.json").read_text())
        baseline = {**metrics, "variant": "Baseline",
                    "rows": [{**r, "ne_aggregated": 2 * r["ne_aggregated"]}
                             for r in metrics["rows"]]}
        (tmp_path / "metrics_Proposed_3.json").write_text(json.dumps(metrics))
        (tmp_path / "metrics_Baseline_3.json").write_text(json.dumps(baseline))
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 0
        ne = json.loads((tmp_path / "report.json").read_text())["ne"]
        assert ne["Baseline"]["median_delta_pct"] == 0.0
        assert ne["Proposed"]["median_delta_pct"] == pytest.approx(-50.0, abs=1e-9)

    def test_delta_is_paired_by_seed(self, trained_run, tmp_path, capsys):
        """report's NE table is ablate's: the median of each seed's delta
        against that seed's Baseline (-5 % here), not the delta of the two
        medians (+20 %), with the sign test over those deltas; a seed with
        no Baseline run has no delta."""
        metrics = json.loads((trained_run[0] / "metrics_Proposed_3.json").read_text())
        for variant, nes in (("Baseline", (1.0, 1.0, 2.0)), ("Proposed", (0.9, 1.2, 1.9))):
            for seed, ne in enumerate(nes):
                run = {**metrics, "variant": variant, "seed": seed,
                       "rows": [{**metrics["rows"][0], "ne_aggregated": ne}]}
                (tmp_path / f"metrics_{variant}_{seed}.json").write_text(json.dumps(run))
        (tmp_path / "metrics_Proposed_9.json").write_text(json.dumps(metrics | {"seed": 9}))
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 0
        proposed = json.loads((tmp_path / "report.json").read_text())["ne"]["Proposed"]
        assert proposed["median_delta_pct"] == pytest.approx(-5.0, abs=1e-9)
        assert proposed["sign_test"]["negative"] == 2 and proposed["sign_test"]["n"] == 3
        assert list(proposed["per_seed"]) == ["0", "1", "2", "9"]
        assert proposed["per_seed"]["9"]["delta_pct"] is None

    def test_repeated_variant_and_seed_refused(self, trained_run, tmp_path, capsys):
        """Two metrics files of the same (variant, seed) exit 2 naming both,
        with no report written."""
        text = (trained_run[0] / "metrics_Proposed_3.json").read_text()
        first, second = tmp_path / "metrics_Proposed_3.json", tmp_path / "metrics_Proposed_3b.json"
        first.write_text(text)
        second.write_text(text)
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "variant Proposed seed 3" in err
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.parametrize("defect", ["other_dataset", "unknown_variant"])
    def test_metrics_files_report_cannot_render_refused(self, trained_run, tmp_path, capsys,
                                                        defect):
        """A second metrics file from another dataset, or of a variant report
        does not know, exits 2 naming the files instead of being rendered as
        the first file's dataset or left out of the NE table."""
        metrics = json.loads((trained_run[0] / "metrics_Proposed_3.json").read_text())
        other = ({**metrics, "dataset_config_hash": "0123456789abcdef"}
                 if defect == "other_dataset" else {**metrics, "variant": "Mystery"})
        first, second = tmp_path / "metrics_Proposed_3.json", tmp_path / "metrics_Zeta_3.json"
        first.write_text(json.dumps(metrics))
        second.write_text(json.dumps(other))
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        if defect == "other_dataset":
            assert str(first) in err and "different datasets" in err
        else:
            assert "unknown variant 'Mystery'" in err
        assert str(second) in err
        assert not list(tmp_path.glob("report.*"))

    def test_empty_metrics_dir(self, tmp_path, capsys):
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        assert "no metrics" in capsys.readouterr().err

    def test_missing_metrics_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert cli.main(["report", "--metrics", missing]) == 2
        assert missing in capsys.readouterr().err


class TestRenderNeTable:
    def test_text_is_pinned(self):
        """The NE table of ablation.txt and report.txt, character for
        character; a delta that is None prints --."""
        def row(ne, delta, negative, n, reference):
            return {"per_seed": {}, "median_ne": ne, "median_delta_pct": delta,
                    "sign_test": {"n": n, "negative": negative, "p_value": 1.0},
                    "reference_delta_pct": reference}
        table = {"Baseline": row(0.93125, 0.0, 0, 0, None),
                 "Proposed": row(0.912345678, -2.0345, 4, 5, -0.139),
                 "TaskArch": row(0.95, None, 0, 0, None)}
        assert cli.render_ne_table(table) == (
            "variant       median NE  median delta  sign(neg/n)  reference delta (not a target)\n"
            "----------------------------------------------------------------------------------\n"
            "Baseline        0.93125       +0.000%          0/0                              --\n"
            "Proposed        0.91235       -2.034%          4/5                         -0.139%\n"
            "TaskArch        0.95000            --          0/0                              --")

    def test_render_contains_all_variants_and_reference(self, tiny_dataset):
        _, world, schema, _, days = tiny_dataset
        small_eval = C.EvalConfig(replay_users=20, replay_candidates=30, replay_k=5,
                                  probe_samples=200)
        result = E.ablation_run(tiny_model_config(), C.TrainConfig(batch_size=64),
                                small_eval, world, days[:2], schema, seeds=range(5),
                                variants=["Baseline", "Proposed"])
        text = cli.render_ne_table(result["table"])
        assert "Baseline" in text and "Proposed" in text
        assert "not a target" in text
        assert "-0.139" in text
        # each "neg/n" cell is right-aligned under its header
        lines = text.splitlines()
        end = lines[0].index("sign(neg/n)") + len("sign(neg/n)")
        for line, variant in zip(lines[2:], result["variants"]):
            sign = result["table"][variant]["sign_test"]
            assert line[:end].endswith(f" {sign['negative']}/{sign['n']}"), line


@pytest.mark.parametrize("case", ["rank_list", "rank_no_payload", "train_list_manifest"])
def test_malformed_container_is_validation_error(cli_env, tmp_path, capsys, case):
    """A container whose top level is not an object, or that lacks its
    checksum and payload, exits 2 with a message, not 3."""
    _, cfg_path, data_dir = cli_env
    if case == "train_list_manifest":
        import shutil
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        (bad / S.MANIFEST_NAME).write_text("[]")
        argv = ["train", "--config", cfg_path, "--dataset", str(bad),
                "--out", str(tmp_path / "o")]
        name = S.MANIFEST_NAME
    else:
        name = "ckpt.json"
        (tmp_path / name).write_text(
            "[]" if case == "rank_list"
            else json.dumps({"format": S.CHECKPOINT_FORMAT, "version": 1}))
        argv = ["rank", "--checkpoint", str(tmp_path / name),
                "--candidates", str(tmp_path / "c.tsv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert name in err and "runtime error" not in err


@pytest.mark.parametrize("command", ["rank", "train"])
def test_container_without_payload_keys_is_validation_error(cli_env, tmp_path, capsys,
                                                            command):
    """A checksum-valid checkpoint or manifest whose payload is {} exits 2
    naming the first missing key, not 3."""
    _, cfg_path, data_dir = cli_env
    if command == "train":
        import shutil
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        S.save_container(str(bad / S.MANIFEST_NAME), {}, fmt="confrank-manifest")
        argv = ["train", "--config", cfg_path, "--dataset", str(bad),
                "--out", str(tmp_path / "o")]
    else:
        S.save_container(str(tmp_path / "ckpt.json"), {})
        argv = ["rank", "--checkpoint", str(tmp_path / "ckpt.json"),
                "--candidates", str(tmp_path / "c.tsv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'config_hash'" in err and "runtime error" not in err


def _add_projection_arrays(payload):
    """The tiny Proposed checkpoint as it was while the causal-embedding
    projections were parameters: their four arrays in params and adam."""
    t = next(iter(payload["adam"].values()))["t"]
    for module in ("conformity", "relevance"):
        for wb, shape in (("w", [16, 4]), ("b", [4])):
            desc = {"$array": "<f8", "shape": shape, "offset": 0}
            payload["params"][f"{module}/module/embed/{wb}"] = desc
            payload["adam"][f"{module}/module/embed/{wb}"] = {"m": desc, "v": desc, "t": t}


@pytest.mark.parametrize("command", ["rank", "train"])
@pytest.mark.parametrize("case", ["projection_params", "empty_adam"])
def test_checkpoint_arrays_must_match_the_model(cli_env, trained_run, tmp_path, capsys,
                                                command, case):
    """A checksum-valid checkpoint holding an array the model lacks, or an
    optimizer state missing one, exits 2 naming that array, not 3: a
    Proposed checkpoint from before the projection became a constant, and
    one whose adam is {} (it would resume from a cold optimizer)."""
    _, _, data_dir = cli_env
    ckpt = trained_run[0] / "checkpoint_Proposed_3.json"
    if case == "projection_params":
        edit, name = _add_projection_arrays, "conformity/module/embed/w"
    else:
        edit = lambda payload: payload.update(adam={})  # noqa: E731
        name = next(iter(read_v3(ckpt)[0]["payload"]["params"]))
    bad = tmp_path / "ckpt.json"
    rewrite_payload(ckpt, bad, edit)
    out = tmp_path / "o"
    argv = (["rank", "--checkpoint", str(bad), "--candidates", str(tmp_path / "c.tsv")]
            if command == "rank" else
            ["train", "--dataset", data_dir, "--out", str(out), "--resume", str(bad)])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{name}'" in err and "runtime error" not in err
    assert not out.exists()


def _set_first_schema_width(payload):
    payload["schema"][0][3] = "1"


def _add_schema_field(payload):
    payload["schema"][0].append(0)


def _list_schema_name(payload):
    payload["schema"][0][0] = ["user_age_bucket"]


def _scalar_parameter(payload):
    payload["params"][next(iter(payload["params"]))] = 0.5


def _object_parameter(payload):
    payload["params"][next(iter(payload["params"]))] = {"a": 1}


@pytest.mark.parametrize("command", ["rank", "train"])
@pytest.mark.parametrize("case", ["string_last_day", "last_day_below_minus_one",
                                  "string_schema_width", "six_field_schema_row",
                                  "schema_not_a_list", "list_schema_name",
                                  "params_not_a_mapping", "adam_not_a_mapping",
                                  "scalar_parameter", "object_parameter",
                                  "forged_config_hash", "forged_schema_hash", "no_schema_hash"])
def test_checkpoint_field_types_are_checked(cli_env, trained_run, tmp_path, capsys,
                                            command, case):
    """A checksum-valid checkpoint whose last_day is not an integer >= -1;
    whose schema is not a list, or has a row that is not five fields, or
    whose row gives a name that is not a string or a width that is not an
    integer; whose params or adam is not a mapping; whose parameter is a
    scalar or an object; or whose config_hash or schema_hash is not the hash
    of the configs or schema rows it stores, or is missing, exits 2 naming
    the key, not 3."""
    _, _, data_dir = cli_env
    ckpt = trained_run[0] / "checkpoint_Proposed_3.json"
    first = next(iter(read_v3(ckpt)[0]["payload"]["params"]))
    bad = tmp_path / "ckpt.json"
    edit, key = {
        "string_last_day": (lambda payload: payload.update(last_day="2"), "'last_day'"),
        "last_day_below_minus_one": (lambda payload: payload.update(last_day=-2), "'last_day'"),
        "string_schema_width": (_set_first_schema_width, "width must be an integer"),
        "six_field_schema_row": (_add_schema_field, "'schema': row 0 is not [name,"),
        "schema_not_a_list": (lambda payload: payload.update(schema=7),
                              "'schema': not a list of rows but int"),
        "list_schema_name": (_list_schema_name, "'schema': row 0 is not [name,"),
        "params_not_a_mapping": (lambda payload: payload.update(params=3),
                                 "'params': Proposed model's parameter map is "
                                 "not a mapping but int"),
        "adam_not_a_mapping": (lambda payload: payload.update(adam=5),
                               "optimizer state is not a mapping but int"),
        "scalar_parameter": (_scalar_parameter, "cannot assign shape ()"),
        "object_parameter": (_object_parameter, f"{first} value is not an array of numbers"),
        "forged_config_hash": (lambda payload: payload.update(config_hash="0" * 16),
                               f"checkpoint {bad} 'config_hash': '{'0' * 16}' is not"),
        "forged_schema_hash": (lambda payload: payload.update(schema_hash="0" * 16),
                               f"checkpoint {bad} 'schema_hash': '{'0' * 16}' is not"),
        "no_schema_hash": (lambda payload: payload.pop("schema_hash"),
                           f"{bad} payload has no 'schema_hash'"),
    }[case]
    rewrite_payload(ckpt, bad, edit)
    out = tmp_path / "o"
    argv = (["rank", "--checkpoint", str(bad), "--candidates", str(tmp_path / "c.tsv")]
            if command == "rank" else
            ["train", "--dataset", data_dir, "--out", str(out), "--resume", str(bad)])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "runtime error" not in err
    assert not out.exists()


COMMITTED_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_Proposed_3.json"


def _key_paths(node, path=()):
    """The key path of every value under node, in nested dicts and lists."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _key_paths(value, (*path, key))


def _other_type(value):
    """A value of another JSON type."""
    return {str: 1, dict: [], list: {}}.get(type(value), "x")


def _reshaped(value):
    """An array descriptor with one more (size-1) dim, or a list one item
    shorter; any other value as it is."""
    if isinstance(value, dict) and "shape" in value:
        return {**value, "shape": [*value["shape"], 1]}
    return value[:-1] if isinstance(value, list) else value


CHECKPOINT_EDITS = {"swap_type": _other_type, "reshape": _reshaped,
                    "nan": lambda value: float("nan"), "negative": lambda value: -1}


def _rederive_hashes(payload, edited: tuple):
    """Make config_hash and schema_hash those of what the payload stores,
    where it can be read and the edit was not to the hash itself, so that
    only the edited field can be at fault."""
    with contextlib.suppress(KeyError, ValueError):
        if edited[0] != "config_hash":
            payload["config_hash"] = T.state_config_hash(
                C._from_dict(C.ModelConfig, payload["model_config"]),
                C._from_dict(C.TrainConfig, payload["train_config"]))
    with contextlib.suppress(KeyError, ValueError):
        if edited[0] != "schema_hash":
            payload["schema_hash"] = schema_from_rows(payload["schema"]).hash


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(list(_key_paths(read_v3(COMMITTED_CHECKPOINT)[0]["payload"]))),
       st.sampled_from(["drop", *CHECKPOINT_EDITS]))
@example(path=("schema", 7), edit="drop")  # no item_topic_flags row: exited 3
def test_edited_checkpoint_never_exits_3(cli_env, tmp_path_factory, path, edit):
    """One field of a committed checkpoint dropped, given another JSON type,
    reshaped, made NaN or made negative, then re-signed with its hashes
    re-derived: `rank` ranks (0) or refuses it (2) naming the checkpoint
    file, and never fails (3)."""
    _, _, data_dir = cli_env
    root = tmp_path_factory.getbasetemp()
    candidates = root / "edited_checkpoint_candidates.tsv"
    if not candidates.exists():
        day = S.read_day_file(os.path.join(data_dir, S.day_filename(1)))
        write_candidates_file(str(candidates), np.arange(20), day["features"][:20],
                              day["schema_hash"])

    def apply(payload):
        *head, key = path
        node = functools.reduce(operator.getitem, head, payload)
        if edit == "drop":
            del node[key]
        else:
            node[key] = CHECKPOINT_EDITS[edit](node[key])
        _rederive_hashes(payload, path)

    bad = root / "edited_checkpoint.json"
    rewrite_payload(COMMITTED_CHECKPOINT, bad, apply)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["rank", "--checkpoint", str(bad), "--candidates", str(candidates)])
    assert code in (0, 2), err.getvalue()
    assert code == 0 or str(bad) in err.getvalue(), err.getvalue()


# each field of the tiny run config, seeds included, and the command that
# reads its section
CONFIG_FIELDS = [(section, key) for section, fields in C.to_dict(C.RunConfig()).items()
                 if isinstance(fields, dict) for key in fields] + [("seeds",)]
COMMAND_OF = {"data": "gen-data", "model": "train", "train": "train", "eval": "ablate",
              "seeds": "ablate"}
CONFIG_EDITS = {"swap_type": _other_type, "nan": lambda value: float("nan"),
                "inf": lambda value: float("inf"), "-inf": lambda value: -float("inf"),
                "-1": lambda value: -1, "0": lambda value: 0}


def _run_edited_config(data_dir, root: Path, path: tuple, edit: str):
    """(exit code, stderr, config path, --out) of the command that reads
    path's section, run on the tiny run config with path dropped or edited."""
    cfg = C.to_dict(run_config_from_dict(TINY_CONFIG))
    *head, key = path
    node = functools.reduce(operator.getitem, head, cfg)
    if edit == "drop":
        del node[key]
    else:
        node[key] = CONFIG_EDITS[edit](node[key])
    cfg_path, out = root / "config.json", root / "out"
    cfg_path.write_text(json.dumps(cfg))
    argv = [COMMAND_OF[path[0]], "--config", str(cfg_path), "--out", str(out)]
    if argv[0] != "gen-data":
        argv += ["--dataset", data_dir]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), cfg_path, out


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS), st.sampled_from(["drop", *CONFIG_EDITS]))
@example(path=("train", "lr"), edit="inf")  # train exited 3 after --out was made
@example(path=("data", "mean_activity"), edit="-1")  # gen-data exited 2 after --out
def test_edited_run_config_is_refused_before_out(cli_env, tmp_path_factory, path, edit):
    """One field of the tiny run config dropped, given another JSON type, or
    set to NaN, +-Infinity, -1 or 0: gen-data (for a data field), train (model
    or train) or ablate (eval or seeds) runs (0) or refuses it (2) naming the
    config file before --out is made, and never fails (3)."""
    import shutil
    import tempfile
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    code, err, cfg_path, out = _run_edited_config(cli_env[2], root, path, edit)
    made_out = out.exists()
    shutil.rmtree(root)
    assert code in (0, 2), err
    assert code == 0 or (f"bad config file {cfg_path}" in err and not made_out), err


def _drop_adam_step_counts(payload):
    for entry in payload["adam"].values():
        del entry["t"]


def _transpose_adam_m(payload):
    """Give the first matrix parameter's 'm' the transposed shape: same size,
    so the array section still holds it."""
    for entry in payload["adam"].values():
        shape = entry["m"]["shape"]
        if len(shape) == 2 and shape[0] != shape[1]:
            entry["m"]["shape"] = shape[::-1]
            return


@pytest.mark.parametrize("command", ["rank", "train"])
@pytest.mark.parametrize("key", ["t", "m"])
def test_checkpoint_optimizer_entries_are_checked(cli_env, trained_run, tmp_path, capsys,
                                                  command, key):
    """A checksum-valid checkpoint whose optimizer entries have no step count
    't', or an 'm' of its parameter's size but another shape, exits 2 naming
    the parameter and the key: not 3, and not a silent reshape."""
    _, _, data_dir = cli_env
    ckpt = trained_run[0] / "checkpoint_Proposed_3.json"
    adam = read_v3(ckpt)[0]["payload"]["adam"]
    if key == "t":
        edit, name = _drop_adam_step_counts, next(iter(adam))
    else:
        edit = _transpose_adam_m
        name = next(n for n, e in adam.items()
                    if len(e["m"]["shape"]) == 2 and len(set(e["m"]["shape"])) == 2)
    bad = tmp_path / "ckpt.json"
    rewrite_payload(ckpt, bad, edit)
    out = tmp_path / "o"
    argv = (["rank", "--checkpoint", str(bad), "--candidates", str(tmp_path / "c.tsv")]
            if command == "rank" else
            ["train", "--dataset", data_dir, "--out", str(out), "--resume", str(bad)])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"parameter '{name}'" in err and f"'{key}'" in err and "runtime error" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_non_finite_ne_is_a_runtime_failure(cli_env, tmp_path, monkeypatch, capsys, command):
    """A run whose holdout NE is not finite (here every evaluation of a
    diverged model reads NaN) exits 3 naming the variant, seed and holdout
    day, and writes no metrics_*.json or ablation.json."""
    _, cfg_path, data_dir = cli_env
    monkeypatch.setattr(T, "evaluate_ne", lambda model, day: ((np.nan,) * 3, np.nan))
    out = tmp_path / "o"
    argv = [command, "--config", cfg_path, "--dataset", data_dir, "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    run = "Proposed seed 3" if command == "train" else "Baseline seed 0"
    assert f"{run}: holdout day 1 NE is not finite" in err
    assert not [f for f in os.listdir(out) if f.startswith(("metrics_", "ablation"))]


@pytest.mark.parametrize("name,fmt,payload,key", [
    (S.day_filename(1), S.DAY_FORMAT, {}, "'schema_hash'"),
    ("world.json", S.WORLD_FORMAT, {}, "'config'"),
    ("world.json", S.WORLD_FORMAT, {"config": {}, "arrays": {}}, "'conformity'")])
def test_dataset_file_without_payload_keys_is_validation_error(cli_env, tmp_path, capsys,
                                                               name, fmt, payload, key):
    """A checksum-valid day file or world.json that lacks a key or array,
    listed in a manifest that matches it, exits 2 naming the first missing
    one before anything is written to --out."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    S.save_container(str(bad / name), payload, fmt=fmt)
    resign_manifest(bad)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and name in err and "runtime error" not in err
    assert not out.exists()


def _cut_rows(name):
    def edit(payload):
        payload["arrays"][name] = payload["arrays"][name][:-3]
    return edit


def _set_world_value(name, index, value):
    def edit(payload):
        payload["arrays"][name] = payload["arrays"][name].copy()
        payload["arrays"][name][index] = value
    return edit


def _set_config(key, value):
    def edit(payload):
        payload["config"][key] = value
    return edit


# each edit of world.json, with the array the refusal names: every array cut
# 3 rows short, a config that no longer fits the unchanged arrays, and values
# that trained with RuntimeWarnings before World checked its ranges
MALFORMED_WORLDS = {
    **{f"{name}_three_rows_short": (name, _cut_rows(name)) for name in S._WORLD_ARRAYS},
    "config_of_ten_users": ("conformity", _set_config("n_users", 10)),
    "config_of_five_topics": ("interests", _set_config("k_topics", 5)),
    "popularity_of_zero": ("popularity", _set_world_value("popularity", 0, 0.0)),
    "nan_conformity": ("conformity", _set_world_value("conformity", 0, np.nan)),
    "topics_row_of_zeros": ("topics", _set_world_value("topics", 0, 0.0)),
    "nan_in_config": ("config", _set_config("zipf_s", float("nan"))),
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", list(MALFORMED_WORLDS))
def test_malformed_world_refused_before_out(cli_env, tmp_path, capsys, command, case):
    """A re-signed world.json whose arrays do not fit its own config, or hold
    a value outside their range, exits 2 naming the file and the array,
    before --out is made."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    path = bad / "world.json"
    key, edit = MALFORMED_WORLDS[case]
    payload = S.load_container(path, fmt=S.WORLD_FORMAT)
    edit(payload)
    S.save_container(path, payload, fmt=S.WORLD_FORMAT)
    resign_manifest(bad)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path} '{key}'" in err and "runtime error" not in err
    assert not out.exists()


def _set(key, value, index=0):
    def edit(day):
        day[key] = day[key].copy()
        day[key][index] = value
    return edit


CONTENT_TYPE_COL = default_schema(TINY_CONFIG["data"]["k_topics"]).cat_col["content_type"]

# each edit of day 1, with the array the refusal names; the first six exited
# 3 or trained before the day-record check, the next two exited 2 only after
# --out was made
MALFORMED_DAYS = {
    "x_three_rows_short": ("x", lambda day: day.update(x=day["x"][:-3])),
    "item_id_of_a_million": ("item_ids", _set("item_ids", 10**6)),
    "nan_feature": ("features", _set("features", np.nan)),
    "category_of_99": ("features", _set("features", 99, (0, CONTENT_TYPE_COL))),
    "one_d_labels": ("labels", lambda day: day.update(labels=day["labels"][:, 0].copy())),
    "label_of_two": ("labels", _set("labels", 2)),
    "labels_three_rows_short": ("labels", lambda day: day.update(labels=day["labels"][:-3])),
    "x_of_five": ("x", _set("x", 5.0)),
    "negative_user_id": ("user_ids", _set("user_ids", -1)),
    "float_labels": ("labels", lambda day: day.update(labels=day["labels"] * 1.0)),
    "day_number_skipped": ("day", lambda day: day.update(day=2)),
    "no_row_dimension": ("user_ids", lambda day: day.update(
        {key: np.asarray(day[key][0]) for key in S._DAY_FIELDS if key != "day"})),
    "forged_schema_hash": ("schema_hash", lambda day: day.update(schema_hash="0" * 16)),
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", list(MALFORMED_DAYS))
def test_malformed_day_record_refused_before_out(cli_env, tmp_path, capsys, command, case):
    """A re-signed day file that fails serialize.check_day_record exits 2
    naming the file and the array, before --out is made."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    path = str(bad / S.day_filename(1))
    key, edit = MALFORMED_DAYS[case]
    day = S.read_day_file(path)
    edit(day)
    S.save_container(path, day, fmt=S.DAY_FORMAT)
    resign_manifest(bad)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path} '{key}'" in err and "runtime error" not in err
    assert not out.exists()


def test_schema_file_cell_that_is_not_an_integer_refused(cli_env, tmp_path, capsys):
    """A schema.tsv width of `one` exits 2 naming the file and the line."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    schema_path = bad / "schema.tsv"
    lines = schema_path.read_text().splitlines(keepends=True)
    cells = lines[1].split("\t")
    cells[3] = "one"
    lines[1] = "\t".join(cells)
    schema_path.write_text("".join(lines))
    resign_manifest(bad)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"schema file {schema_path} line 2: invalid literal for int()" in err
    assert not out.exists()


@pytest.mark.parametrize("case,message", [
    ("files_list", "'files' is not a mapping"),
    ("files_int", "'files' is not a mapping"),
    ("outside_file", "lists '../cfg.json'"),
    ("digest_not_a_string", "lists 'schema.tsv': 5, not a plain file name and its sha256")])
def test_manifest_files_are_checked(cli_env, tmp_path, capsys, case, message):
    """A re-signed manifest whose files is not a mapping, that lists a file
    outside the dataset directory (with that file's sha256), or that gives a
    digest that is not a string, exits 2 naming the manifest before anything
    is written to --out."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    (tmp_path / "cfg.json").write_text("{}")
    outside = S.file_sha256(tmp_path / "cfg.json")
    edit = {
        "files_list": lambda payload: payload.update(files=list(payload["files"])),
        "files_int": lambda payload: payload.update(files=5),
        "outside_file": lambda payload: payload["files"].update({"../cfg.json": outside}),
        "digest_not_a_string": lambda payload: payload["files"].update({"schema.tsv": 5}),
    }[case]
    manifest = bad / S.MANIFEST_NAME
    rewrite_payload(manifest, manifest, edit)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and message in err and "runtime error" not in err
    assert not out.exists()


def test_manifest_config_hash_must_be_world_configs(cli_env, tmp_path, capsys):
    """A re-signed manifest whose config_hash is not that of world.json's
    config exits 2 naming the manifest and the key, before --out is made."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    manifest, forged = bad / S.MANIFEST_NAME, "0" * 16
    rewrite_payload(manifest, manifest, lambda payload: payload.update(config_hash=forged))
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{manifest} 'config_hash' is '{forged}', not world.json's" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("key", ["n_content_types", "n_age_buckets"])
def test_world_config_must_fit_schema(cli_env, tmp_path, capsys, command, key):
    """A world.json whose config has one more content type (or age bucket)
    than schema.tsv declares, with the manifest's config_hash re-derived,
    exits 2 naming both files before --out is made. Unchecked at load, train
    ran on it with exit 0, and ablate trained every run before replay
    refused the schema."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    world, manifest = bad / "world.json", bad / S.MANIFEST_NAME
    edited = {}

    def edit(payload):
        payload["config"][key] += 1
        edited.update(payload["config"])

    rewrite_payload(world, world, edit)
    config_hash = C.config_hash(C._from_dict(C.DataConfig, edited))
    rewrite_payload(manifest, manifest, lambda payload: payload.update(config_hash=config_hash))
    resign_manifest(bad)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad / 'schema.tsv'} does not fit {world}" in err and "declared differently" in err
    assert not out.exists()


def test_manifest_schema_hash_must_be_schema_files(cli_env, tmp_path, capsys):
    """A re-signed manifest whose schema_hash is not schema.tsv's hash exits 2
    naming the manifest, the key and schema.tsv, before --out is made."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    manifest, forged = bad / S.MANIFEST_NAME, "0" * 16
    rewrite_payload(manifest, manifest, lambda payload: payload.update(schema_hash=forged))
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{manifest} 'schema_hash' is '{forged}', not schema.tsv's" in err
    assert not out.exists()


@pytest.mark.parametrize("name,deleted", [("schema.tsv", True), ("world.json", False)])
def test_manifest_must_list_schema_and_world(cli_env, tmp_path, capsys, name, deleted):
    """A re-signed manifest that does not list schema.tsv (here also deleted)
    or world.json (here present, so it would be read unchecked) exits 2
    naming the manifest and the file, before --out is made."""
    import shutil
    _, cfg_path, data_dir = cli_env
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    manifest = bad / S.MANIFEST_NAME
    rewrite_payload(manifest, manifest, lambda payload: payload["files"].pop(name))
    if deleted:
        (bad / name).unlink()
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{manifest} 'files' does not list '{name}'" in err and "runtime error" not in err
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
