import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest

from confrank import cli
from confrank import evalrank as E
from confrank import serialize as S
from confrank import trainer as T
from confrank.config import VARIANTS, run_config_from_dict
from confrank.datagen import History, generate_world, simulate_days
from confrank.schema import default_schema, read_schema_file

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


def _rewrite_as_v1(path):
    """Rewrite a container in the version-1 layout: the same document, its
    sha256 taken over the sorted-key, compact re-encoding of the payload."""
    with open(path) as fh:
        doc = json.load(fh)
    canon = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc.update(version=1, sha256=hashlib.sha256(canon.encode()).hexdigest())
    with open(path, "w") as fh:
        json.dump(doc, fh)


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
        manifest = S.load_manifest(data_dir)
        S.write_manifest(str(old), manifest["config_hash"], manifest["schema_hash"],
                         list(manifest["files"]))
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(old),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "dataset refused" in err and name in err

    def test_v1_day_file_refused(self, cli_env, tmp_path, capsys):
        """A version-1 day file, listed in a manifest that matches it, is
        refused as a dataset, naming the version."""
        _, cfg_path, data_dir = cli_env
        import shutil
        old = tmp_path / "v1_days"
        shutil.copytree(data_dir, old)
        _rewrite_as_v1(old / S.day_filename(1))
        manifest = S.load_manifest(data_dir)
        S.write_manifest(str(old), manifest["config_hash"], manifest["schema_hash"],
                         list(manifest["files"]))
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(old),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "dataset refused" in err and "version 1" in err

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

    def test_resume_matches_straight_run(self, cli_env, trained_run, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        # a 2-day view of the same dataset: same files, manifest rewritten
        import shutil
        short = tmp_path / "data_short"
        short.mkdir()
        keep = [S.day_filename(0), S.day_filename(1), "schema.tsv", "world.json"]
        for name in keep:
            shutil.copy(os.path.join(data_dir, name), short / name)
        full_manifest = S.load_manifest(data_dir)
        S.write_manifest(str(short), full_manifest["config_hash"],
                         full_manifest["schema_hash"], keep)

        part = tmp_path / "part"
        assert cli.main(["train", "--config", cfg_path, "--dataset", str(short),
                         "--out", str(part)]) == 0
        resumed = tmp_path / "resumed"
        assert cli.main(["train", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(resumed), "--resume",
                         str(part / "checkpoint_Proposed_3.json")]) == 0
        capsys.readouterr()

        straight = S.load_container(
            str(trained_run[0] / "checkpoint_Proposed_3.json"),
            fmt="confrank-checkpoint")
        warm = S.load_container(str(resumed / "checkpoint_Proposed_3.json"),
                                fmt="confrank-checkpoint")
        assert straight == warm


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
        assert not result["failures"]
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

    def test_too_few_seeds(self, cli_env, tmp_path, capsys):
        _, cfg_path, data_dir = cli_env
        assert cli.main(["ablate", "--config", cfg_path, "--dataset", data_dir,
                         "--out", str(tmp_path / "o"), "--seeds", "0", "1"]) == 2
        assert "5 seeds" in capsys.readouterr().err


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
        ("no_header", "schema_hash"),
        ("no_schema_hash", "schema_hash"),
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
        if defect in ("no_header", "no_schema_hash"):
            rows = path.read_text().splitlines(keepends=True)[1:]
            kept = [] if defect == "no_header" else [f"# n_features={features.shape[1]}\n"]
            path.write_text("".join(kept + rows))
        assert cli.main(["rank", "--checkpoint", ckpt, "--candidates", str(path),
                         "-k", "3"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_v1_checkpoint_refused(self, ckpt, candidates, tmp_path, capsys):
        import shutil
        old = tmp_path / "v1.json"
        shutil.copy(ckpt, old)
        _rewrite_as_v1(old)
        assert cli.main(["rank", "--checkpoint", str(old), "--candidates", candidates]) == 2
        captured = capsys.readouterr()
        assert "version 1" in captured.err and not captured.out

    def test_missing_checkpoint(self, cli_env, candidates, capsys):
        assert cli.main(["rank", "--checkpoint", "/nonexistent.json",
                         "--candidates", candidates]) in (2, 3)


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

    def test_empty_metrics_dir(self, tmp_path, capsys):
        assert cli.main(["report", "--metrics", str(tmp_path)]) == 2
        assert "no metrics" in capsys.readouterr().err

    def test_missing_metrics_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert cli.main(["report", "--metrics", missing]) == 2
        assert missing in capsys.readouterr().err


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
    manifest = S.load_manifest(data_dir)
    S.write_manifest(str(bad), manifest["config_hash"], manifest["schema_hash"],
                     list(manifest["files"]))
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--dataset", str(bad),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and name in err and "runtime error" not in err
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
