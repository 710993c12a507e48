"""Command-line pipeline: gen-data -> train -> ablate -> rank -> report.

Every artifact carries the config hash and a checksum; every command
validates its inputs before touching the output directory. Exit codes:
0 success, 1 usage, 2 validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import config as C
from . import evalrank as E
from . import serialize as S
from . import trainer as T
from .datagen import DayLog, History, generate_world, simulate_days
from .schema import default_schema, read_schema_file, write_schema_file

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_config(path) -> C.RunConfig:
    if path is None:
        return C.RunConfig()
    try:
        return C.load_run_config(path)
    except (OSError, json.JSONDecodeError, C.ConfigError) as e:
        raise CliError(f"bad config file: {e}", EXIT_VALIDATION)


def _prepare_out_dir(out_dir, force: bool):
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise CliError(f"output dir {out_dir} is not empty (use --force)", EXIT_VALIDATION)
    os.makedirs(out_dir, exist_ok=True)


def _dataset_days(dataset_dir) -> tuple:
    """Verify the manifest and load all day files in order."""
    try:
        manifest = S.load_manifest(dataset_dir)
        names = sorted(n for n in manifest["files"] if n.startswith("day_"))
        days = [S.read_day_file(os.path.join(dataset_dir, n)) for n in names]
    except S.CheckpointError as e:
        raise CliError(f"dataset refused: {e}", EXIT_VALIDATION)
    schema = read_schema_file(os.path.join(dataset_dir, "schema.tsv"))
    if schema.hash != manifest["schema_hash"]:
        raise CliError("schema file does not match manifest", EXIT_VALIDATION)
    return manifest, schema, days


def _check_task_count(model_cfg: C.ModelConfig, days):
    """Refuse a model whose task count differs from the dataset's label width."""
    n_tasks = len(model_cfg.task_weights)
    widths = {d["labels"].shape[1] for d in days}
    if widths - {n_tasks}:
        raise CliError(f"the model has {n_tasks} tasks but the dataset has "
                       f"{'/'.join(map(str, sorted(widths)))}", EXIT_VALIDATION)


def _dataset_world(dataset_dir):
    """The generator's ground truth stored next to the day files."""
    return S.read_world_file(os.path.join(dataset_dir, "world.json"))


# -- gen-data -----------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    data_cfg = cfg.data
    if args.seed is not None:
        data_cfg = dataclasses.replace(data_cfg, seed=args.seed)
    if args.days is not None:
        data_cfg = dataclasses.replace(data_cfg, n_days=args.days)
    _prepare_out_dir(args.out, args.force)

    world = generate_world(data_cfg)
    schema = default_schema(data_cfg.k_topics, data_cfg.n_age_buckets,
                            data_cfg.n_content_types)
    filenames = []
    for log in simulate_days(world, schema):
        name = S.day_filename(log.day)
        S.write_day_file(os.path.join(args.out, name), log, schema.hash)
        filenames.append(name)
    write_schema_file(schema, os.path.join(args.out, "schema.tsv"))
    S.write_world_file(os.path.join(args.out, "world.json"), world)
    filenames += ["schema.tsv", "world.json"]
    S.write_manifest(args.out, C.config_hash(data_cfg), schema.hash, filenames)
    print(f"wrote {len(filenames)} files to {args.out} "
          f"(config {C.config_hash(data_cfg)}, schema {schema.hash})")
    return EXIT_OK


# -- train --------------------------------------------------------------


def _ecosystem_summary(world, days) -> dict:
    """Observed-log analyses: item-age engagement, tail coverage, cohorts."""
    event_days = np.concatenate([np.full(d["user_ids"].shape[0], d["day"]) for d in days])
    items = np.concatenate([d["item_ids"] for d in days])
    users = np.concatenate([d["user_ids"] for d in days])
    engaged = np.concatenate([d["labels"][:, 0] for d in days])

    age = E.engagement_by_item_age(event_days, world.birth_day[items], engaged)
    item_eng = np.zeros(world.n_items)
    item_exp = np.zeros(world.n_items)
    np.add.at(item_eng, items, engaged.astype(np.float64))
    np.add.at(item_exp, items, 1.0)
    tail = E.tail_coverage(item_eng, popularity=world.popularity,
                           item_exposures=item_exp)

    n_days = world.cfg.n_days
    active = np.zeros((world.n_users, n_days), dtype=bool)
    active[users, event_days] = True
    window = min(28, n_days - 1)
    final = event_days == n_days - 1
    post = np.zeros(world.n_users)
    np.add.at(post, users[final], engaged[final].astype(np.float64))
    cohort = E.cohort_metrics(active[:, : n_days - 1], post, window=window)
    cohort.pop("casual_mask")
    cohort["window_days"] = window

    return {"age_table": age, "tail": {"counts": tail["counts"],
                                       "bottom80_exposure_share": tail.get("bottom80_exposure_share")},
            "cohort": cohort}


def cmd_train(args) -> int:
    if args.resume and (args.variant or args.seed is not None):
        raise CliError("--variant and --seed cannot be used with --resume: "
                       "the checkpoint fixes both", EXIT_USAGE)
    cfg = _load_config(args.config)
    model_cfg = cfg.model
    if args.variant:
        try:
            model_cfg = dataclasses.replace(model_cfg, variant=args.variant)
        except C.ConfigError as e:
            raise CliError(str(e), EXIT_USAGE)
    if args.seed is not None:
        model_cfg = dataclasses.replace(model_cfg, seed=args.seed)
    manifest, schema, days = _dataset_days(args.dataset)
    world = _dataset_world(args.dataset)
    if args.resume:
        # only an explicit --config is checked: without one the checkpoint's own config runs
        expect = T.state_config_hash(cfg.model, cfg.train) if args.config else None
        state = T.load_checkpoint(args.resume, expect_config_hash=expect)
        state.model.check_schema(schema.hash)
        model_cfg = state.model.config
    _check_task_count(model_cfg, days)
    _prepare_out_dir(args.out, args.force)

    state, rows = (T.resume_experiment(state, days) if args.resume else
                   T.run_experiment(model_cfg, cfg.train, days, schema,
                                    audit_first_batch=True))

    tag = f"{state.model.config.variant}_{state.model.config.seed}"
    ckpt_path = os.path.join(args.out, f"checkpoint_{tag}.json")
    T.save_checkpoint(state, ckpt_path)

    summary = _ecosystem_summary(world, days)

    metrics = {
        "config_hash": state.config_hash,
        "dataset_config_hash": manifest["config_hash"],
        "variant": state.model.config.variant,
        "seed": state.model.config.seed,
        "rows": [dataclasses.asdict(r) for r in rows],
        "ecosystem": summary,
    }
    with open(os.path.join(args.out, f"metrics_{tag}.json"), "w") as fh:
        json.dump(metrics, fh, indent=1)
    for r in rows:
        losses = r.train_losses
        line = f"day={r.day} holdout_NE={r.ne_aggregated:.5f}"
        if losses:
            line += f" train_total={losses['objective']:.5f}"
        if "conformity_loss" in losses:
            line += (f" L_C={losses['conformity_loss']:.5f}"
                     f" L_R={losses['relevance_loss']:.5f}")
        print(line)
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


# -- ablate -------------------------------------------------------------


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    seeds = cfg.seeds if args.seeds is None else tuple(args.seeds)
    if len(seeds) < 5:
        raise CliError(f"ablation needs >= 5 seeds, got {len(seeds)}", EXIT_VALIDATION)
    _, schema, days = _dataset_days(args.dataset)
    world = _dataset_world(args.dataset)
    _check_task_count(cfg.model, days)
    _prepare_out_dir(args.out, args.force)

    variants = args.variants or list(C.VARIANTS)
    result = E.ablation_run(cfg.model, cfg.train, days, schema, seeds, variants)
    replay, probes = _replay_and_probes(result.pop("models"), result["seeds"], world,
                                        days, schema, cfg.eval)
    table_text = E.render_ablation_table(result)
    with open(os.path.join(args.out, "ablation.txt"), "w") as fh:
        fh.write(table_text + "\n")
    failures = {f"{v}/{s}": m for (v, s), m in result["failures"].items()}
    serializable = dict(result, failures=failures, replay=replay, probes=probes)
    with open(os.path.join(args.out, "ablation.json"), "w") as fh:
        json.dump(serializable, fh, indent=1)
    print(table_text)
    if result["failures"]:
        print(f"warning: {len(result['failures'])} runs failed (partial results)")
    return EXIT_OK


def _replay_and_probes(models, seeds, world, days, schema, eval_cfg) -> tuple:
    """Per seed, on the last dataset day: counterfactual replay of every
    trained variant, with history folded from the earlier days only, and
    causal-embedding probes of each causal variant on the day's first
    eval_cfg.probe_samples rows. `models` maps (variant, seed) to a model."""
    history = History.empty(world.n_users, world.n_items)
    for d in days[:-1]:
        history.update(DayLog(d["day"], d["user_ids"], d["item_ids"], d["labels"], d["x"],
                              d["features"], d["conformity_component"],
                              d["relevance_component"]), world)
    last, n = days[-1], eval_cfg.probe_samples
    replay, probes = {}, {}
    for seed in seeds:
        by_variant = {v: m for (v, s), m in models.items() if s == seed}
        rep = E.counterfactual_replay(by_variant, world, history, schema, eval_cfg,
                                      day=last["day"], seed=seed)
        replay[seed] = {v: {"counts": r["counts"], "total_engagement": r["total_engagement"]}
                        for v, r in rep.items()}
        probes[seed] = {
            v: E.disentanglement_probe(m, world, last["features"][:n],
                                       last["user_ids"][:n], last["item_ids"][:n])
            for v, m in by_variant.items() if m.spec.causal}
    return replay, probes


# -- rank ---------------------------------------------------------------


def cmd_rank(args) -> int:
    if args.k < 1:
        raise CliError(f"k must be >= 1, got {args.k}", EXIT_USAGE)
    try:
        state = T.load_checkpoint(args.checkpoint)
    except S.CheckpointError as e:
        raise CliError(str(e), EXIT_VALIDATION)
    item_ids, features, schema_hash = _read_candidates(args.candidates)
    try:
        state.model.schema.check_rows(features)
        ranked = E.rank_topk(state.model, features, item_ids, args.k,
                             user_id=args.user, schema_hash=schema_hash)
    except Exception as e:
        raise CliError(f"ranking failed: {e}", EXIT_VALIDATION)
    for item, score in zip(ranked.item_ids, ranked.scores):
        print(f"{item}\t{score:.6f}")
    return EXIT_OK


def _read_candidates(path):
    try:
        with open(path) as fh:
            header = fh.readline()
            rows = [line.split("\t") for line in fh if line.strip()]
    except OSError as e:
        raise CliError(f"cannot read candidates: {e}", EXIT_VALIDATION)
    meta = {}
    if header.startswith("#"):
        meta = dict(kv.split("=", 1) for kv in header.lstrip("# ").strip().split("\t")
                    if "=" in kv)
    if not meta.get("schema_hash"):
        raise CliError(f"candidate file {path} does not start with a "
                       "'# schema_hash=...' header line", EXIT_VALIDATION)
    if not rows:
        raise CliError(f"candidate file {path} has no rows", EXIT_VALIDATION)
    mat = np.array(rows, dtype=np.float64)
    return mat[:, 0].astype(np.int64), mat[:, 1:], meta["schema_hash"]


# -- report -------------------------------------------------------------


def cmd_report(args) -> int:
    if not os.path.isdir(args.metrics):
        raise CliError(f"metrics directory {args.metrics} does not exist", EXIT_VALIDATION)
    files = sorted(f for f in os.listdir(args.metrics)
                   if f.startswith("metrics_") and f.endswith(".json"))
    if not files:
        raise CliError(f"no metrics found in {args.metrics}", EXIT_VALIDATION)
    runs = []
    for f in files:
        with open(os.path.join(args.metrics, f)) as fh:
            runs.append(json.load(fh))

    by_variant = {}
    for run in runs:
        by_variant.setdefault(run["variant"], []).append(
            float(np.mean([r["ne_aggregated"] for r in run["rows"]])))
    base = float(np.median(by_variant["Baseline"])) if "Baseline" in by_variant else None

    lines = ["== Holdout NE by variant =="]
    lines.append(f"{'variant':<12} {'runs':>5} {'median NE':>10} {'delta vs Baseline':>18}")
    summary = {"ne": {}, "age_table": None, "tail": None, "cohort": None}
    for variant in C.VARIANTS:
        if variant not in by_variant:
            continue
        med = float(np.median(by_variant[variant]))
        delta = (f"{100.0 * (med - base) / base:+.3f}%"
                 if base is not None and variant != "Baseline" else
                 ("+0.000%" if variant == "Baseline" and base is not None else "n/a"))
        summary["ne"][variant] = {"median_ne": med, "runs": len(by_variant[variant]),
                                  "delta_vs_baseline": delta}
        lines.append(f"{variant:<12} {len(by_variant[variant]):>5} {med:>10.5f} {delta:>18}")

    eco = runs[0]["ecosystem"]
    lines.append("")
    lines.append("== Engagement rate by item age (observed log) ==")
    lines.append(E.render_age_table(eco["age_table"]))
    lines.append("")
    lines.append("== Long-tail coverage (observed log) ==")
    for q, n in eco["tail"]["counts"].items():
        lines.append(f"items covering {float(q) * 100:.0f}% of engagement: {n}")
    if eco["tail"].get("bottom80_exposure_share") is not None:
        lines.append(f"bottom-80%-popularity impression share: "
                     f"{eco['tail']['bottom80_exposure_share']:.4f}")
    lines.append("")
    lines.append(f"== Casual-user cohort (window={eco['cohort']['window_days']}d, "
                 "desk-scale proxy) ==")
    for name in ("casual", "non_casual"):
        c = eco["cohort"][name]
        lines.append(f"{name}: users={c['users']} mean_engagement={c['mean_engagement']}"
                     f" mean_active_days={c['mean_active_days']}")
    summary["age_table"] = eco["age_table"]
    summary["tail"] = eco["tail"]
    summary["cohort"] = eco["cohort"]

    text = "\n".join(lines)
    print(text)
    with open(os.path.join(args.metrics, "report.txt"), "w") as fh:
        fh.write(text + "\n")
    with open(os.path.join(args.metrics, "report.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return EXIT_OK


# -- entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="confrank",
                                description="conformity-aware multi-task ranking pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit a synthetic day-partitioned dataset")
    g.add_argument("--config", default=None)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--days", type=int, default=None)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one (variant, seed) recurrently")
    t.add_argument("--config", default=None)
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--variant", default=None,
                   help=f"one of {', '.join(C.VARIANTS)}")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--resume", default=None,
                   help="checkpoint to warm-start from (its variant and seed; "
                        "not with --variant or --seed; a --config must be the "
                        "one it was trained under)")
    t.add_argument("--force", action="store_true")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("ablate", help="run the variant comparison over seeds")
    a.add_argument("--config", default=None)
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--seeds", type=int, nargs="+", default=None)
    a.add_argument("--variants", nargs="+", default=None)
    a.add_argument("--force", action="store_true")
    a.set_defaults(func=cmd_ablate)

    r = sub.add_parser("rank", help="score a candidate file with a checkpoint")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--user", type=int, default=-1)
    r.add_argument("--candidates", required=True)
    r.add_argument("-k", type=int, default=10)
    r.set_defaults(func=cmd_rank)

    rp = sub.add_parser("report", help="render tables from a metrics directory")
    rp.add_argument("--metrics", required=True)
    rp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (C.ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
