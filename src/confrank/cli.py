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
from .datagen import generate_world, simulate_days
from .model import SchemaHashError
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:  # e.g. the path, or a parent of it, is a file
        raise CliError(f"cannot make output dir {out_dir}: {e.strerror}", EXIT_VALIDATION)


def _dataset_days(dataset_dir) -> tuple:
    """Verify the manifest, then load the day files in order, refusing any
    that is not a day record of the dataset's schema and world
    (serialize.check_day_record)."""
    try:
        manifest = S.load_manifest(dataset_dir)
        schema = read_schema_file(os.path.join(dataset_dir, "schema.tsv"))
        if schema.hash != manifest["schema_hash"]:
            raise CliError("schema file does not match manifest", EXIT_VALIDATION)
        world = _dataset_world(dataset_dir)
        days = []
        names = sorted(n for n in manifest["files"] if n.startswith("day_"))
        for day, name in enumerate(names):
            path = os.path.join(dataset_dir, name)
            days.append(S.read_day_file(path))
            S.check_day_record(days[-1], day, schema, world, path)
    except S.CheckpointError as e:
        raise CliError(f"dataset refused: {e}", EXIT_VALIDATION)
    return manifest, schema, days


def _check_task_count(model_cfg: C.ModelConfig, world):
    """Refuse a model whose task count differs from the dataset's (every
    day's label width, by check_day_record)."""
    n_tasks = len(model_cfg.task_weights)
    if n_tasks != world.cfg.n_tasks:
        raise CliError(f"the model has {n_tasks} tasks but the dataset has "
                       f"{world.cfg.n_tasks}", EXIT_VALIDATION)


def _write_text(path, text: str):
    S.write_atomic(path, [text.encode()])


def _dataset_world(dataset_dir):
    """The generator's ground truth stored next to the day files."""
    return S.read_world_file(os.path.join(dataset_dir, "world.json"))


# -- gen-data -----------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    data_cfg = cfg.data
    if args.seed is not None:
        data_cfg = dataclasses.replace(data_cfg, seed=args.seed)
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
    engaged = np.concatenate([d["labels"][:, 0] for d in days]).astype(np.float64)

    age = E.engagement_by_item_age(event_days, world.birth_day[items], engaged)
    tail = E.item_tail_coverage(world, items, engaged)

    n_days = world.cfg.n_days
    active = np.zeros((world.n_users, n_days), dtype=bool)
    active[users, event_days] = True
    window = min(28, n_days - 1)
    final = event_days == n_days - 1
    post = np.zeros(world.n_users)
    np.add.at(post, users[final], engaged[final])
    cohort = E.cohort_metrics(active[:, : n_days - 1], post, window=window)
    cohort.pop("casual_mask")
    cohort["window_days"] = window

    return {"age_table": age, "tail": {"counts": tail["counts"],
                                       "bottom80_exposure_share": tail["bottom80_exposure_share"]},
            "cohort": cohort}


def cmd_train(args) -> int:
    if args.resume and (args.variant or args.seed is not None):
        raise CliError("--variant and --seed cannot be used with --resume: "
                       "the checkpoint fixes both", EXIT_USAGE)
    cfg = _load_config(args.config)
    model_cfg = cfg.model
    if args.variant:
        model_cfg = dataclasses.replace(model_cfg, variant=args.variant)
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
    _check_task_count(model_cfg, world)
    if args.resume and not any(d["day"] > state.last_day for d in days[:-1]):
        raise CliError(f"checkpoint {args.resume} has trained through day {state.last_day}: "
                       "no day before the dataset's holdout day is left to train",
                       EXIT_VALIDATION)
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
    _write_text(os.path.join(args.out, f"metrics_{tag}.json"), json.dumps(metrics, indent=1))
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
    seeds = E.check_seeds(cfg.seeds if args.seeds is None else args.seeds)  # a ValueError exits 2
    E.check_variants(args.variants)
    _, schema, days = _dataset_days(args.dataset)
    world = _dataset_world(args.dataset)
    _check_task_count(cfg.model, world)
    _prepare_out_dir(args.out, args.force)

    result = E.ablation_run(cfg.model, cfg.train, cfg.eval, world, days, schema, seeds,
                            args.variants)
    table_text = E.render_ablation_table(result)
    _write_text(os.path.join(args.out, "ablation.txt"), table_text + "\n")
    _write_text(os.path.join(args.out, "ablation.json"), json.dumps(result, indent=1))
    print(table_text)
    return EXIT_OK


# -- rank ---------------------------------------------------------------


def cmd_rank(args) -> int:
    if args.k < 1:
        raise CliError(f"k must be >= 1, got {args.k}", EXIT_USAGE)
    state = T.load_checkpoint(args.checkpoint)
    item_ids, features, schema_hash = _read_candidates(args.candidates)
    try:
        state.model.check_schema(schema_hash)
    except SchemaHashError as e:
        raise CliError(f"candidate file {args.candidates} does not fit checkpoint "
                       f"{args.checkpoint}: {e}", EXIT_VALIDATION) from None
    state.model.schema.check_rows(features)
    ranked = E.rank_topk(state.model, features, item_ids, args.k)
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
    mat = np.empty((len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        if len(row) != mat.shape[1]:
            raise CliError(f"candidate file {path}: row {i} has {len(row)} columns but "
                           f"row 0 has {mat.shape[1]}", EXIT_VALIDATION)
        try:
            mat[i] = row
        except ValueError as e:
            raise CliError(f"candidate file {path}: row {i}: {e}", EXIT_VALIDATION)
    ids = mat[:, 0]
    # float64 holds every integer below 2**53 exactly
    bad = np.flatnonzero(~((ids >= 0) & (ids < 2.0**53) & (ids == np.floor(ids))))
    if bad.size:
        raise CliError(f"candidate file {path}: item id {ids[bad[0]]:g} in row {bad[0]} "
                       "is not a non-negative integer below 2**53", EXIT_VALIDATION)
    return ids.astype(np.int64), mat[:, 1:], meta["schema_hash"]


# -- report -------------------------------------------------------------


_COHORT_KEYS = ("users", "mean_engagement", "mean_active_days")  # rendered per cohort

# each key path of a metrics file's "ecosystem" that cmd_report renders, with
# the types of value it renders there (None: any)
_ECOSYSTEM_KEYS = (
    *((("age_table", label, "rate"), (int, float, type(None))) for label in E.AGE_BUCKET_LABELS),
    (("tail", "counts"), (dict,)),
    (("tail", "bottom80_exposure_share"), (int, float)),
    (("cohort", "window_days"), None),
    *((("cohort", cohort, key), None) for cohort in ("casual", "non_casual")
      for key in _COHORT_KEYS),
)


def _check_type(path, name: str, value, types):
    """Refuse (exit 2, naming the file and the key) a value whose type is not in types."""
    if types is not None and type(value) not in types:
        raise CliError(f"metrics file {path} has {name} of type {type(value).__name__}, not "
                       f"{' or '.join(t.__name__ for t in types)}", EXIT_VALIDATION)


def _read_metrics(path) -> dict:
    """A `train` metrics file, refused unless it holds the keys report reads,
    with values of the types it renders, and at least one row."""
    try:
        with open(path) as fh:
            run = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read metrics file {path}: {e.strerror}", EXIT_VALIDATION)
    except ValueError as e:
        raise CliError(f"metrics file {path} is not JSON: {e}", EXIT_VALIDATION)
    if not isinstance(run, dict):
        raise CliError(f"metrics file {path} is not a JSON object", EXIT_VALIDATION)
    for key in ("variant", "dataset_config_hash", "rows", "ecosystem"):
        if key not in run:
            raise CliError(f"metrics file {path} has no {key!r} key", EXIT_VALIDATION)
    if not isinstance(run["rows"], list) or not run["rows"]:
        raise CliError(f"metrics file {path} has no rows", EXIT_VALIDATION)
    for i, row in enumerate(run["rows"]):
        if not isinstance(row, dict) or "ne_aggregated" not in row:
            raise CliError(f"metrics file {path} row {i} has no 'ne_aggregated' key",
                           EXIT_VALIDATION)
        _check_type(path, f"row {i} 'ne_aggregated'", row["ne_aggregated"], (int, float))
    for keys, types in _ECOSYSTEM_KEYS:
        node, name = run["ecosystem"], "ecosystem"
        for key in keys:
            name += f"[{key!r}]"
            if not isinstance(node, dict) or key not in node:
                raise CliError(f"metrics file {path} has no {name} key", EXIT_VALIDATION)
            node = node[key]
        _check_type(path, name, node, types)
    for q, n in run["ecosystem"]["tail"]["counts"].items():
        name = f"ecosystem['tail']['counts'][{q!r}]"
        try:
            float(q)
        except ValueError:
            raise CliError(f"metrics file {path} has key {name}, not a number",
                           EXIT_VALIDATION) from None
        _check_type(path, name, n, (int,))
    return run


def cmd_report(args) -> int:
    if not os.path.isdir(args.metrics):
        raise CliError(f"metrics directory {args.metrics} does not exist", EXIT_VALIDATION)
    paths = sorted(os.path.join(args.metrics, f) for f in os.listdir(args.metrics)
                   if f.startswith("metrics_") and f.endswith(".json"))
    if not paths:
        raise CliError(f"no metrics found in {args.metrics}", EXIT_VALIDATION)
    runs = [_read_metrics(path) for path in paths]
    dataset = runs[0]["dataset_config_hash"]
    for path, run in zip(paths, runs):
        if not isinstance(run["variant"], str) or run["variant"] not in C.VARIANTS:
            raise CliError(f"metrics file {path} has unknown variant {run['variant']!r}; "
                           f"the variants are {', '.join(C.VARIANTS)}", EXIT_VALIDATION)
        if run["dataset_config_hash"] != dataset:
            raise CliError(f"metrics files {paths[0]} and {path} come from different datasets "
                           f"(dataset_config_hash {dataset} vs {run['dataset_config_hash']})",
                           EXIT_VALIDATION)

    by_variant = {}
    for run in runs:
        by_variant.setdefault(run["variant"], []).append(
            float(np.mean([r["ne_aggregated"] for r in run["rows"]])))
    base = float(np.median(by_variant["Baseline"])) if "Baseline" in by_variant else None

    lines = ["== Holdout NE by variant =="]
    lines.append(f"{'variant':<12} {'runs':>5} {'median NE':>10} {'delta vs Baseline':>18}")
    eco = runs[0]["ecosystem"]
    summary = {"ne": {}, **{key: eco[key] for key in ("age_table", "tail", "cohort")}}
    for variant in C.VARIANTS:
        if variant not in by_variant:
            continue
        med = float(np.median(by_variant[variant]))
        delta = "n/a" if base is None else f"{100.0 * (med - base) / base:+.3f}%"
        summary["ne"][variant] = {"median_ne": med, "runs": len(by_variant[variant]),
                                  "delta_vs_baseline": delta}
        lines.append(f"{variant:<12} {len(by_variant[variant]):>5} {med:>10.5f} {delta:>18}")

    lines.append("")
    lines.append("== Engagement rate by item age (observed log) ==")
    lines.append(E.render_age_table(eco["age_table"]))
    lines.append("")
    lines.append("== Long-tail coverage (observed log) ==")
    for q, n in eco["tail"]["counts"].items():
        lines.append(f"items covering {float(q) * 100:.0f}% of engagement: {n}")
    lines.append(f"bottom-80%-popularity impression share: "
                 f"{eco['tail']['bottom80_exposure_share']:.4f}")
    lines.append("")
    lines.append(f"== Casual-user cohort (window={eco['cohort']['window_days']}d, "
                 "desk-scale proxy) ==")
    for name in ("casual", "non_casual"):
        lines.append(f"{name}: " + " ".join(f"{key}={eco['cohort'][name][key]}"
                                            for key in _COHORT_KEYS))

    text = "\n".join(lines)
    print(text)
    _write_text(os.path.join(args.metrics, "report.txt"), text + "\n")
    _write_text(os.path.join(args.metrics, "report.json"), json.dumps(summary, indent=1))
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
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one (variant, seed) recurrently")
    t.add_argument("--config", default=None)
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--variant", default=None, choices=list(C.VARIANTS))
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
    a.add_argument("--variants", nargs="+", default=None, choices=list(C.VARIANTS))
    a.add_argument("--force", action="store_true")
    a.set_defaults(func=cmd_ablate)

    r = sub.add_parser("rank", help="score a candidate file with a checkpoint")
    r.add_argument("--checkpoint", required=True)
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
    except ValueError as e:  # C.ConfigError, S.CheckpointError, SchemaError, ...
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
