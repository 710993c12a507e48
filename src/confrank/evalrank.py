"""Ranking, ablation comparison, and offline ecosystem analyses.

Covers final-score top-k ranking, the variant-vs-baseline NE comparison with
a paired sign test across seeds, long-tail engagement coverage, engagement by
item age, casual-user cohorts, counterfactual replay of frozen candidate
sets, and linear probes of the causal embeddings against the generator's
ground-truth factors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import comb

import numpy as np

from . import trainer as T
from .config import EvalConfig, ModelConfig, TrainConfig, VARIANTS
from .datagen import World, derive_features, engagement_probability
from .model import Cam2Model
from .schema import Schema

# Published aggregated-NE deltas, reprinted for context only; desk-scale runs
# are only expected to reproduce the sign pattern, never these magnitudes.
REFERENCE_DELTAS_PCT = {
    "Proposed": -0.139,
    "TaskArch": -0.060,
    "JointLoss": -0.016,
    "AllFeats": +0.029,
}


class EvalError(ValueError):
    pass


@dataclass
class RankedList:
    user_id: int
    item_ids: np.ndarray  # descending score, ties by ascending item id
    scores: np.ndarray


def final_score(task_probs, combine_weights=()) -> np.ndarray:
    """Weighted sum of per-task probabilities; default weights all one."""
    p = np.atleast_2d(np.asarray(task_probs, dtype=np.float64))
    w = np.asarray(combine_weights if len(combine_weights) else np.ones(p.shape[1]),
                   dtype=np.float64)
    if w.shape[0] != p.shape[1]:
        raise EvalError(f"{w.shape[0]} combine weights for {p.shape[1]} tasks")
    if np.any(w < 0) or not np.any(w > 0):
        raise EvalError("combine weights must be >= 0 and not all zero")
    return p @ w


def rank_topk(model: Cam2Model, features: np.ndarray, item_ids, k: int,
              combine_weights=(), user_id: int = -1,
              schema_hash: str | None = None) -> RankedList:
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        raise EvalError("empty candidate set")
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    scores = final_score(model.predict(features, schema_hash), combine_weights)
    order = np.lexsort((item_ids, -scores))[: min(k, item_ids.size)]
    return RankedList(user_id, item_ids[order], scores[order])


def tail_coverage(item_engagements, quantiles=(0.5, 0.75), popularity=None,
                  item_exposures=None) -> dict:
    """Minimal item counts whose cumulative engagement reaches each quantile,
    plus (optionally) the impression share of the bottom-80%-popularity items."""
    eng = np.asarray(item_engagements, dtype=np.float64)
    total = eng.sum()
    if total <= 0:
        raise EvalError("no engagements to cover")
    cum = np.cumsum(np.sort(eng)[::-1])
    counts = {q: int(np.searchsorted(cum, q * total) + 1) for q in quantiles}
    out = {"counts": counts, "total_engagement": float(total)}
    if popularity is not None and item_exposures is not None:
        cutoff = np.quantile(popularity, 0.8)
        exp = np.asarray(item_exposures, dtype=np.float64)
        out["bottom80_exposure_share"] = float(
            exp[popularity < cutoff].sum() / max(exp.sum(), 1.0))
    return out


AGE_BUCKET_LABELS = ("[0-1 day)", "[1-3 days)", "[3-10 days)", "[10+ days)")
AGE_BUCKET_EDGES = (0, 1, 3, 10)  # left edges in days; the last bucket is open


def engagement_by_item_age(event_days, item_birth_days, engaged) -> dict:
    """Engagement rate per item-age bucket (half-open, last one unbounded)."""
    age = np.asarray(event_days, dtype=np.int64) - np.asarray(item_birth_days, np.int64)
    if np.any(age < 0):
        raise EvalError(f"event precedes item birth (age {age.min()})")
    engaged = np.asarray(engaged, dtype=np.float64)
    edges = list(AGE_BUCKET_EDGES[1:]) + [np.inf]
    out = {}
    for label, lo, hi in zip(AGE_BUCKET_LABELS, AGE_BUCKET_EDGES, edges):
        mask = (age >= lo) & (age < hi)
        n = int(mask.sum())
        out[label] = {"events": n, "rate": float(engaged[mask].mean()) if n else None}
    return out


def cohort_metrics(daily_active, post_engagements, window: int = 28) -> dict:
    """Casual = active on 1-2 days of the trailing window, frozen pre-experiment."""
    active = np.asarray(daily_active, dtype=bool)
    if active.shape[1] < window:
        raise EvalError(
            f"cohort window of {window} days exceeds the {active.shape[1]}-day history")
    days_active = active[:, -window:].sum(axis=1)
    casual = (days_active >= 1) & (days_active <= 2)
    eng = np.asarray(post_engagements, dtype=np.float64)
    def summary(mask):
        n = int(mask.sum())
        return {
            "users": n,
            "mean_engagement": float(eng[mask].mean()) if n else None,
            "mean_active_days": float(days_active[mask].mean()) if n else None,
        }
    return {"casual": summary(casual), "non_casual": summary(~casual),
            "casual_mask": casual}


# -- probes -------------------------------------------------------------


def linear_probe_r2(design: np.ndarray, target: np.ndarray, ridge: float = 1e-6) -> float:
    """R^2 of a ridge-regularized linear probe with intercept, clipped to [0, 1]."""
    a = np.column_stack([design, np.ones(design.shape[0])])
    gram = a.T @ a + ridge * np.eye(a.shape[1])
    w = np.linalg.solve(gram, a.T @ target)
    resid = target - a @ w
    ss_tot = float(((target - target.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    return float(np.clip(1.0 - float((resid**2).sum()) / ss_tot, 0.0, 1.0))


def disentanglement_probe(model: Cam2Model, world: World, features: np.ndarray,
                          users, items, ridge: float = 1e-6) -> dict:
    """Probe each causal embedding for popularity vs interest-alignment signal.

    Returns an R^2 matrix over {conformity, relevance} embeddings x
    {popularity, alignment} ground-truth targets.
    """
    e_conf, e_rel = model.causal_embeddings(features)
    pop = world.z_log_pop[np.asarray(items)]
    align = np.einsum("nk,nk->n", world.interests[np.asarray(users)],
                      world.topics[np.asarray(items)])
    return {
        "e_conf": {"popularity": linear_probe_r2(e_conf, pop, ridge),
                   "alignment": linear_probe_r2(e_conf, align, ridge)},
        "e_rel": {"popularity": linear_probe_r2(e_rel, pop, ridge),
                  "alignment": linear_probe_r2(e_rel, align, ridge)},
    }


# -- counterfactual replay ---------------------------------------------


def counterfactual_replay(models: dict, world: World, history, schema: Schema,
                          eval_cfg: EvalConfig, day: int, seed: int = 0) -> dict:
    """Score identical frozen candidate sets with each model and replay
    engagement through the generative engagement probabilities.

    Returns, per model name: per-item expected engagements, tail-coverage
    counts, and total expected engagement.
    """
    rng = np.random.default_rng([seed, day])
    live = np.flatnonzero(world.birth_day <= day)
    n_cand = min(eval_cfg.replay_candidates, live.size)
    users = rng.choice(world.n_users, size=min(eval_cfg.replay_users, world.n_users),
                       replace=False)
    cand = np.stack([rng.choice(live, size=n_cand, replace=False) for _ in users])

    rep_users = np.repeat(users, n_cand)
    rep_items = cand.reshape(-1)
    features = derive_features(world, history, rep_users, rep_items, schema)

    out = {}
    for name, model in models.items():
        # chunked scoring bounds the forward pass's activation memory
        chunk = 16384
        preds = np.concatenate([model.predict(features[lo : lo + chunk])
                                for lo in range(0, features.shape[0], chunk)])
        scores = final_score(preds, eval_cfg.combine_weights).reshape(len(users), n_cand)
        item_eng = np.zeros(world.n_items)
        item_exp = np.zeros(world.n_items)
        k = min(eval_cfg.replay_k, n_cand)
        for ui, u in enumerate(users):
            order = np.lexsort((cand[ui], -scores[ui]))[:k]
            shown = cand[ui][order]
            p = sum(engagement_probability(world, np.full(k, u), shown, t)
                    for t in range(world.cfg.n_tasks))
            np.add.at(item_eng, shown, p)
            np.add.at(item_exp, shown, 1.0)
        cov = tail_coverage(item_eng, eval_cfg.tail_quantiles,
                            popularity=world.popularity, item_exposures=item_exp)
        out[name] = {"item_engagements": item_eng, "item_exposures": item_exp, **cov}
    return out


# -- ablation harness ---------------------------------------------------


def paired_sign_test(deltas) -> dict:
    """Two-sided exact sign test on per-seed deltas (zeros dropped)."""
    d = [x for x in deltas if x != 0.0]
    n = len(d)
    neg = sum(1 for x in d if x < 0)
    if n == 0:
        return {"n": 0, "negative": 0, "p_value": 1.0}
    tail = min(neg, n - neg)
    p = sum(comb(n, i) for i in range(tail + 1)) * 2.0 / 2**n
    return {"n": n, "negative": neg, "p_value": min(1.0, p)}


def aggregate_ne(rows) -> float:
    """One number per run: mean aggregated holdout NE over all holdout days."""
    return float(np.mean([r.ne_aggregated for r in rows]))


def ablation_run(model_cfg: ModelConfig, train_cfg: TrainConfig, days: list,
                 schema: Schema, seeds, variants=None) -> dict:
    """run_experiment for every (variant, seed); NE deltas vs same-seed Baseline.

    The result also holds the trained models under "models", keyed by
    (variant, seed), so later analyses need not train them again.
    """
    variants = list(variants) if variants else list(VARIANTS)
    seeds = list(seeds)
    if len(seeds) < 5:
        raise EvalError(f"need at least 5 seeds for the paired comparison, got {len(seeds)}")
    if "Baseline" not in variants:
        variants = ["Baseline"] + variants

    runs, models, failed = {}, {}, {}
    for variant in variants:
        for seed in seeds:
            cfg = dataclasses.replace(model_cfg, variant=variant, seed=seed)
            try:
                state, rows = T.run_experiment(cfg, train_cfg, days, schema)
                runs[(variant, seed)] = aggregate_ne(rows)
                models[(variant, seed)] = state.model
            except Exception as e:  # partial-result flag, not a crash
                failed[(variant, seed)] = repr(e)

    table = {}
    for variant in variants:
        per_seed = {}
        deltas = []
        for seed in seeds:
            key = (variant, seed)
            base = runs.get(("Baseline", seed))
            if key in failed or base is None:
                per_seed[seed] = {"ne": None, "delta_pct": None,
                                  "error": failed.get(key, "baseline failed")}
                continue
            ne = runs[key]
            delta = 100.0 * (ne - base) / base
            per_seed[seed] = {"ne": ne, "delta_pct": delta}
            deltas.append(delta)
        table[variant] = {
            "per_seed": per_seed,
            "median_ne": float(np.median([v["ne"] for v in per_seed.values()
                                          if v["ne"] is not None])) if deltas or variant == "Baseline" else None,
            "median_delta_pct": float(np.median(deltas)) if deltas else None,
            "sign_test": paired_sign_test(deltas),
            "reference_delta_pct": REFERENCE_DELTAS_PCT.get(variant),
            "partial": any("error" in v for v in per_seed.values()),
        }
    return {"seeds": seeds, "variants": variants, "table": table, "failures": failed,
            "models": models}


# -- rendering ----------------------------------------------------------


def render_ablation_table(result: dict) -> str:
    lines = []
    header = (f"{'variant':<12} {'median NE':>10} {'median delta':>13} "
              f"{'sign(neg/n)':>12} {'reference delta (not a target)':>31}")
    lines.append(header)
    lines.append("-" * len(header))
    for variant in result["variants"]:
        row = result["table"][variant]
        med = f"{row['median_ne']:.5f}" if row["median_ne"] is not None else "FAILED"
        if variant == "Baseline":
            delta, ref = "+0.000%", "--"
        else:
            delta = (f"{row['median_delta_pct']:+.3f}%"
                     if row["median_delta_pct"] is not None else "FAILED")
            ref = (f"{row['reference_delta_pct']:+.3f}%"
                   if row["reference_delta_pct"] is not None else "--")
        st = row["sign_test"]
        lines.append(f"{variant:<12} {med:>10} {delta:>13} "
                     f"{st['negative']}/{st['n']:>10} {ref:>31}")
    return "\n".join(lines)


def render_age_table(table: dict) -> str:
    def fmt(rate):
        return "n/a" if rate is None else f"{rate:.4f}"
    return "\n".join([" | ".join(f"{label:>12}" for label in AGE_BUCKET_LABELS),
                      " | ".join(f"{fmt(table[label]['rate']):>12}"
                                 for label in AGE_BUCKET_LABELS)])
