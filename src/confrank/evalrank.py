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

from . import serialize as S
from . import trainer as T
from .config import EvalConfig, ModelConfig, TrainConfig, VARIANTS
from .datagen import History, World, derive_features, engagement_probability
from .model import CAUSAL, Cam2Model
from .schema import Schema

# Published aggregated-NE deltas, reprinted for context only; desk-scale runs
# are only expected to reproduce the sign pattern, never these magnitudes.
REFERENCE_DELTAS_PCT = {
    "Proposed": -0.139,
    "TaskArch": -0.060,
    "JointLoss": -0.016,
    "AllFeats": +0.029,
}


# each causal module's embedding key in disentanglement_probe's result
PROBE_KEYS = {"conformity": "e_conf", "relevance": "e_rel"}


class EvalError(ValueError):
    pass


@dataclass
class RankedList:
    user_id: int
    item_ids: np.ndarray  # descending score, ties by ascending item id
    scores: np.ndarray


def final_score(task_probs) -> np.ndarray:
    """Each row's sum of per-task probabilities."""
    p = np.atleast_2d(np.asarray(task_probs, dtype=np.float64))
    return p @ np.ones(p.shape[1])


def _top_k_order(items: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k indices along the last axis: descending score, ties by ascending item id."""
    return np.lexsort((items, -scores), axis=-1)[..., :k]


def rank_topk(model: Cam2Model, features: np.ndarray, item_ids, k: int, user_id: int = -1,
              schema_hash: str | None = None) -> RankedList:
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        raise EvalError("empty candidate set")
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    scores = final_score(model.predict(features, schema_hash))
    order = _top_k_order(item_ids, scores, k)
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


def item_tail_coverage(world: World, items, engagement) -> dict:
    """Per-item "item_engagements" and "item_exposures" (one per event) of
    events (items[e], engagement[e]), plus their tail_coverage."""
    item_eng = np.zeros(world.n_items)
    item_exp = np.zeros(world.n_items)
    np.add.at(item_eng, items, engagement)
    np.add.at(item_exp, items, 1.0)
    return {"item_engagements": item_eng, "item_exposures": item_exp,
            **tail_coverage(item_eng, popularity=world.popularity, item_exposures=item_exp)}


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

PROBE_RIDGE = 1e-6  # keeps the probe's Gram matrix invertible


def linear_probe_r2(design: np.ndarray, target: np.ndarray) -> float:
    """R^2 of a ridge-regularized linear probe with intercept, clipped to [0, 1]."""
    a = np.column_stack([design, np.ones(design.shape[0])])
    gram = a.T @ a + PROBE_RIDGE * np.eye(a.shape[1])
    w = np.linalg.solve(gram, a.T @ target)
    resid = target - a @ w
    ss_tot = float(((target - target.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    return float(np.clip(1.0 - float((resid**2).sum()) / ss_tot, 0.0, 1.0))


def disentanglement_probe(model: Cam2Model, world: World, features: np.ndarray,
                          users, items) -> dict:
    """Probe each causal embedding for popularity vs interest-alignment signal.

    Returns an R^2 matrix over the causal embeddings, keyed as in
    PROBE_KEYS, x {popularity, alignment} ground-truth targets.
    """
    pop = world.z_log_pop[np.asarray(items)]
    align = np.einsum("nk,nk->n", world.interests[np.asarray(users)],
                      world.topics[np.asarray(items)])
    return {PROBE_KEYS[name]: {"popularity": linear_probe_r2(e, pop),
                               "alignment": linear_probe_r2(e, align)}
            for name, e in zip(CAUSAL, model.causal_embeddings(features), strict=True)}


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

    k = min(eval_cfg.replay_k, n_cand)
    shown_users = np.repeat(users, k)
    out = {}
    for name, model in models.items():
        scores = final_score(model.predict(features)).reshape(len(users), n_cand)
        shown = np.take_along_axis(cand, _top_k_order(cand, scores, k), axis=1).reshape(-1)
        p = sum(engagement_probability(world, shown_users, shown, t)
                for t in range(world.cfg.n_tasks))
        out[name] = item_tail_coverage(world, shown, p)
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


def _check_unrepeated(kind: str, values: list) -> list:
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise EvalError(f"{kind} {repeated} is repeated in the paired comparison")
    return values


def check_seeds(seeds) -> list:
    """The seeds of a paired comparison as a list: at least 5, none negative,
    none repeated."""
    seeds = list(seeds)
    if len(seeds) < 5:
        raise EvalError(f"need at least 5 seeds for the paired comparison, got {len(seeds)}")
    if min(seeds) < 0:
        raise EvalError(f"seeds must be >= 0, got {min(seeds)}")
    return _check_unrepeated("seed", seeds)


def check_variants(variants) -> list:
    """The variants of a comparison as a list, all of VARIANTS if none are
    given; none repeated."""
    return _check_unrepeated("variant", list(variants) if variants else list(VARIANTS))


def ablation_run(model_cfg: ModelConfig, train_cfg: TrainConfig, eval_cfg: EvalConfig,
                 world: World, days: list, schema: Schema, seeds, variants=None) -> dict:
    """The whole variant comparison: run_experiment for every (variant, seed),
    NE deltas against the same-seed Baseline, then per seed, on the last day,
    counterfactual replay of every trained variant (history folded from the
    earlier days only) and probes of each causal variant's embeddings on the
    day's first eval_cfg.probe_samples rows.

    Returns {seeds, variants, table, replay, probes}. A failing run is not
    caught: its error ends the sweep, as does a run with a non-finite NE
    (trainer.NonFiniteMetricError).
    """
    variants = check_variants(variants)
    seeds = check_seeds(seeds)
    if "Baseline" not in variants:
        variants = ["Baseline"] + variants

    runs, models = {}, {seed: {} for seed in seeds}
    for variant in variants:
        for seed in seeds:
            cfg = dataclasses.replace(model_cfg, variant=variant, seed=seed)
            state, rows = T.run_experiment(cfg, train_cfg, days, schema)
            runs[(variant, seed)] = aggregate_ne(rows)
            models[seed][variant] = state.model

    table = {}
    for variant in variants:
        per_seed = {}
        for seed in seeds:
            ne, base = runs[(variant, seed)], runs[("Baseline", seed)]
            per_seed[seed] = {"ne": ne, "delta_pct": 100.0 * (ne - base) / base}
        deltas = [cell["delta_pct"] for cell in per_seed.values()]
        table[variant] = {
            "per_seed": per_seed,
            "median_ne": float(np.median([cell["ne"] for cell in per_seed.values()])),
            "median_delta_pct": float(np.median(deltas)),
            "sign_test": paired_sign_test(deltas),
            "reference_delta_pct": REFERENCE_DELTAS_PCT.get(variant),
        }

    history = History.empty(world.n_users, world.n_items)
    for d in days[:-1]:
        history.update(S.day_log(d), world)
    last, n = days[-1], eval_cfg.probe_samples
    replay, probes = {}, {}
    for seed in seeds:
        rep = counterfactual_replay(models[seed], world, history, schema, eval_cfg,
                                    day=last["day"], seed=seed)
        replay[seed] = {v: {"counts": r["counts"], "total_engagement": r["total_engagement"]}
                        for v, r in rep.items()}
        probes[seed] = {
            v: disentanglement_probe(m, world, last["features"][:n],
                                     last["user_ids"][:n], last["item_ids"][:n])
            for v, m in models[seed].items() if m.spec.causal}
    return {"seeds": seeds, "variants": variants, "table": table, "replay": replay,
            "probes": probes}


# -- rendering ----------------------------------------------------------


def render_ablation_table(result: dict) -> str:
    lines = []
    header = (f"{'variant':<12} {'median NE':>10} {'median delta':>13} "
              f"{'sign(neg/n)':>12} {'reference delta (not a target)':>31}")
    lines.append(header)
    lines.append("-" * len(header))
    for variant in result["variants"]:
        row = result["table"][variant]
        med = f"{row['median_ne']:.5f}"
        delta = f"{row['median_delta_pct']:+.3f}%"  # Baseline's is exactly +0.000%
        ref = (f"{row['reference_delta_pct']:+.3f}%"
               if row["reference_delta_pct"] is not None else "--")
        sign = f"{row['sign_test']['negative']}/{row['sign_test']['n']}"
        lines.append(f"{variant:<12} {med:>10} {delta:>13} {sign:>12} {ref:>31}")
    return "\n".join(lines)


def render_age_table(table: dict) -> str:
    def fmt(rate):
        return "n/a" if rate is None else f"{rate:.4f}"
    return "\n".join([" | ".join(f"{label:>12}" for label in AGE_BUCKET_LABELS),
                      " | ".join(f"{fmt(table[label]['rate']):>12}"
                                 for label in AGE_BUCKET_LABELS)])
