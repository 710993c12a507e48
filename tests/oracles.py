"""Plain-array reference forms, for tests only.

The training path builds the loss formulas on the autodiff tape
(`confrank.model.Cam2Model.loss_terms`); the tests check the tape's values
against the forms here. The feature row, clip and cross-entropy references
are the straightforward numpy forms that the faster code must match bit for
bit. So are the generator's item-by-item topic draws, its day loop (events
ordered by np.lexsort, alignment normalised per event) and the user-by-user
counterfactual replay.
"""

from __future__ import annotations

import numpy as np

from confrank import datagen as D
from confrank import evalrank as E


def conformity_loss(c_bar, u_hat, i_hat, squared: bool = False) -> float:
    """Batch mean of |c - |u_hat + i_hat||, the combined-conformity residual."""
    resid = np.abs(np.asarray(c_bar, dtype=np.float64)
                   - np.abs(np.asarray(u_hat) + np.asarray(i_hat)))
    if squared:
        resid = resid**2
    return float(np.mean(resid))


def relevance_loss(r_bar, u_x, i_x, squared: bool = False) -> float:
    """Batch mean over events of sum_x |r_x - u_x * i_x| across interests."""
    r_bar = np.atleast_2d(np.asarray(r_bar, dtype=np.float64))
    u_x = np.atleast_2d(np.asarray(u_x, dtype=np.float64))
    i_x = np.atleast_2d(np.asarray(i_x, dtype=np.float64))
    if r_bar.shape != u_x.shape or u_x.shape != i_x.shape:
        raise ValueError(
            f"interest vectors disagree: {r_bar.shape}, {u_x.shape}, {i_x.shape}"
        )
    resid = np.abs(r_bar - u_x * i_x)
    if squared:
        resid = resid**2
    return float(np.mean(resid.sum(axis=1)))


def total_loss(task_losses, l_conf: float, l_rel: float, task_weights,
               conformity_weight: float, relevance_weight: float) -> float:
    """sum_t w_t L_t + w_C L_C + w_R L_R, the weighted task and causal terms."""
    if len(task_losses) != len(task_weights):
        raise ValueError(f"{len(task_losses)} task losses for {len(task_weights)} weights")
    total = sum(w * l for w, l in zip(task_weights, task_losses))
    return float(total + conformity_weight * l_conf + relevance_weight * l_rel)


def mixture_decomposition(p_conf, p_rel, w1: float, w2: float):
    """Pr(t) = w1 * Pr(t|Conformity) + w2 * Pr(t|Relevance)."""
    return w1 * np.asarray(p_conf, dtype=np.float64) + w2 * np.asarray(p_rel, dtype=np.float64)


def mixture_weights(logits) -> tuple:
    """Softmax of two learnable scalars -> (Pr(conformity), Pr(relevance))."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    w = e / e.sum()
    return float(w[0]), float(w[1])


def zscore_columns(mat):
    """Each column minus its mean over its sd (1 where the sd is below 1e-12)."""
    std = mat.std(axis=0)
    return (mat - mat.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)


def derive_features(world, history, users, items, schema):
    """The generator's feature rows in the default schema's column order,
    built column block by column block with np.column_stack."""
    n = len(users)
    if n == 0:
        return np.zeros((0, schema.arity()))
    imps = history.item_impressions[items].astype(np.float64)
    clicks = history.item_clicks[items].astype(np.float64)
    stat = np.column_stack([
        np.log1p(imps),
        np.log1p(history.item_views[items].astype(np.float64)),
        (clicks + 1.0) / (imps + 2.0),
        np.log1p(history.user_engagements[users].astype(np.float64)),
        (history.user_social[users] + 1.0) / (history.user_impressions[users] + 2.0),
    ])
    return np.column_stack([
        zscore_columns(stat),
        world.age_bucket[users].reshape(n, 1).astype(np.float64),
        world.interests[users],
        world.topics[items],
        world.quality[items].reshape(n, 1),
        world.content_type[items].reshape(n, 1).astype(np.float64),
    ])


def clip(x, lo, hi, g):
    """(np.clip(x, lo, hi), gradient g passed only where lo < x < hi)."""
    return np.clip(x, lo, hi), g * ((x > lo) & (x < hi))


def bce(p, y, lo, hi, g=1.0):
    """(mean binary cross-entropy of np.clip(p, lo, hi) against y, its
    gradient in p scaled by g), by the float ops of the clip, log, mul, sub,
    add, mean and scale-by--1 chain."""
    pc = np.clip(p, lo, hi)
    s = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)
    c = 1.0 / s.size
    gs = np.full_like(s, (g * -1.0) * c)
    d = -((gs * (1.0 - y)) / (1.0 - pc)) + (gs * y) / pc
    return (s.sum() * c) * -1.0, d * ((p > lo) & (p < hi))


def item_topics(rng, n_items: int, k: int) -> np.ndarray:
    """Each item's topic count (1-3), then its topics with one
    rng.choice(k, count, replace=False) per item, as a multi-hot row."""
    n_topics_each = rng.integers(1, 4, size=n_items)
    topics = np.zeros((n_items, k))
    for i in range(n_items):
        topics[i, rng.choice(k, size=n_topics_each[i], replace=False)] = 1.0
    return topics


def interest_alignment(world, users, items) -> np.ndarray:
    """<theta_u, phi_i / |phi_i|>, each gathered topic row normalised."""
    phi = world.topics[items]
    norm = phi.sum(axis=1, keepdims=True)
    return np.einsum("nk,nk->n", world.interests[users], phi / norm)


def engagement(world, users, items, task: int) -> tuple:
    """(np.clip-ed engagement probability, conformity term, relevance term)."""
    cfg = world.cfg
    conf = cfg.task_alpha[task] * world.conformity[users] * world.z_log_pop[items]
    rel = cfg.task_beta[task] * interest_alignment(world, users, items) * world.quality[items]
    p = 1.0 / (1.0 + np.exp(-(conf + rel + cfg.task_gamma[task])))
    return np.clip(p, 1e-7, 1.0 - 1e-7), conf, rel


def simulate_days(world, schema):
    """The generator's day logs, each day's events put in (user, item) order
    by np.lexsort."""
    cfg = world.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    history = D.History.empty(world.n_users, world.n_items)
    for day in range(cfg.n_days):
        live = np.flatnonzero(world.birth_day <= day)
        weights = world.popularity[live] ** cfg.exposure_tilt
        weights = weights / weights.sum()
        users = np.repeat(np.arange(world.n_users), rng.poisson(world.activity))
        items = live[rng.choice(live.shape[0], size=users.shape[0], p=weights)]
        order = np.lexsort((items, users))
        users, items = users[order], items[order]
        labels = np.zeros((users.shape[0], cfg.n_tasks), dtype=np.int64)
        for t in range(cfg.n_tasks):
            p, conf_t, rel_t = engagement(world, users, items, t)
            labels[:, t] = (rng.random(users.shape[0]) < p).astype(np.int64)
            if t == 0:
                conf, rel = conf_t, rel_t
        log = D.DayLog(day, users, items, labels, D.derive_x(history)[users],
                       derive_features(world, history, users, items, schema), conf, rel)
        yield log
        history.update(log, world)


def counterfactual_replay(models, world, history, schema, eval_cfg, day, seed=0) -> dict:
    """evalrank.counterfactual_replay ranking and replaying one user at a
    time: engagement probabilities of that user's top k, added per item."""
    rng = np.random.default_rng([seed, day])
    live = np.flatnonzero(world.birth_day <= day)
    n_cand = min(eval_cfg.replay_candidates, live.size)
    users = rng.choice(world.n_users, size=min(eval_cfg.replay_users, world.n_users),
                       replace=False)
    cand = np.stack([rng.choice(live, size=n_cand, replace=False) for _ in users])
    features = D.derive_features(world, history, np.repeat(users, n_cand),
                                 cand.reshape(-1), schema)
    out = {}
    for name, model in models.items():
        scores = E.final_score(model.predict(features)).reshape(len(users), n_cand)
        item_eng = np.zeros(world.n_items)
        item_exp = np.zeros(world.n_items)
        k = min(eval_cfg.replay_k, n_cand)
        for ui, u in enumerate(users):
            shown = cand[ui][np.lexsort((cand[ui], -scores[ui]))[:k]]
            p = sum(engagement(world, np.full(k, u), shown, t)[0]
                    for t in range(world.cfg.n_tasks))
            np.add.at(item_eng, shown, p)
            np.add.at(item_exp, shown, 1.0)
        cov = E.tail_coverage(item_eng, popularity=world.popularity, item_exposures=item_exp)
        out[name] = {"item_engagements": item_eng, "item_exposures": item_exp, **cov}
    return out
