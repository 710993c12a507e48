"""Plain-array reference forms, for tests only.

The training path builds the loss formulas on the autodiff tape
(`confrank.model.Cam2Model.loss_terms`); the tests check the tape's values
against the forms here. The feature row, clip and cross-entropy references
are the straightforward numpy forms that the faster code must match bit for
bit.
"""

from __future__ import annotations

import numpy as np


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
