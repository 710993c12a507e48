"""Plain-array reference forms of the loss formulas, for tests only.

The training path builds these formulas on the autodiff tape
(`confrank.model.Cam2Model.loss_terms`); the tests check the tape's values
against the forms here.
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
