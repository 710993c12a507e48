"""Loss weights and reports, plain-array BCE and the normalized cross-entropy
evaluation metric.

The training path builds every loss term on the autodiff tape
(`model.Cam2Model.loss_terms`); the plain-array reference forms of the causal
losses and of the mixture, which the tests check the tape against, live in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLIP = 1e-7


class DegenerateLabelsError(ValueError):
    """Holdout labels are empty, all-positive or all-negative; NE is undefined."""


@dataclass
class LossWeights:
    task: tuple  # w_t per task
    conformity: float
    relevance: float

    def __post_init__(self):
        if any(w < 0 for w in self.task) or self.conformity < 0 or self.relevance < 0:
            raise ValueError("loss weights must be >= 0")
        if not any(w > 0 for w in self.task):
            raise ValueError("at least one task weight must be > 0")


@dataclass
class LossReport:
    task: tuple  # L_t per task
    conformity: float
    relevance: float
    total: float
    batch_size: int


def clip_probs(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)


def bce(p, y) -> float:
    """Batch-mean binary cross-entropy with clipped probabilities."""
    p = clip_probs(p)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def total_loss(task_losses, l_conf: float, l_rel: float, weights: LossWeights) -> float:
    if len(task_losses) != len(weights.task):
        raise ValueError(
            f"{len(task_losses)} task losses for {len(weights.task)} weights"
        )
    total = sum(w * l for w, l in zip(weights.task, task_losses))
    return float(total + weights.conformity * l_conf + weights.relevance * l_rel)


def normalized_cross_entropy(predictions, labels) -> float:
    """Mean BCE over the log loss of the constant base-rate predictor.

    Lower is better; 1.0 means no lift over predicting the label mean.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise DegenerateLabelsError("no labels: NE is undefined on an empty holdout")
    base_rate = y.mean()
    if base_rate <= 0.0 or base_rate >= 1.0:
        raise DegenerateLabelsError(
            f"label mean {base_rate} leaves the base-rate entropy degenerate"
        )
    return bce(predictions, y) / bce(np.full_like(y, base_rate), y)
