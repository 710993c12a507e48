"""Plain-array BCE and the normalized cross-entropy evaluation metric.

The training path builds every loss term, and their weighted sum, on the
autodiff tape (`model.Cam2Model.loss_terms` and `training_objective`); the
plain-array reference forms of the causal losses, the mixture and the
weighted sum, which the tests check the tape against, live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

PROB_CLIP = 1e-7
PROB_RANGE = (PROB_CLIP, 1.0 - PROB_CLIP)  # every probability a loss reads is clipped to it


class DegenerateLabelsError(ValueError):
    """Holdout labels are empty, all-positive or all-negative; NE is undefined."""


def bce(p, y) -> float:
    """Batch-mean binary cross-entropy with clipped probabilities."""
    p = np.clip(np.asarray(p, dtype=np.float64), *PROB_RANGE)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


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
