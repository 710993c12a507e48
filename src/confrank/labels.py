"""Causal supervision targets: conformity / relevance labels from (engagement, X, thresh).

An engaged event whose historical-conformity scalar X clears the static
threshold is labeled a conformity engagement; an engaged event below it is a
relevance engagement. Per-interest relevance targets mask the relevance label
onto the item's declared topics. Non-engaged events get all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CausalLabels:
    conformity: np.ndarray  # [n] in {0,1}
    relevance: np.ndarray  # [n] in {0,1}
    per_interest: np.ndarray  # [n, k] in {0,1}, zero off the item's topics


def causal_labels(engaged, x, thresh: float, topic_flags) -> CausalLabels:
    """Vectorized label decomposition for a batch of events."""
    engaged = np.asarray(engaged, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if np.any((x < 0.0) | (x > 1.0)):
        bad = x[(x < 0.0) | (x > 1.0)][0]
        raise ValueError(f"historical-conformity scalar {bad} outside [0, 1]")
    conf = engaged * (x >= thresh)
    rel = engaged * (x < thresh)
    per_interest = rel[:, None] * np.asarray(topic_flags, dtype=np.float64)
    return CausalLabels(conf, rel, per_interest)
