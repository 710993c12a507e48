"""Causal supervision targets: conformity / relevance labels from (engagement, X, thresh).

An engaged event whose historical-conformity scalar X clears the static
threshold is labeled a conformity engagement; an engaged event below it is a
relevance engagement. Non-engaged events get both labels zero. Each causal
module masks its label onto its own columns (see Cam2Model.loss_terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CausalLabels:
    conformity: np.ndarray  # [n] in {0,1}
    relevance: np.ndarray  # [n] in {0,1}


def causal_labels(engaged, x, thresh: float) -> CausalLabels:
    """Vectorized label decomposition for a batch of events."""
    engaged = np.asarray(engaged, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if np.any((x < 0.0) | (x > 1.0)):
        bad = x[(x < 0.0) | (x > 1.0)][0]
        raise ValueError(f"historical-conformity scalar {bad} outside [0, 1]")
    return CausalLabels(engaged * (x >= thresh), engaged * (x < thresh))
