"""Confidence-based (least-confidence) active learning baseline.

The most widely used uncertainty-sampling strategy (Lewis & Gale 1994):
score each unlabeled candidate by the model's confidence in its most
likely class and request labels for the least confident ones.  As in the
paper, the confidence comes from the AutoML system's ``predict_proba``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["least_confidence_scores", "select_least_confident"]


def least_confidence_scores(model, pool_X) -> np.ndarray:
    """Uncertainty = 1 − max-class probability (higher = more uncertain)."""
    proba = model.predict_proba(np.asarray(pool_X, dtype=np.float64))
    return 1.0 - proba.max(axis=1)


def select_least_confident(model, pool_X, n_points: int) -> np.ndarray:
    """Indices of the ``n_points`` most uncertain pool candidates."""
    pool_X = np.asarray(pool_X, dtype=np.float64)
    if n_points < 1:
        raise ValidationError(f"n_points must be >= 1, got {n_points}")
    if n_points > pool_X.shape[0]:
        raise ValidationError(f"asked for {n_points} points from a pool of {pool_X.shape[0]}")
    scores = least_confidence_scores(model, pool_X)
    return np.argsort(scores)[::-1][:n_points]
