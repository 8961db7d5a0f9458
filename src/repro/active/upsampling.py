"""Label-imbalance treatment: random oversampling.

The Scream-vs-rest dataset is label-imbalanced, and Table 1 compares the
feedback approaches against the standard data-science fix:
:func:`random_oversample` duplicates minority-class rows until every class
matches the majority count.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state

__all__ = ["random_oversample"]


def _class_index(y: np.ndarray) -> dict:
    return {label: np.flatnonzero(y == label) for label in np.unique(y)}


def random_oversample(X, y, *, random_state: RandomState = None) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate minority rows (with replacement) to the majority count."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"X/y length mismatch: {X.shape[0]} vs {y.shape[0]}")
    rng = check_random_state(random_state)
    groups = _class_index(y)
    target = max(members.size for members in groups.values())
    parts_X, parts_y = [X], [y]
    for label, members in groups.items():
        deficit = target - members.size
        if deficit > 0:
            picks = rng.choice(members, size=deficit, replace=True)
            parts_X.append(X[picks])
            parts_y.append(y[picks])
    X_out = np.vstack(parts_X)
    y_out = np.concatenate(parts_y)
    order = rng.permutation(X_out.shape[0])
    return X_out[order], y_out[order]
