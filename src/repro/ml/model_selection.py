"""Dataset splitting utilities.

The evaluation protocol in the paper leans heavily on repeated splits
(20 test sets per experiment, 5 re-splits of the firewall data), so these
helpers are exercised throughout :mod:`repro.experiments`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state

__all__ = [
    "train_test_split",
    "stratified_split_indices",
    "partition_evenly",
]


def train_test_split(
    X,
    y,
    *,
    test_size: float = 0.25,
    stratify: bool = False,
    random_state: RandomState = None,
):
    """Split ``(X, y)`` into train and test portions.

    Returns ``X_train, X_test, y_train, y_test``.  With ``stratify`` the
    class proportions of ``y`` are preserved in both portions (up to
    rounding); every class keeps at least one training sample.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}")
    if not 0.0 < test_size < 1.0:
        raise ValidationError(f"test_size must be in (0, 1), got {test_size}")
    rng = check_random_state(random_state)
    if stratify:
        train_idx, test_idx = stratified_split_indices(y, test_fraction=test_size, rng=rng)
    else:
        order = rng.permutation(X.shape[0])
        n_test = max(1, int(round(test_size * X.shape[0])))
        if n_test >= X.shape[0]:
            raise ValidationError("test_size leaves no training samples")
        test_idx, train_idx = order[:n_test], order[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


def stratified_split_indices(
    y: np.ndarray,
    *,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled index split preserving label proportions."""
    y = np.asarray(y)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        members = rng.permutation(members)
        n_test = int(round(test_fraction * members.size))
        n_test = min(n_test, members.size - 1)  # keep >=1 training sample per class
        test_parts.append(members[:n_test])
        train_parts.append(members[n_test:])
    train_idx = rng.permutation(np.concatenate(train_parts))
    test_idx = rng.permutation(np.concatenate(test_parts)) if test_parts else np.array([], dtype=int)
    return train_idx, test_idx


def partition_evenly(n: int, k: int, *, rng: np.random.Generator) -> list[np.ndarray]:
    """Randomly partition ``range(n)`` into ``k`` nearly equal index groups.

    Used to divide held-out data into the paper's 20 test sets.
    """
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    if n < k:
        raise ValidationError(f"cannot partition {n} samples into {k} non-empty groups")
    order = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]
