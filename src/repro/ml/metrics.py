"""Classification metrics.

The paper's headline metric is *balanced accuracy* (mean per-class recall),
chosen to be robust to label imbalance; the firewall dataset in particular
is heavily imbalanced.  Plain accuracy is its companion.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "accuracy",
    "balanced_accuracy",
]


def _check_labels(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValidationError(f"label shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValidationError("cannot score empty label arrays")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = _check_labels(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def _label_indices(labels: np.ndarray, order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Map ``values`` onto row/column indices of ``labels``, or -1 if absent."""
    sorted_labels = labels[order]
    positions = np.clip(np.searchsorted(sorted_labels, values), 0, labels.size - 1)
    indices = order[positions]
    return np.where(labels[indices] == values, indices, -1)


def confusion_matrix(y_true, y_pred, labels=None) -> np.ndarray:
    """Confusion matrix ``C[i, j]`` = count of true class ``i`` predicted ``j``.

    ``labels`` fixes row/column order; by default the sorted union of the
    labels present in either array is used.  Counting is a vectorized
    label-index mapping plus one :func:`np.bincount` — no Python-level
    loop over samples.
    """
    y_true, y_pred = _check_labels(y_true, y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    else:
        labels = np.asarray(labels)
    try:
        order = np.argsort(labels, kind="stable")
        t_idx = _label_indices(labels, order, y_true)
        p_idx = _label_indices(labels, order, y_pred)
    except TypeError:
        # Incomparable label dtypes (e.g. mixed str/int object arrays)
        # cannot be sorted; fall back to the dict-indexed loop.
        index = {label: i for i, label in enumerate(labels.tolist())}
        matrix = np.zeros((labels.size, labels.size), dtype=np.int64)
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            if t not in index or p not in index:
                raise ValidationError(f"label {t!r} or {p!r} not in the provided labels")
            matrix[index[t], index[p]] += 1
        return matrix
    unknown = (t_idx < 0) | (p_idx < 0)
    if unknown.any():
        first = int(np.flatnonzero(unknown)[0])
        t, p = y_true.tolist()[first], y_pred.tolist()[first]
        raise ValidationError(f"label {t!r} or {p!r} not in the provided labels")
    flat = np.bincount(t_idx * labels.size + p_idx, minlength=labels.size * labels.size)
    return flat.reshape(labels.size, labels.size).astype(np.int64)


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean recall over the classes present in ``y_true``.

    Recall of class ``i`` is ``C[i, i] / C[i].sum()`` on the
    :func:`confusion_matrix`.  Classes that appear only in ``y_pred`` have
    an empty row and contribute no recall term, which matches the
    conventional definition and keeps the metric defined on small test
    splits.
    """
    matrix = confusion_matrix(y_true, y_pred)
    support = matrix.sum(axis=1)
    present = support > 0
    return float(np.mean(np.diag(matrix)[present] / support[present]))
