"""Accumulated Local Effects (ALE) for black-box classifiers.

First-order ALE following Apley & Zhu ("Visualizing the effects of
predictor variables in black box supervised learning models").  For a
feature ``x_j`` and bin edges ``z_0 < … < z_K``, the local effect of bin
``k`` is the mean change in model output when ``x_j`` is moved from
``z_{k-1}`` to ``z_k`` for the samples that fall inside that bin; effects
are accumulated over bins and centered so the curve has (count-weighted)
zero mean.

For classifiers the "model output" is the predicted probability of each
class, so an :class:`ALECurve` carries a ``(K, n_classes)`` value matrix.
All curves produced from the same :func:`make_grid` edges are directly
comparable across models — the property the feedback algorithm's
across-model standard deviation relies on.

Batching: a model's curves for *many* features need one perturbed (lo,
hi) copy pair of ``X`` per feature, and every copy is independent of the
others — so :func:`ale_curves_for_features` stacks consecutive copies
into large ``predict_proba`` batches (bounded by ``max_batch_rows``)
instead of issuing two model calls per feature.  Each row's prediction
is independent of its batch neighbours for every model in this library,
so batch composition never changes the produced bits — the same
invariant the serving engine's micro-batching relies on.  The row bound
sizes the stacked input; a tree ensemble's working memory is bounded
inside the model, which walks any batch in row chunks of at most
``repro.ml.kernels._CHUNK_STATES`` (tree, row) states, so a larger batch
adds only to the input and output matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "ALECurve",
    "make_grid",
    "ale_curve",
    "ale_curves_for_features",
]

#: Default row bound for one stacked ``predict_proba`` call.  It bounds
#: the input side: the pending perturbed copies and their concatenation
#: are two float64 matrices of ``X.shape[1]`` columns, ~12 MiB together at
#: the paper's widest schema (12 features).  It does not bound what the
#: model holds while predicting; tree ensembles bound that themselves by
#: descending in row chunks of a fixed (tree, row) state budget
#: (:mod:`repro.ml.kernels`).
DEFAULT_MAX_BATCH_ROWS = 65536


@dataclass
class ALECurve:
    """A fitted ALE curve for one feature of one model.

    Attributes
    ----------
    feature_index, feature_name:
        Which feature the curve describes.
    edges:
        Bin edges ``z_0..z_K`` (length ``K+1``).
    grid:
        The x-positions of ``values``: the right edges ``z_1..z_K``.
    values:
        Centered accumulated effects, shape ``(K, n_classes)``.
    counts:
        Samples per bin (length ``K``); empty bins contribute zero local
        effect and are flagged by ``counts == 0``.
    """

    feature_index: int
    feature_name: str
    edges: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return self.edges[1:]

    @property
    def n_bins(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.values.shape[1])

    def value_range(self) -> float:
        """Peak-to-peak spread of the curve (max over classes)."""
        return float(np.max(self.values.max(axis=0) - self.values.min(axis=0)))


def make_grid(
    x: np.ndarray,
    *,
    grid_size: int = 32,
    strategy: str = "quantile",
    domain: tuple[float, float] | None = None,
) -> np.ndarray:
    """Build shared ALE bin edges for a feature column.

    ``quantile`` edges (the Apley & Zhu default) give every bin roughly
    equal data mass; ``uniform`` edges span the feature's domain evenly,
    which reads more naturally on plots with a physical x-axis (link rate,
    port number).  Duplicate edges from heavy value ties are dropped.

    ``domain`` bounds the grid for both strategies: ``uniform`` edges
    span it directly, and ``quantile`` edges honor it by clipping the
    quantile source into ``[low, high]`` — out-of-domain samples pile
    onto the boundary instead of stretching the grid beyond the declared
    feature domain.  A degenerate domain (``low >= high``) raises.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValidationError("need at least 2 samples to build an ALE grid")
    if grid_size < 2:
        raise ValidationError(f"grid_size must be >= 2, got {grid_size}")
    if domain is not None:
        low, high = float(domain[0]), float(domain[1])
        if low >= high:
            raise ValidationError(f"degenerate domain for {strategy} grid: [{low}, {high}]")
    if strategy == "quantile":
        if domain is not None:
            x = np.clip(x, low, high)
        quantiles = np.linspace(0.0, 1.0, grid_size + 1)
        edges = np.quantile(x, quantiles)
    elif strategy == "uniform":
        low, high = domain if domain is not None else (float(x.min()), float(x.max()))
        if low >= high:
            raise ValidationError(f"degenerate domain for uniform grid: [{low}, {high}]")
        edges = np.linspace(low, high, grid_size + 1)
    else:
        raise ValidationError(f"unknown grid strategy {strategy!r}; use 'quantile' or 'uniform'")
    edges = np.unique(edges)
    if edges.size < 2:
        raise ValidationError("feature is constant; ALE is undefined")
    return edges


def _validated_edges(edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("edges must be a 1-D array with at least 2 entries")
    return edges


def _stacked_proba(model, blocks, max_batch_rows: int) -> list[np.ndarray]:
    """Evaluate ``model.predict_proba`` over a sequence of row blocks.

    ``blocks`` yields ``(n, d)`` matrices; consecutive blocks concatenate
    into one model call as long as the call stays within
    ``max_batch_rows`` (a call always takes at least one whole block, so
    a tiny bound degrades to one call per block — the historical
    two-calls-per-feature shape).  Returns per-block probability
    matrices, exactly as if each block had been evaluated alone.
    """
    results: list[np.ndarray] = []
    pending: list[np.ndarray] = []
    pending_rows = 0

    def flush() -> None:
        nonlocal pending, pending_rows
        if not pending:
            return
        proba = np.asarray(model.predict_proba(np.concatenate(pending, axis=0)))
        splits = np.cumsum([block.shape[0] for block in pending])[:-1]
        results.extend(np.split(proba, splits, axis=0))
        pending = []
        pending_rows = 0

    for block in blocks:
        if pending and pending_rows + block.shape[0] > max_batch_rows:
            flush()
        pending.append(block)
        pending_rows += block.shape[0]
    flush()
    return results


def ale_curves_for_features(
    model,
    X: np.ndarray,
    feature_indices,
    edges_per_feature,
    *,
    feature_names=None,
    max_batch_rows: int | None = None,
) -> list[ALECurve]:
    """First-order ALE curves of one model for several features, batched.

    The workhorse behind :func:`ale_curve` and the committee profiles:
    for every feature it pins the feature column to each bin's left and
    right edge (two perturbed copies of ``X``), stacks consecutive copies
    into ``predict_proba`` batches of at most ``max_batch_rows`` rows,
    and assembles each feature's curve from the per-copy probability
    slices.  ``model`` must expose ``predict_proba``.  Samples outside an
    edge range are clamped into the first/last bin, so a grid built from
    the training data also works on augmented datasets.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-dimensional")
    if X.shape[0] == 0:
        raise ValidationError("X has no samples; ALE needs a non-empty dataset")
    feature_indices = [int(index) for index in feature_indices]
    edges_per_feature = [_validated_edges(edges) for edges in edges_per_feature]
    if len(edges_per_feature) != len(feature_indices):
        raise ValidationError(
            f"{len(feature_indices)} features but {len(edges_per_feature)} edge arrays"
        )
    if feature_names is not None and len(feature_names) != len(feature_indices):
        raise ValidationError(
            f"{len(feature_indices)} features but {len(feature_names)} names"
        )
    for index in feature_indices:
        if not 0 <= index < X.shape[1]:
            raise ValidationError(
                f"feature_index {index} out of range for {X.shape[1]} features"
            )
    if max_batch_rows is None:
        max_batch_rows = DEFAULT_MAX_BATCH_ROWS
    if max_batch_rows < 1:
        raise ValidationError(f"max_batch_rows must be >= 1, got {max_batch_rows}")

    bins_per_feature = []
    for index, edges in zip(feature_indices, edges_per_feature):
        n_bins = edges.size - 1
        column = X[:, index]
        bins_per_feature.append(
            np.clip(np.searchsorted(edges, column, side="right") - 1, 0, n_bins - 1)
        )

    def perturbed_blocks():
        # lo then hi per feature, in feature order: block 2i is feature
        # i's left-edge copy, block 2i+1 its right-edge copy.
        for index, edges, bins in zip(feature_indices, edges_per_feature, bins_per_feature):
            for edge_of_bin in (edges[bins], edges[bins + 1]):
                block = X.copy()
                block[:, index] = edge_of_bin
                yield block

    probas = _stacked_proba(model, perturbed_blocks(), max_batch_rows)

    curves: list[ALECurve] = []
    for position, (index, edges, bins) in enumerate(
        zip(feature_indices, edges_per_feature, bins_per_feature)
    ):
        proba_lo, proba_hi = probas[2 * position], probas[2 * position + 1]
        n_classes = proba_lo.shape[1]
        n_bins = edges.size - 1
        deltas = proba_hi - proba_lo
        local_effects = np.zeros((n_bins, n_classes))
        counts = np.zeros(n_bins, dtype=np.int64)
        for k in range(n_bins):
            members = bins == k
            count = int(members.sum())
            counts[k] = count
            if count:
                local_effects[k] = deltas[members].mean(axis=0)

        accumulated = np.cumsum(local_effects, axis=0)
        total = counts.sum()
        center = (counts[:, None] * accumulated).sum(axis=0) / total
        if feature_names is not None and feature_names[position]:
            name = feature_names[position]
        else:
            name = f"feature_{index}"
        curves.append(
            ALECurve(
                feature_index=index,
                feature_name=name,
                edges=edges,
                values=accumulated - center,
                counts=counts,
            )
        )
    return curves


def ale_curve(
    model,
    X: np.ndarray,
    feature_index: int,
    edges: np.ndarray,
    *,
    feature_name: str | None = None,
) -> ALECurve:
    """Compute the first-order ALE curve of ``model`` for one feature.

    ``model`` must expose ``predict_proba``.  Samples outside the edge
    range are clamped into the first/last bin, so a grid built from the
    training data also works on augmented datasets.  Raises
    :class:`ValidationError` for an empty ``X`` (an empty dataset has no
    local effects — the curve would be all-NaN).
    """
    [curve] = ale_curves_for_features(
        model,
        X,
        [feature_index],
        [edges],
        feature_names=[feature_name] if feature_name is not None else None,
    )
    return curve
