"""Flat-array prediction kernels for tree ensembles.

Individual CART trees already store their structure as flat numpy arrays
(:mod:`repro.ml.tree`), but an ensemble that loops over member trees in
Python still pays one full vectorized traversal — plus input validation
and Python call overhead — *per member*.  :class:`TreeBank` removes that
loop: it concatenates every member tree of a forest (or every stage tree
of a boosting model) into one struct-of-arrays bank and descends **all
trees together** in a level-synchronous vectorized loop.  The loop runs
for as many iterations as the deepest tree, instead of ``n_trees ×
depth`` iterations, and each iteration operates on one flat ``(n_trees ·
chunk rows)`` state vector.

What bounds memory is the chunk, not the batch:
:meth:`TreeBank.apply_chunks` walks ``X`` in row chunks of at most
``_CHUNK_STATES`` (tree, row) states each, so a descent holds a few
state vectors of that length whatever the batch size or tree count.
Consumers accumulate chunk by chunk; every row's float sequence is the
one an unchunked pass performs, because no prediction mixes rows.

Bank layout
-----------

Member trees ``t = 0..T-1`` are laid out back to back; node ``i`` of tree
``t`` lives at global index ``offsets[t] + i``:

- ``children_left`` / ``children_right`` — global child indices (the
  per-tree indices shifted by the tree's offset); leaves keep the ``-1``
  sentinel,
- ``feature`` / ``threshold`` — split definitions, concatenated verbatim,
- ``value`` — leaf payload rows, optionally scattered into a shared
  column space (``value_columns``) so member trees fitted on a class
  *subset* still produce full-width rows,
- ``offsets`` — ``T+1`` prefix sums of the per-tree node counts; the
  roots are ``offsets[:-1]``.

The bank only accelerates *traversal*.  How leaf payloads combine into a
prediction — the accumulation order — stays with the owning ensemble,
which must replay the exact float-operation sequence of its historical
per-member loop so predictions remain bitwise-identical (the contract
the golden-master and serve-identity tests pin).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ValidationError

__all__ = ["TreeBank"]

_LEAF = -1

#: Most (tree, row) descent states one chunk of :meth:`TreeBank.apply_chunks`
#: holds; the descent keeps about eight int64/float64 vectors of that
#: length, so a chunk's working set stays near 4 MiB.
_CHUNK_STATES = 1 << 16


class TreeBank:
    """Struct-of-arrays concatenation of many flat-array trees.

    Parameters
    ----------
    trees:
        Sequence of fitted tree dicts (the ``tree_`` attribute of
        :class:`repro.ml.tree.DecisionTreeClassifier` /
        :class:`~repro.ml.tree.DecisionTreeRegressor`).
    value_columns:
        Optional per-tree integer column maps.  When given, each tree's
        ``value`` block is scattered into a zero matrix of
        ``n_value_columns`` columns, so trees fitted on a label subset
        align with the ensemble's full class set.  Scattering copies the
        stored float64 payloads bit-exactly; the remaining columns are
        ``+0.0``, which accumulation below leaves untouched.
    n_value_columns:
        Width of the shared value space; required with ``value_columns``.
    """

    __slots__ = (
        "children_left",
        "children_right",
        "feature",
        "threshold",
        "value",
        "offsets",
        "n_trees",
    )

    def __init__(
        self,
        trees: Sequence[dict],
        *,
        value_columns: Sequence[np.ndarray] | None = None,
        n_value_columns: int | None = None,
    ):
        trees = list(trees)
        if not trees:
            raise ValidationError("TreeBank needs at least one tree")
        if (value_columns is None) != (n_value_columns is None):
            raise ValidationError("value_columns and n_value_columns must be given together")
        if value_columns is not None and len(value_columns) != len(trees):
            raise ValidationError(
                f"{len(trees)} trees but {len(value_columns)} value column maps"
            )
        sizes = np.array([tree["feature"].shape[0] for tree in trees], dtype=np.int64)
        self.offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        self.n_trees = len(trees)
        shifted_left, shifted_right = [], []
        for tree, offset in zip(trees, self.offsets[:-1]):
            left, right = tree["children_left"], tree["children_right"]
            shifted_left.append(np.where(left == _LEAF, _LEAF, left + offset))
            shifted_right.append(np.where(right == _LEAF, _LEAF, right + offset))
        self.children_left = np.concatenate(shifted_left)
        self.children_right = np.concatenate(shifted_right)
        self.feature = np.concatenate([tree["feature"] for tree in trees])
        self.threshold = np.concatenate([tree["threshold"] for tree in trees])
        if value_columns is None:
            widths = {tree["value"].shape[1] for tree in trees}
            if len(widths) != 1:
                raise ValidationError(
                    f"trees disagree on value width {sorted(widths)}; pass value_columns to align them"
                )
            self.value = np.concatenate([tree["value"] for tree in trees], axis=0)
        else:
            width = int(n_value_columns)
            blocks = []
            for tree, columns in zip(trees, value_columns):
                columns = np.asarray(columns, dtype=np.int64)
                if columns.shape[0] != tree["value"].shape[1]:
                    raise ValidationError(
                        f"tree has {tree['value'].shape[1]} value columns but the map names {columns.shape[0]}"
                    )
                block = np.zeros((tree["value"].shape[0], width), dtype=np.float64)
                block[:, columns] = tree["value"]
                blocks.append(block)
            self.value = np.concatenate(blocks, axis=0)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk: as many as fit ``_CHUNK_STATES`` states, at least one."""
        return max(1, _CHUNK_STATES // self.n_trees)

    def apply_chunks(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """``(rows, leaves)`` for consecutive row chunks of ``X``.

        ``rows`` is the slice of ``X`` the chunk covers and ``leaves`` its
        :meth:`apply` matrix, ``(n_trees, chunk)``.  Chunks hold at most
        :attr:`chunk_rows` rows, so a descent holds at most
        ``_CHUNK_STATES`` states (``n_trees`` when a bank has more trees).
        """
        X = np.asarray(X, dtype=np.float64)
        step = self.chunk_rows
        for start in range(0, X.shape[0], step):
            rows = slice(start, min(start + step, X.shape[0]))
            yield rows, self.apply(X[rows])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf reached by every row in every tree, as global node ids.

        Returns an ``(n_trees, n_rows)`` int64 matrix; index it into
        ``value`` to gather leaf payloads.  The descent is
        level-synchronous: one iteration advances every still-internal
        (tree, row) state by one level, so the loop runs ``max_depth``
        times total rather than per tree.  The split comparison is the
        same ``x <= threshold`` the per-tree kernel uses, making the
        reached leaves — and therefore the gathered payload bits —
        identical to per-tree application.  It holds all
        ``n_trees × n_rows`` states at once; :meth:`apply_chunks` bounds
        them.
        """
        X = np.asarray(X, dtype=np.float64)
        n, n_features = X.shape
        x_flat = np.ascontiguousarray(X).ravel()
        # Tree-major flat state: entry t*n + r tracks row r in tree t.
        # ``rows`` carries each active state's row index through the
        # per-level compress so it never needs recomputing via ``% n``;
        # ``take`` gathers beat fancy indexing on the hot arrays.
        node = np.repeat(self.offsets[:-1], n)
        active = np.flatnonzero(self.children_left.take(node) != _LEAF)
        rows = active % n
        while active.size:
            current = node.take(active)
            x_value = x_flat.take(rows * n_features + self.feature.take(current))
            go_left = x_value <= self.threshold.take(current)
            advanced = np.where(
                go_left, self.children_left.take(current), self.children_right.take(current)
            )
            node[active] = advanced
            still_internal = self.children_left.take(advanced) != _LEAF
            active = active[still_internal]
            rows = rows[still_internal]
        return node.reshape(self.n_trees, n)
