"""Online uncertainty monitoring: the feedback loop applied per request.

Offline, the paper's algorithm hands the operator a subspace where the
committee disagrees and asks for more labeled data there.  Online, the
same artifact becomes a per-request test: *is this incoming point inside
a region the committee was already known to be confused about, or does
the committee disagree about it right now?*  A point is flagged
``in_uncertain_region`` when either holds:

- **region membership** — the point lies inside the registered
  Within-ALE feedback subspace (``FeedbackReport.region``, the paper's
  ``∪ᵢ Aᵢx ≤ bᵢ``), tested through the compiled bounds fast path of
  :meth:`SubspaceUnion.contains`;
- **live disagreement** — the committee's per-point predicted-probability
  standard deviation (max over classes, matching the feedback analyzer's
  default ``class_aggregation='max'``) exceeds the report's threshold.

Flagged points accumulate in a bounded :class:`LabelingQueue` — the
serving-side analogue of the paper's "collect more data here" output:
an operator drains the queue, labels the points, and retrains.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any

import numpy as np

from ..core.feedback import FeedbackReport
from ..exceptions import ValidationError

__all__ = ["LabelingQueue", "UncertaintyMonitor", "committee_disagreement"]


def committee_disagreement(member_stack: np.ndarray) -> np.ndarray:
    """Per-point committee disagreement from a member-probability stack.

    ``member_stack`` has shape ``(n_members, n_points, n_classes)`` — the
    output of :meth:`EnsembleClassifier.member_proba`.  Returns shape
    ``(n_points,)``: the standard deviation across members, maximized over
    classes (a point is uncertain if the committee splits on *any* class).
    """
    member_stack = np.asarray(member_stack, dtype=np.float64)
    if member_stack.ndim != 3:
        raise ValidationError(f"member stack must be (members, points, classes), got shape {member_stack.shape}")
    return member_stack.std(axis=0).max(axis=1)


class LabelingQueue:
    """Bounded FIFO of uncertain points awaiting operator labels.

    Thread-safe.  When full, the *newest* candidate is dropped (and
    counted) rather than evicting older entries: the queue represents an
    operator's backlog, and silently rotating it would hide how far
    behind labeling has fallen.

    With ``snapshot_path`` set the queue is durable: every offer and
    drain is journaled to an append-only JSONL file, and a fresh queue
    pointed at the same path replays the journal to restore its pending
    backlog.  Journal writes are best-effort — a full disk degrades the
    queue to in-memory, it never fails serving.
    """

    def __init__(self, capacity: int = 1024, *, snapshot_path: str | None = None):
        if capacity < 1:
            raise ValidationError(f"labeling queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.snapshot_path = snapshot_path
        self._lock = threading.Lock()
        self._entries: deque = deque()
        self._enqueued = 0
        self._dropped = 0
        self._persisted = 0
        if snapshot_path is not None:
            self._restore(snapshot_path)

    def _restore(self, path: str) -> None:
        """Replay the journal; torn or corrupt lines are skipped, not fatal."""
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash mid-write
            op = record.get("op")
            if op == "offer" and isinstance(record.get("entry"), dict):
                if len(self._entries) < self.capacity:
                    self._entries.append(record["entry"])
            elif op == "drain":
                count = record.get("count")
                if isinstance(count, int) and count > 0:
                    for _ in range(min(count, len(self._entries))):
                        self._entries.popleft()

    def _append(self, record: dict[str, Any]) -> None:
        """Best-effort journal write; caller holds the lock."""
        if self.snapshot_path is None:
            return
        try:
            directory = os.path.dirname(self.snapshot_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.snapshot_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._persisted += 1
        except OSError:
            pass  # disk trouble must never take down serving

    def offer(self, entry: dict[str, Any]) -> bool:
        """Enqueue one candidate; returns False (and counts a drop) when full."""
        with self._lock:
            if len(self._entries) >= self.capacity:
                self._dropped += 1
                return False
            self._entries.append(entry)
            self._enqueued += 1
            self._append({"op": "offer", "entry": entry})
            return True

    def drain(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Remove and return up to ``limit`` oldest entries (all by default)."""
        with self._lock:
            take = len(self._entries) if limit is None else max(0, min(limit, len(self._entries)))
            drained = [self._entries.popleft() for _ in range(take)]
            if drained:
                self._append({"op": "drain", "count": len(drained)})
            return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "depth": len(self._entries),
                "capacity": self.capacity,
                "enqueued": self._enqueued,
                "dropped": self._dropped,
                "persisted": self._persisted,
            }


class UncertaintyMonitor:
    """Evaluate each served batch against the registered feedback artifact.

    Parameters
    ----------
    report:
        The :class:`FeedbackReport` registered with the model — supplies
        both the precompiled subspace ``region`` and the disagreement
        ``threshold``.
    disagreement_threshold:
        Override for the live-disagreement cutoff; default is the
        report's own threshold (the offline and online notions of "too
        much disagreement" coincide unless the operator says otherwise).
    snapshot_path:
        Forwarded to :class:`LabelingQueue` — a JSONL journal path that
        makes the backlog survive restarts.
    """

    def __init__(
        self,
        report: FeedbackReport,
        *,
        disagreement_threshold: float | None = None,
        snapshot_path: str | None = None,
    ):
        self.report = report
        self.disagreement_threshold = (
            float(disagreement_threshold) if disagreement_threshold is not None else float(report.threshold)
        )
        self.queue = LabelingQueue(snapshot_path=snapshot_path)

    def evaluate(self, X: np.ndarray, member_stack: np.ndarray) -> dict[str, np.ndarray]:
        """Flag uncertain points in one batch; feed flagged ones to the queue.

        Returns per-point arrays: ``in_region`` (subspace membership),
        ``disagreement`` (live committee std), and ``uncertain``
        (the OR of membership and above-threshold disagreement — the
        ``in_uncertain_region`` flag each response carries).
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        in_region = (
            self.report.region.contains(X) if self.report.region else np.zeros(X.shape[0], dtype=bool)
        )
        disagreement = committee_disagreement(member_stack)
        uncertain = in_region | (disagreement > self.disagreement_threshold)
        for index in np.flatnonzero(uncertain):
            self.queue.offer(
                {
                    "point": X[index].tolist(),
                    "in_feedback_region": bool(in_region[index]),
                    "disagreement": float(disagreement[index]),
                }
            )
        return {"in_region": in_region, "disagreement": disagreement, "uncertain": uncertain}
