"""When to retrain, and how to make the refit a cache-addressable task.

The controller owns the two decisions that make the loop *deterministic*
rather than merely automatic:

- **trigger** — purely a function of serving counters (labeling-queue
  depth, uncertain-region hit rate), read from numbers the
  :class:`~repro.serve.MetricsRegistry` already exports.  No clocks, no
  randomness: replaying the same traffic trace triggers at the same
  request.
- **refit identity** — the retrain runs as one ``automl.fit`` task
  under the *fixed* seed path ``(retrain_seed, _RETRAIN_KEY)``.  The
  cache key therefore varies only with the payload — the merged training
  set and the spec — so a re-triggered retrain over identical queue
  contents is a pure cache hit returning a bitwise-identical model, on
  any executor.  The candidate is scored on the holdout afterwards, with
  the same :meth:`RetrainController.score` the incumbent gets.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

import numpy as np

from ..active import merge_labeled
from ..exceptions import ValidationError
from ..runtime import Task, TaskRuntime
from .config import LoopConfig

__all__ = ["RetrainController", "RetrainResult"]

#: Fixed spawn key for the retrain seed path — ASCII "LOOP".  Fixed on
#: purpose: a generation-indexed key would make every retrain's cache key
#: unique, defeating the identical-inputs-hit-the-cache contract.
_RETRAIN_KEY = 0x4C4F4F50


@dataclasses.dataclass(frozen=True)
class RetrainResult:
    """One refit's output: the candidate plus everything the gate needs.

    ``X``/``y`` are the augmented training set (base data plus the
    ``n_added`` deduplicated new labels) — the gate anchors the
    candidate's feedback analysis and ALE-drift comparison to them.
    ``refits`` counts actual task executions: 0 means the artifact cache
    answered (a re-triggered retrain over identical inputs).
    """

    model: Any
    score: float
    X: np.ndarray
    y: np.ndarray
    n_added: int
    refits: int


class RetrainController:
    """Decide when to retrain and run the refit through the task runtime.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.TaskRuntime` refits execute on; give
        it a cache to make re-triggered retrains free.
    spec:
        A picklable factory ``rng -> classifier`` (e.g.
        :class:`repro.automl.AutoMLSpec`) — picklable because the refit
        may cross a process boundary.
    X, y:
        The base training set every augmentation starts from.
    X_eval, y_eval:
        A fixed holdout; both candidate and incumbent are scored on it,
        so the gate's comparison is apples-to-apples.
    config:
        The loop policy (:class:`LoopConfig`).
    """

    def __init__(
        self,
        runtime: TaskRuntime,
        spec,
        X,
        y,
        X_eval,
        y_eval,
        *,
        config: LoopConfig | None = None,
    ):
        self.runtime = runtime
        self.spec = spec
        self.config = config if config is not None else LoopConfig()
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y)
        self.X_eval = np.asarray(X_eval, dtype=np.float64)
        self.y_eval = np.asarray(y_eval)
        if self.X.ndim != 2 or self.X_eval.ndim != 2:
            raise ValidationError("X and X_eval must be 2-dimensional")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValidationError(f"{self.X.shape[0]} rows but {self.y.shape[0]} labels")
        if self.X_eval.shape[0] != self.y_eval.shape[0]:
            raise ValidationError(
                f"{self.X_eval.shape[0]} eval rows but {self.y_eval.shape[0]} eval labels"
            )

    # -- trigger -----------------------------------------------------------

    def should_trigger(
        self, *, queue_depth: int, served_points: int, uncertain_points: int
    ) -> str | None:
        """The retrain trigger: a reason string, or ``None`` to stay idle.

        Fires when the labeling backlog reaches ``min_queue_depth``, or —
        once ``min_served_points`` points have been served — when the
        uncertain-region hit rate reaches ``uncertain_rate``.  Both paths
        require a non-empty queue: a retrain with nothing to ingest would
        refit the incumbent's own training set.
        """
        if queue_depth < 1:
            return None
        cfg = self.config
        if queue_depth >= cfg.min_queue_depth:
            return f"labeling queue depth {queue_depth} >= {cfg.min_queue_depth}"
        if served_points >= cfg.min_served_points:
            rate = uncertain_points / served_points
            if rate >= cfg.uncertain_rate:
                return (
                    f"uncertain-region hit rate {rate:.3f} >= {cfg.uncertain_rate} "
                    f"over {served_points} served points"
                )
        return None

    # -- ingest ------------------------------------------------------------

    def ingest(
        self, entries: Sequence[dict[str, Any]], oracle: Callable
    ) -> tuple[np.ndarray, np.ndarray]:
        """Label drained queue entries: ``oracle(X_new) -> y_new``.

        ``entries`` are :class:`~repro.serve.LabelingQueue` records (each
        carries a ``"point"``); the oracle stands in for the operator —
        an emulator, a measurement campaign, or a human labeling UI.
        """
        points = [entry["point"] for entry in entries if "point" in entry]
        if not points:
            return np.empty((0, self.X.shape[1])), np.empty((0,), dtype=self.y.dtype)
        X_new = np.asarray(points, dtype=np.float64)
        y_new = np.asarray(oracle(X_new))
        if y_new.shape[0] != X_new.shape[0]:
            raise ValidationError(
                f"oracle returned {y_new.shape[0]} labels for {X_new.shape[0]} points"
            )
        return X_new, y_new

    # -- refit -------------------------------------------------------------

    def retrain(self, X_new, y_new) -> RetrainResult:
        """Merge new labels and refit as one deterministic runtime task.

        The merge is :func:`repro.active.merge_labeled` (order-stable,
        deduplicated), so the task payload — and therefore the cache key
        — is a pure function of (base set, drained labels in order).
        """
        X_aug, y_aug, n_added = merge_labeled(self.X, self.y, X_new, y_new)
        task = Task(
            "automl.fit",
            {"factory": self.spec, "X": X_aug, "y": y_aug},
            seed_path=(self.config.retrain_seed, _RETRAIN_KEY),
            label=f"loop.retrain[+{n_added}]",
        )
        before = self.runtime.executions_of("automl.fit")
        [model] = self.runtime.run([task])
        refits = self.runtime.executions_of("automl.fit") - before
        return RetrainResult(
            model=model,
            score=self.score(model),
            X=X_aug,
            y=y_aug,
            n_added=n_added,
            refits=refits,
        )

    def score(self, automl) -> float:
        """Mean accuracy of a fitted model on the controller's holdout."""
        predictions = np.asarray(automl.predict(self.X_eval))
        return float(np.mean(predictions == self.y_eval))
