"""Deterministic parallel execution engine with a content-addressed cache.

The substrate the experiment harness and the retraining loop schedule on
(DESIGN.md §3, "runtime" layer).  It is a bottom layer: it imports only
``rng`` and ``exceptions``, and everything above reaches it through
registered task names and an injected cache.  Three ideas, three modules:

- **tasks as data** (:mod:`~repro.runtime.task`): a :class:`Task` names a
  registered function, a picklable payload, and an explicit seed path —
  so a result is a pure function of the task, not of where/when it ran;
- **pluggable executors** (:mod:`~repro.runtime.executors`):
  :class:`SerialExecutor` and :class:`ProcessExecutor` share one
  ``run(tasks, propagate_errors=...)`` contract, run each task once and
  produce bitwise identical results; the pool degrades gracefully to
  serial when it cannot start, breaks, or a payload cannot travel;
- **content-addressed artifacts** (:mod:`~repro.runtime.cache`): fitted
  ensembles, datasets and grid cells persist under SHA-256 keys of (function,
  payload digest, seed path, format salt), with atomic writes and
  corruption-tolerant reads.

:class:`TaskRuntime` ties them together; ``python -m repro ... --workers N
--cache on`` and ``python -m repro cache`` expose it on the CLI.
"""

from .cache import (
    ArtifactCache,
    CACHE_SALT,
    PUBLISH_SALT,
    Provenance,
    default_cache_dir,
    digest_payload,
    task_key,
)
from .engine import CACHE_MODES, TaskRuntime, default_runtime
from .executors import ProcessExecutor, SerialExecutor, TaskOutcome
from .task import Task, TaskContext, TaskError, registered_tasks, task

__all__ = [
    "Task",
    "TaskContext",
    "TaskError",
    "task",
    "registered_tasks",
    "SerialExecutor",
    "ProcessExecutor",
    "TaskOutcome",
    "TaskRuntime",
    "default_runtime",
    "CACHE_MODES",
    "ArtifactCache",
    "default_cache_dir",
    "digest_payload",
    "task_key",
    "Provenance",
    "CACHE_SALT",
    "PUBLISH_SALT",
]
