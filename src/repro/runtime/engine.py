"""The runtime façade: one entry point tying executor and cache together.

:class:`TaskRuntime` is what upper layers hold: ``run(tasks)`` answers
every task — from cache when the artifact exists, from the configured
executor otherwise — and returns values in task order.  The runtime is a
bottom layer: it imports only ``rng`` and ``exceptions``.  Layers above
hand it what it needs — task functions register by name, and a remote
store tier (``repro.store.RemoteCacheTier``) is passed in as ``cache``.

Cache modes:

- ``"off"``  — every task executes (the default; no disk is touched);
- ``"on"``   — look up before executing, store after;
- ``"refresh"`` — ignore existing entries but overwrite them with fresh
  results (the escape hatch for a stale or distrusted cache).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..exceptions import ValidationError
from .cache import ArtifactCache, task_key
from .executors import ProcessExecutor, SerialExecutor, TaskOutcome
from .task import Task

__all__ = ["TaskRuntime", "default_runtime", "CACHE_MODES"]

CACHE_MODES = ("on", "off", "refresh")


class TaskRuntime:
    """Deterministic task execution with optional artifact caching.

    Parameters
    ----------
    executor:
        A :class:`SerialExecutor` (default) or :class:`ProcessExecutor`;
        anything with the same ``run(tasks, timeout=..., retries=...)``
        contract works.
    cache:
        An :class:`ArtifactCache` (or a ``repro.store.RemoteCacheTier``
        wrapping one), or ``None`` for no caching.
    cache_mode:
        ``"on"``, ``"off"`` or ``"refresh"`` (see module docstring).
    timeout, retries:
        Per-task attempt budget in seconds (``None`` = unbounded) and the
        number of deterministic-seed retries after a failed attempt.
    """

    def __init__(
        self,
        executor=None,
        *,
        cache: ArtifactCache | None = None,
        cache_mode: str = "on",
        timeout: float | None = None,
        retries: int = 0,
    ):
        if cache_mode not in CACHE_MODES:
            raise ValidationError(f"cache_mode must be one of {CACHE_MODES}, got {cache_mode!r}")
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.cache_mode = cache_mode if cache is not None else "off"
        self.timeout = timeout
        self.retries = retries
        self.reset_stats()

    # -- bookkeeping -------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats: dict[str, Any] = {
            "executed": 0,
            "cache_hits": 0,
            "cache_stores": 0,
            "executed_by_fn": {},
            "attempts": 0,
            "task_seconds": 0.0,
            "failed": 0,
        }

    def _count_execution(self, task: Task, outcome: TaskOutcome) -> None:
        self.stats["executed"] += 1
        self.stats["attempts"] += outcome.attempts
        self.stats["task_seconds"] += outcome.duration
        by_fn = self.stats["executed_by_fn"]
        by_fn[task.fn_name] = by_fn.get(task.fn_name, 0) + 1

    def executions_of(self, fn_name: str) -> int:
        """How many tasks of ``fn_name`` actually executed (cache hits excluded)."""
        return int(self.stats["executed_by_fn"].get(fn_name, 0))

    # -- execution ---------------------------------------------------------

    def run(self, tasks: Sequence[Task], *, return_failures: bool = False) -> list[Any]:
        """Answer every task; results in task order.

        Cache hits never execute; misses go to the executor in one batch
        (preserving whatever parallelism it offers) and are stored on the
        way out.

        With ``return_failures=True`` a task whose retries are exhausted
        does not abort the batch: its slot in the result list holds the
        :class:`~repro.runtime.task.TaskError` instead of a value (check
        with ``isinstance``), the failure is counted in ``stats["failed"]``,
        and — crucially — nothing is cached for it, so a rerun retries it.
        """
        tasks = list(tasks)
        values: list[Any] = [None] * len(tasks)
        to_run: list[int] = []
        keys: dict[int, str] = {}
        use_cache = self.cache is not None and self.cache_mode != "off"
        for index, task in enumerate(tasks):
            if not use_cache:
                to_run.append(index)
                continue
            keys[index] = task_key(task)
            if self.cache_mode == "on":
                hit, value = self.cache.load(keys[index])
                if hit:
                    self.stats["cache_hits"] += 1
                    values[index] = value
                    continue
            to_run.append(index)
        if to_run:
            run_kwargs: dict[str, Any] = {"timeout": self.timeout, "retries": self.retries}
            if return_failures:
                # Only passed when needed: any executor honouring the plain
                # run(tasks, timeout=..., retries=...) contract still works
                # on the default (propagating) path.
                run_kwargs["propagate_errors"] = False
            outcomes = self.executor.run([tasks[index] for index in to_run], **run_kwargs)
            for index, outcome in zip(to_run, outcomes):
                if outcome.error is not None:
                    values[index] = outcome.error
                    self.stats["failed"] += 1
                    self.stats["attempts"] += outcome.attempts
                    self.stats["task_seconds"] += outcome.duration
                    continue
                values[index] = outcome.value
                self._count_execution(tasks[index], outcome)
                if use_cache:
                    self.cache.store(keys[index], outcome.value)
                    self.stats["cache_stores"] += 1
        return values

    def run_one(self, task: Task) -> Any:
        """Convenience wrapper: ``run([task])[0]``."""
        return self.run([task])[0]


def default_runtime() -> TaskRuntime:
    """The implicit runtime: serial, uncached — today's behaviour, made explicit.

    A fresh instance per call: the default runtime is a semantic constant,
    not shared mutable state, so callers that count executions construct
    and hold their own :class:`TaskRuntime`.
    """
    return TaskRuntime(SerialExecutor())
