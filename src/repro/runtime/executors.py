"""Pluggable task executors: serial and process-pool, one contract.

Both executors implement ``run(tasks, propagate_errors=...)`` and return
results **in task order**, regardless of completion order.  Because
every task carries its randomness as an explicit seed path (see
:mod:`repro.runtime.task`), the two executors — and any submission order —
produce bitwise-identical results; the determinism suite pins this.

Failure policy (shared): a task runs once, and a task that raises fails
with a :class:`~repro.runtime.task.TaskError` naming the task and its
cause.  The error is raised — unless ``propagate_errors=False``, in which
case it is *returned* on the outcome's ``error`` field and the rest of the
batch keeps running.  That is how a sharded experiment grid survives one
poisoned cell without losing every other cell's work.

The process executor degrades gracefully: if the worker pool cannot start
(sandboxes without semaphores, fork bombsquad limits), a payload cannot
be pickled, or the pool breaks, the affected work runs serially in-process
instead of failing — same results, just slower.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Sequence

from ..exceptions import ValidationError
from .clock import Stopwatch
from .task import Task, TaskError, execute_task

__all__ = ["TaskOutcome", "SerialExecutor", "ProcessExecutor"]


@dataclass(frozen=True)
class TaskOutcome:
    """One task's result plus its duration.

    ``error`` is ``None`` for a successful task; under
    ``propagate_errors=False`` a failed task comes back with ``value
    None`` and its :class:`~repro.runtime.task.TaskError` here instead of
    raising.
    """

    value: Any
    duration: float
    error: TaskError | None = None


def _is_transport_error(error: BaseException) -> bool:
    """True when ``error`` means the *payload could not travel*, not that
    the task failed: running in-process is then exactly equivalent."""
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, (TypeError, AttributeError)) and "pickle" in str(error).lower()


def _failed(task: Task, error: Exception, duration: float, propagate_errors: bool) -> TaskOutcome:
    failure = TaskError(f"task '{task.describe()}' failed: {error!r}", task_label=task.describe())
    if propagate_errors:
        raise failure from error
    return TaskOutcome(value=None, duration=duration, error=failure)


class SerialExecutor:
    """Run tasks one by one in the submitting process.

    The reference executor: zero pickling, zero processes, and the
    behaviour every other executor must reproduce bitwise.
    """

    def run(self, tasks: Sequence[Task], *, propagate_errors: bool = True) -> list[TaskOutcome]:
        return [self._run_one(task, propagate_errors) for task in tasks]

    def _run_one(self, task: Task, propagate_errors: bool) -> TaskOutcome:
        watch = Stopwatch()
        try:
            value = execute_task(task.fn_name, task.payload, task.seed_path)
        except Exception as error:  # deliberate: any task failure is reported, not crashed on
            return _failed(task, error, watch.elapsed(), propagate_errors)
        return TaskOutcome(value=value, duration=watch.elapsed())


def _terminate_workers(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes, so a task still running ends with its run.

    ``shutdown(cancel_futures=True)`` cannot stop a task that is already
    running: its worker process, and the pool's queue-feeder and manager
    threads, would live on until the task ended by itself.  Python 3.11
    has no public way to kill the workers (``terminate_workers`` arrives
    in 3.14), so this reaches into the pool's private ``_processes`` map.
    """
    for process in list((pool._processes or {}).values()):
        process.terminate()


class ProcessExecutor:
    """Run tasks on a ``ProcessPoolExecutor`` with ``max_workers`` workers.

    Results come back in task order.  Determinism needs no coordination:
    workers rebuild each task's generator from its seed path, so schedule,
    interleaving, and worker identity cannot leak into results.
    """

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def run(self, tasks: Sequence[Task], *, propagate_errors: bool = True) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.max_workers)
        except (OSError, PermissionError, ValueError) as error:
            warnings.warn(
                f"process pool unavailable ({error!r}); degrading to serial execution",
                UserWarning,
                stacklevel=2,
            )
            return SerialExecutor().run(tasks, propagate_errors=propagate_errors)
        try:
            return self._run_pooled(pool, tasks, propagate_errors)
        finally:
            # By now every worker is idle or holds work the caller has given
            # up on (a failure is propagating), so killing them loses
            # nothing; once they are gone, waiting for the pool's threads to
            # exit cannot hang.
            _terminate_workers(pool)
            pool.shutdown(wait=True, cancel_futures=True)

    def _run_pooled(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        tasks: list[Task],
        propagate_errors: bool,
    ) -> list[TaskOutcome]:
        serial = SerialExecutor()
        watch = Stopwatch()
        futures: list[concurrent.futures.Future | None] = []
        for task in tasks:
            try:
                futures.append(pool.submit(execute_task, task.fn_name, task.payload, task.seed_path))
            except (pickle.PicklingError, TypeError, AttributeError, RuntimeError) as error:
                # Unpicklable payload (or a pool that died): this task
                # cannot travel — run it in-process with identical
                # semantics instead of failing the batch.
                warnings.warn(
                    f"task '{task.describe()}' cannot be submitted to the pool "
                    f"({error!r}); running it serially",
                    UserWarning,
                    stacklevel=2,
                )
                futures.append(None)

        outcomes: list[TaskOutcome] = []
        pool_broke = False
        for task, future in zip(tasks, futures):
            if future is None:
                outcomes.append(serial._run_one(task, propagate_errors))
                continue
            try:
                value = future.result()
            except concurrent.futures.process.BrokenProcessPool as error:
                # The pool is gone; every task it did not finish runs
                # serially (deterministically identical).
                if not pool_broke:
                    pool_broke = True
                    warnings.warn(
                        f"worker pool broke ({error!r}); finishing remaining tasks serially",
                        UserWarning,
                        stacklevel=2,
                    )
                outcomes.append(serial._run_one(task, propagate_errors))
            except Exception as error:  # deliberate: any task failure is reported, not crashed on
                if not _is_transport_error(error):
                    outcomes.append(_failed(task, error, watch.elapsed(), propagate_errors))
                    continue
                warnings.warn(
                    f"task '{task.describe()}' payload cannot cross the process "
                    f"boundary ({error!r}); running it serially",
                    UserWarning,
                    stacklevel=2,
                )
                outcomes.append(serial._run_one(task, propagate_errors))
            else:
                outcomes.append(TaskOutcome(value=value, duration=watch.elapsed()))
        return outcomes
