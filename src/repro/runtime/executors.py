"""Pluggable task executors: serial and process-pool, one contract.

Both executors implement ``run(tasks, timeout=..., retries=...)`` and
return results **in task order**, regardless of completion order.  Because
every task carries its randomness as an explicit seed path (see
:mod:`repro.runtime.task`), the two executors — and any submission order —
produce bitwise-identical results; the determinism suite pins this.

Failure policy (shared):

- an attempt that raises is retried up to ``retries`` times, each retry on
  a fresh-but-deterministic seed path derived from the task's own path;
- an attempt that exceeds ``timeout`` seconds counts as a failure and is
  retried the same way (the serial executor cannot preempt a running
  task, so it detects overruns after the fact; the process executor stops
  waiting at the deadline);
- exhausted tasks raise :class:`~repro.runtime.task.TaskError` (or
  :class:`~repro.runtime.task.TaskTimeoutError` when the last failure was
  a timeout) — unless ``propagate_errors=False``, in which case the
  exhaustion error is *returned* on the outcome's ``error`` field and the
  rest of the batch keeps running.  That is how a sharded experiment grid
  survives one poisoned cell without losing every other cell's work.

The process executor degrades gracefully: if the worker pool cannot start
(sandboxes without semaphores, fork bombsquad limits) or a payload cannot
be pickled, the affected work runs serially in-process instead of failing
— same results, just slower.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Sequence

from ..exceptions import ValidationError
from .clock import Deadline, Stopwatch
from .task import Task, TaskError, TaskTimeoutError, execute_attempt

__all__ = ["TaskOutcome", "SerialExecutor", "ProcessExecutor"]


@dataclass(frozen=True)
class TaskOutcome:
    """One task's result plus execution bookkeeping.

    ``error`` is ``None`` for a successful task; under
    ``propagate_errors=False`` an exhausted task comes back with ``value
    None`` and its :class:`~repro.runtime.task.TaskError` here instead of
    raising.
    """

    value: Any
    attempts: int
    duration: float
    executor: str
    error: TaskError | None = None


def _validate_run_args(tasks: Sequence[Task], timeout: float | None, retries: int) -> list[Task]:
    tasks = list(tasks)
    if timeout is not None and timeout <= 0:
        raise ValidationError(f"timeout must be positive or None, got {timeout}")
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    return tasks


def _is_transport_error(error: BaseException) -> bool:
    """True when ``error`` means the *payload could not travel*, not that
    the task failed: retrying over the same broken transport is pointless,
    but running in-process is exactly equivalent."""
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, (TypeError, AttributeError)) and "pickle" in str(error).lower()


def _exhausted(task: Task, attempts: int, last_error: BaseException, timed_out: bool) -> TaskError:
    kind = TaskTimeoutError if timed_out else TaskError
    reason = "timed out" if timed_out else f"failed: {last_error!r}"
    return kind(
        f"task '{task.describe()}' {reason} after {attempts} attempt(s)",
        task_label=task.describe(),
        attempts=attempts,
    )


class SerialExecutor:
    """Run tasks one by one in the submitting process.

    The reference executor: zero pickling, zero processes, and the
    behaviour every other executor must reproduce bitwise.
    """

    name = "serial"

    def run(
        self,
        tasks: Sequence[Task],
        *,
        timeout: float | None = None,
        retries: int = 0,
        propagate_errors: bool = True,
    ) -> list[TaskOutcome]:
        tasks = _validate_run_args(tasks, timeout, retries)
        outcomes: list[TaskOutcome] = []
        for task in tasks:
            outcomes.append(self._run_one(task, timeout, retries, propagate_errors))
        return outcomes

    def _run_one(
        self, task: Task, timeout: float | None, retries: int, propagate_errors: bool = True
    ) -> TaskOutcome:
        watch = Stopwatch()
        last_error: BaseException = TaskError("no attempts made")
        timed_out = False
        for attempt in range(retries + 1):
            deadline = Deadline(timeout)
            try:
                value = execute_attempt(task.fn_name, task.payload, task.seed_path, attempt)
            except Exception as error:  # deliberate: any task failure is retryable
                last_error, timed_out = error, False
                continue
            if deadline.exceeded():
                # A serial executor cannot preempt; surface the overrun
                # with the same semantics the process pool would apply.
                last_error, timed_out = TaskTimeoutError(f"attempt exceeded {timeout}s"), True
                continue
            return TaskOutcome(value=value, attempts=attempt + 1, duration=watch.elapsed(), executor=self.name)
        failure = _exhausted(task, retries + 1, last_error, timed_out)
        if propagate_errors:
            raise failure
        return TaskOutcome(
            value=None, attempts=retries + 1, duration=watch.elapsed(), executor=self.name, error=failure
        )


def _terminate_workers(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes, so an overrunning task ends with its run.

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

    name = "process"

    def run(
        self,
        tasks: Sequence[Task],
        *,
        timeout: float | None = None,
        retries: int = 0,
        propagate_errors: bool = True,
    ) -> list[TaskOutcome]:
        tasks = _validate_run_args(tasks, timeout, retries)
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
            return SerialExecutor().run(
                tasks, timeout=timeout, retries=retries, propagate_errors=propagate_errors
            )
        try:
            return self._run_pooled(pool, tasks, timeout, retries, propagate_errors)
        finally:
            # By now every worker is idle or holds work the caller has given
            # up on, so killing them loses nothing; once they are gone,
            # waiting for the pool's threads to exit cannot hang.
            _terminate_workers(pool)
            pool.shutdown(wait=True, cancel_futures=True)

    def _run_pooled(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        tasks: list[Task],
        timeout: float | None,
        retries: int,
        propagate_errors: bool = True,
    ) -> list[TaskOutcome]:
        serial = SerialExecutor()
        watches = [Stopwatch() for _ in tasks]
        pending = {index: 0 for index in range(len(tasks))}  # index -> next attempt
        futures: dict[int, concurrent.futures.Future] = {}
        outcomes: dict[int, TaskOutcome] = {}
        last_errors: dict[int, tuple[BaseException, bool]] = {}

        def submit(index: int, attempt: int) -> None:
            task = tasks[index]
            try:
                futures[index] = pool.submit(
                    execute_attempt, task.fn_name, task.payload, task.seed_path, attempt
                )
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
                outcomes[index] = serial._run_one(task, timeout, retries, propagate_errors)
                futures.pop(index, None)
                pending.pop(index, None)

        for index in list(pending):
            submit(index, 0)

        while futures:
            for index in sorted(futures):
                future = futures.pop(index)
                task = tasks[index]
                attempt = pending[index]
                try:
                    value = future.result(timeout=timeout)
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    last_errors[index] = (TaskTimeoutError(f"attempt exceeded {timeout}s"), True)
                except concurrent.futures.process.BrokenProcessPool as error:
                    # The pool is gone; everything still pending must
                    # finish serially (deterministically identical).
                    warnings.warn(
                        f"worker pool broke ({error!r}); finishing remaining tasks serially",
                        UserWarning,
                        stacklevel=2,
                    )
                    for fallback_index in sorted({index, *futures}):
                        futures.pop(fallback_index, None)
                        pending.pop(fallback_index, None)
                        outcomes[fallback_index] = serial._run_one(
                            tasks[fallback_index], timeout, retries, propagate_errors
                        )
                    break
                except Exception as error:  # deliberate: failures are retryable
                    if _is_transport_error(error):
                        warnings.warn(
                            f"task '{task.describe()}' payload cannot cross the process "
                            f"boundary ({error!r}); running it serially",
                            UserWarning,
                            stacklevel=2,
                        )
                        pending.pop(index, None)
                        outcomes[index] = serial._run_one(task, timeout, retries, propagate_errors)
                        continue
                    last_errors[index] = (error, False)
                else:
                    pending.pop(index, None)
                    outcomes[index] = TaskOutcome(
                        value=value,
                        attempts=attempt + 1,
                        duration=watches[index].elapsed(),
                        executor=self.name,
                    )
                    continue
                if index not in pending:
                    continue
                if attempt >= retries:
                    error, timed_out = last_errors[index]
                    failure = _exhausted(task, attempt + 1, error, timed_out)
                    if propagate_errors:
                        raise failure
                    pending.pop(index, None)
                    outcomes[index] = TaskOutcome(
                        value=None,
                        attempts=attempt + 1,
                        duration=watches[index].elapsed(),
                        executor=self.name,
                        error=failure,
                    )
                    continue
                pending[index] = attempt + 1
                submit(index, attempt + 1)

        return [outcomes[index] for index in range(len(tasks))]
