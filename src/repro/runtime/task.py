"""The runtime's unit of work: a :class:`Task` plus a function registry.

A task is *plain data*: the name of a registered function, a picklable
payload, and a :data:`~repro.rng.SeedPath` addressing the random stream it
may draw from.  Nothing about a task depends on where or when it runs —
that is the whole determinism contract.  Executors ship ``(fn_name,
payload, seed_path)`` tuples across process boundaries; the
worker resolves ``fn_name`` against the registry (every worker imports
:mod:`repro.runtime.tasks`, which registers the built-ins) and materializes
the generator from the seed path locally.

Two naming schemes coexist in the registry:

- plain names (``"automl.fit"``) for the built-ins registered by
  :mod:`repro.runtime.tasks`;
- qualified ``"package.module:function"`` names for *plugin* task families
  that live above the runtime in the import DAG (e.g.
  :mod:`repro.experiments.tasks`).  A worker that has not imported the
  plugin module resolves the name by importing the module part on demand,
  so upper layers can submit their own task functions without the runtime
  ever importing them.

A task runs once, on exactly its own seed path; a task that raises fails.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..exceptions import ReproError
from ..rng import SeedPath, generator_from_path

__all__ = [
    "Task",
    "TaskContext",
    "TaskError",
    "task",
    "resolve_task",
    "registered_tasks",
    "execute_task",
]


class TaskError(ReproError):
    """A task raised, or could not be registered or resolved."""

    def __init__(self, message: str, *, task_label: str = ""):
        super().__init__(message)
        self.task_label = task_label


@dataclass(frozen=True)
class Task:
    """One deterministic unit of work.

    ``fn_name`` names a registered task function; ``payload`` is the
    picklable argument mapping; ``seed_path`` addresses the task's random
    stream (empty for purely deterministic tasks).  ``label`` is for
    humans: progress lines, error messages, benchmark output.
    """

    fn_name: str
    payload: Mapping[str, Any]
    seed_path: SeedPath = ()
    label: str = ""

    def describe(self) -> str:
        return self.label or f"{self.fn_name}{list(self.seed_path)}"


@dataclass(frozen=True)
class TaskContext:
    """What a task function may know about its own execution.

    ``rng`` is the generator the seed path names (``None`` for seedless
    tasks).
    """

    rng: Any = None
    seed_path: SeedPath = ()


TaskFn = Callable[[Mapping[str, Any], TaskContext], Any]

_REGISTRY: dict[str, TaskFn] = {}


def task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Register a task function under ``name``.

    Task functions must live at module level in a module every worker
    imports (the built-ins live in :mod:`repro.runtime.tasks`); a worker
    process resolves tasks by name, so closures cannot cross the boundary.
    Qualified ``"module:function"`` names must be registered in exactly the
    module they point at — that is what lets :func:`resolve_task` import
    the module on demand in a worker that has never seen it.
    """

    def decorator(fn: TaskFn) -> TaskFn:
        if ":" in name:
            module_name = name.partition(":")[0]
            if module_name != getattr(fn, "__module__", None):
                raise TaskError(
                    f"qualified task {name!r} must be registered in module "
                    f"{module_name!r}, not {fn.__module__!r} — workers resolve "
                    "it by importing the module the name points at"
                )
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not fn:
            raise TaskError(f"duplicate task name {name!r}")
        _REGISTRY[name] = fn
        return fn

    return decorator


def resolve_task(name: str) -> TaskFn:
    """Look up a registered task function; raises :class:`TaskError` if absent.

    A qualified ``"module:function"`` name that is not yet registered
    triggers an import of its module part — registration happens at import
    time, so after the import the name resolves like any other.  This is
    how plugin task families (e.g. the experiment grid cells) reach worker
    processes without the runtime layer importing them.
    """
    fn = _REGISTRY.get(name)
    if fn is None and ":" in name:
        module_name = name.partition(":")[0]
        try:
            importlib.import_module(module_name)
        except ImportError as error:
            raise TaskError(
                f"task {name!r} names module {module_name!r}, which cannot "
                f"be imported: {error}"
            ) from error
        fn = _REGISTRY.get(name)
    if fn is None:
        raise TaskError(
            f"unknown task {name!r}; registered: {sorted(_REGISTRY)} "
            "(task functions must be registered at import time in repro.runtime.tasks, "
            "or under a qualified 'module:function' name a worker can import on demand)"
        )
    return fn


def registered_tasks() -> list[str]:
    """Names of all registered task functions."""
    return sorted(_REGISTRY)


def execute_task(fn_name: str, payload: Mapping[str, Any], seed_path: SeedPath) -> Any:
    """Run one task in the current process.

    This is the single entry point both executors use — the serial
    executor calls it inline, the process executor ships its arguments to
    a worker — so a task cannot behave differently depending on which
    executor ran it.
    """
    # Built-in tasks register on import; a spawned worker starts from a
    # blank registry, so make sure they are present before resolving.
    from . import tasks as _builtin_tasks  # noqa: F401

    fn = resolve_task(fn_name)
    rng = generator_from_path(seed_path) if seed_path else None
    return fn(payload, TaskContext(rng=rng, seed_path=seed_path))
