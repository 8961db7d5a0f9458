"""Shard an experiment grid (repeats × strategies) through the runtime.

``run_table1`` and ``run_ucl`` are the same shape of computation: generate
a dataset, split it per repeat, fit one initial AutoML per repeat, then
run every (repeat, strategy) cell independently.  This module is that
shape, expressed as three task waves:

1. **datasets** — ``repro.experiments.tasks:*_dataset`` tasks (the
   netsim-heavy part; content-addressed, so a warm cache skips emulation);
2. **initial fits** — one ``automl.fit`` task per repeat;
3. **cells** — one ``repro.experiments.tasks:grid_cell`` task per
   (repeat, strategy) pair, each with its own seed path.

Seed-path layout: every repeat owns a root seed drawn from the
experiment's master stream; a cell's path is ``(repeat_seed, _CELL_KEY,
strategy_key(name))``.  ``strategy_key`` hashes the strategy *name*, so a
cell's stream depends only on its identity — running a subset of
algorithms, adding new strategies to the registry, or reordering
submission cannot move any cell's randomness.

Failure policy (the graceful-degradation contract the failure-injection
tests pin): a failed initial fit drops its whole repeat (every algorithm
loses that repeat's scores, keeping the paired score arrays aligned); a
failed cell drops its algorithm from the significance table; both are
recorded in the result's metadata instead of crashing the run.  Only when
*nothing* survives does the original :class:`TaskError` propagate.

Because a failed task is never cached, a degraded run leaves a *partial*
cache behind: every healthy cell's artifact is on disk, the failed cells'
are not.  Re-running the same grid against that cache (the CLI's
``--resume`` flag) therefore re-submits only the failed/missing cells and
answers everything else from the cache; ``GridResult`` counts the
cache-resumed units (``resumed_initial_fits`` / ``resumed_cells``) so the
record shows how much of the run was replayed versus recomputed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..datasets.scream import LabeledDataset
from ..runtime import Provenance, Task, TaskError, TaskRuntime, task_key
from .tasks import GRID_CELL_TASK

__all__ = [
    "RepeatPlan",
    "strategy_key",
    "fetch_datasets",
    "clear_dataset_memo",
    "run_experiment_grid",
]

#: Spawn-key dimension separating grid-cell streams from everything else
#: derived from a repeat seed ("CELL" in ASCII).
_CELL_KEY = 0x43454C4C


def strategy_key(name: str) -> int:
    """Stable spawn-key entry for a strategy name.

    A 63-bit truncation of SHA-256 over the name: registration order and
    registry contents cannot shift it, so a strategy keeps the same random
    stream forever — the property the golden-master fixtures rely on.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class RepeatPlan:
    """One repeat's slice of the grid: its data splits and seeds."""

    repeat: int
    seed: int
    train: LabeledDataset
    pool: LabeledDataset
    test_sets: Sequence[LabeledDataset]
    initial_seed: int


@dataclass(frozen=True)
class CellFailure:
    """One degraded unit of the grid, for the experiment record."""

    repeat: int
    algorithm: str  # "*" when the whole repeat failed at the initial fit
    stage: str  # "initial_fit" | "cell"
    error: str

    def as_dict(self) -> dict[str, Any]:
        return {"repeat": self.repeat, "algorithm": self.algorithm, "stage": self.stage, "error": self.error}


@dataclass
class GridResult:
    """Collected grid scores plus the degradation bookkeeping."""

    collected: dict[str, list[float]]
    n_cells: int
    n_repeats: int
    failures: list[CellFailure] = field(default_factory=list)
    dropped_algorithms: list[str] = field(default_factory=list)
    failed_repeats: list[int] = field(default_factory=list)
    #: Units answered from the artifact cache instead of executing — the
    #: resume accounting: after a degraded-then-fixed rerun these say how
    #: much of the grid was replayed from disk.
    resumed_initial_fits: int = 0
    resumed_cells: int = 0
    #: Remote-store accounting when the runtime's cache is a
    #: ``RemoteCacheTier`` (``None`` otherwise): its ``remote_stats()``
    #: snapshot taken when the grid returns — remote hits, pushes (each
    #: finished before its ``store()`` returned), and whether the tier
    #: degraded to local-only mid-run.
    store: dict[str, Any] | None = None

    def metadata(self) -> dict[str, Any]:
        """The ``record.metadata["grid"]`` entry."""
        meta = {
            "sharding": "one runtime task per (repeat, strategy) cell",
            "n_repeats": self.n_repeats,
            "n_cells": self.n_cells,
            "failed_repeats": list(self.failed_repeats),
            "failed_cells": [f.as_dict() for f in self.failures],
            "dropped_algorithms": list(self.dropped_algorithms),
            "resumed_initial_fits": self.resumed_initial_fits,
            "resumed_cells": self.resumed_cells,
        }
        if self.store is not None:
            meta["store"] = dict(self.store)
        return meta


# In-process memo for generated datasets, keyed by task key.  Only
# consulted when the runtime has *no* artifact cache: it preserves the
# pre-shard behaviour of reusing an identical dataset across repeated
# in-process runs (tests, notebooks), while a cache-enabled runtime goes
# to the cache every time so its hit/store counters stay exact.
_DATASET_MEMO: dict[str, LabeledDataset] = {}


def fetch_datasets(runtime: TaskRuntime, tasks: Sequence[Task]) -> list[LabeledDataset]:
    """Wave 1: answer dataset-generation tasks, memoized when uncached.

    Dataset failures propagate — with no dataset there is nothing to
    degrade to.
    """
    use_memo = runtime.cache is None or runtime.cache_mode == "off"
    keys = [task_key(task) for task in tasks]
    values: list[Any] = [None] * len(tasks)
    missing = [
        index for index, key in enumerate(keys) if not (use_memo and key in _DATASET_MEMO)
    ]
    for index, key in enumerate(keys):
        if index not in missing:
            values[index] = _DATASET_MEMO[key]
    if missing:
        fetched = runtime.run([tasks[index] for index in missing])
        for index, value in zip(missing, fetched):
            values[index] = value
            if use_memo:
                _DATASET_MEMO[keys[index]] = value
    return values


def clear_dataset_memo() -> None:
    """Drop the in-process dataset memo.

    Benchmarks and isolation-sensitive tests call this between runs so an
    uncached regime pays its real dataset-generation cost instead of
    inheriting a neighbour's memoized copy.
    """
    _DATASET_MEMO.clear()


@dataclass(frozen=True)
class _Cell:
    repeat: int
    algorithm: str


def run_experiment_grid(
    runtime: TaskRuntime,
    plans: Sequence[RepeatPlan],
    algorithms: Sequence[str],
    *,
    factory: Any,
    n_feedback: int,
    cross_runs: int,
    feedback: Mapping[str, Any],
    oracle: Mapping[str, Any] | None,
    progress: Callable[[str], None] | None = None,
) -> GridResult:
    """Waves 2 and 3: per-repeat initial fits, then every grid cell.

    ``feedback`` is the plain-data ALE configuration each cell rebuilds
    (``threshold``/``threshold_scale``/``grid_size``); ``oracle`` is
    ``None`` for pool-only experiments or an ``{"engine": ...}`` spec.
    """
    say = progress or (lambda message: None)
    plans = list(plans)
    algorithms = list(algorithms)

    def cache_hits() -> int:
        return int(runtime.stats["cache_hits"])

    say(f"fitting {len(plans)} initial AutoML model(s)")
    hits_before_fits = cache_hits()
    initial_tasks = [
        Task(
            fn_name="automl.fit",
            payload={"factory": factory, "X": plan.train.X, "y": plan.train.y},
            seed_path=(plan.initial_seed,),
            label=f"initial[repeat {plan.repeat}]",
        )
        for plan in plans
    ]
    initials = runtime.run(initial_tasks, return_failures=True)
    resumed_initial_fits = cache_hits() - hits_before_fits

    failures: list[CellFailure] = []
    failed_repeats: list[int] = []
    first_error: TaskError | None = None
    live: list[tuple[RepeatPlan, Provenance]] = []
    for plan, fit_task, initial in zip(plans, initial_tasks, initials):
        if isinstance(initial, TaskError):
            first_error = first_error or initial
            failed_repeats.append(plan.repeat)
            failures.append(CellFailure(plan.repeat, "*", "initial_fit", str(initial)))
            say(f"  repeat {plan.repeat + 1}: initial fit FAILED ({initial}); dropping the repeat")
        else:
            # Tag the fitted model with its producing task's key: fitted
            # ensembles don't pickle canonically, so cell cache keys hash
            # this provenance, not the model bytes — a warm rerun therefore
            # addresses the same cell entries whether its initial model was
            # freshly fitted, pool-returned, or cache-loaded.
            live.append((plan, Provenance(task_key(fit_task), initial)))
    if not live:
        raise first_error  # every repeat lost its initial fit: nothing to degrade to

    cells: list[_Cell] = []
    cell_tasks: list[Task] = []
    for plan, initial in live:
        for name in algorithms:
            payload = {
                "strategy": name,
                "train": plan.train,
                "pool": plan.pool,
                "test_sets": list(plan.test_sets),
                "factory": factory,
                "initial_automl": initial,
                "n_feedback": n_feedback,
                "cross_runs": cross_runs,
                "feedback": dict(feedback),
                "oracle": dict(oracle) if oracle is not None else None,
            }
            cells.append(_Cell(plan.repeat, name))
            cell_tasks.append(
                Task(
                    fn_name=GRID_CELL_TASK,
                    payload=payload,
                    seed_path=(plan.seed, _CELL_KEY, strategy_key(name)),
                    label=f"cell[repeat {plan.repeat}, {name}]",
                )
            )
    say(f"running {len(cell_tasks)} grid cell(s): {len(live)} repeat(s) × {len(algorithms)} strategies")
    hits_before_cells = cache_hits()
    values = runtime.run(cell_tasks, return_failures=True)
    resumed_cells = cache_hits() - hits_before_cells
    if resumed_cells or resumed_initial_fits:
        say(f"  resumed from cache: {resumed_initial_fits} initial fit(s), {resumed_cells} cell(s)")

    collected: dict[str, list[float]] = {name: [] for name in algorithms}
    failed_algorithms: set[str] = set()
    for cell, value in zip(cells, values):
        if isinstance(value, TaskError):
            first_error = first_error or value
            failed_algorithms.add(cell.algorithm)
            failures.append(CellFailure(cell.repeat, cell.algorithm, "cell", str(value)))
            say(f"  repeat {cell.repeat + 1} {cell.algorithm}: FAILED ({value}); dropping the algorithm")
        else:
            collected[cell.algorithm].extend(value["scores"])
            detail = f"; {value['detail']}" if value["detail"] else ""
            say(
                f"  repeat {cell.repeat + 1} {cell.algorithm}: mean bacc "
                f"{float(np.mean(value['scores'])):.3f} (+{value['points_added']} pts{detail})"
            )

    kept = [name for name in algorithms if name not in failed_algorithms]
    if not kept:
        raise first_error  # every algorithm lost at least one cell
    # A RemoteCacheTier cache exposes remote_stats(); a plain ArtifactCache
    # (or no cache) does not — duck-typed so this layer never imports the
    # store layer above it.  Pushes finish inside each store() call, so
    # the snapshot already covers the whole run.
    store_stats = None
    if hasattr(type(runtime.cache), "remote_stats"):
        store_stats = runtime.cache.remote_stats()
    return GridResult(
        collected={name: collected[name] for name in kept},
        n_cells=len(cell_tasks),
        n_repeats=len(plans),
        failures=failures,
        dropped_algorithms=[name for name in algorithms if name in failed_algorithms],
        failed_repeats=failed_repeats,
        resumed_initial_fits=resumed_initial_fits,
        resumed_cells=resumed_cells,
        store=store_stats,
    )
