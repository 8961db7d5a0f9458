"""The two cold experiment-grid workloads.

``grid_scream`` runs the paper's Table-1 grid (:func:`run_table1`, all
nine strategies) and ``grid_firewall`` the §4.2 grid (:func:`run_ucl`,
``UCL_ALGORITHMS``).  Both run on the default serial, uncached
:class:`TaskRuntime` with no timeout and no AutoML time budget, so every
input is deterministic and every repetition is cold: the in-process
dataset memo is cleared before each one.

Inputs.  The workload seed picks one of :data:`N_CONFIGS` grid seeds,
``base + 10 * (seed % N_CONFIGS)``.  ``reference.json`` holds, for each
of them, the digest of every strategy's score array and the grid's
median time at reference host speed, both recorded at the commit that
defined this benchmark (``record_reference.py`` regenerates them).

Why times are divided by a per-grid reference.  Which model families the
AutoML search draws depends on the seed, and a gradient-boosting draw
costs a hundred times a naive-Bayes one, so grids of different seeds
differ in cost by up to 6x.  Each repetition's time is therefore
reported as its ratio to the reference time of the same grid, times the
mean reference time of all grids: the result is in seconds of an
average grid, and a program change that makes every grid 20% faster
lowers it by 20% whichever seed is run.

The operation the end-to-end latencies count is one cold grid.  A grid
task (dataset, initial fit or cell) is the unit of ``ok_share``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

from repro.experiments import Table1Config, run_table1
from repro.experiments.grid import clear_dataset_memo
from repro.experiments.table1 import TABLE1_ALGORITHMS
from repro.experiments.ucl import UCL_ALGORITHMS, UCLConfig, run_ucl
from repro.runtime import SerialExecutor, TaskRuntime
from repro.runtime.clock import monotonic

import layers
from report import Workload, percentile_tail
from tracing import Span, Tracer, by_name, totals

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Grid seeds a workload seed can map to (each has a reference entry).
N_CONFIGS = 32
#: Set-up repeats the warm-up grid this many times and keeps the median.
SETUP_ROUNDS = 3
#: A cold grid that takes longer than this (raw seconds) misses its limit.
GRID_LIMIT_S = 60.0

SCREAM_CONFIG = dict(
    n_train=30,
    n_test=40,
    n_pool=30,
    n_feedback=6,
    n_test_sets=4,
    n_repeats=1,
    cross_runs=2,
    automl_iterations=4,
    ensemble_size=3,
    min_distinct_members=2,
    grid_size=8,
)
FIREWALL_CONFIG = dict(
    n_samples=100,
    n_feedback=8,
    n_test_sets=4,
    n_resplits=1,
    cross_runs=2,
    automl_iterations=4,
    ensemble_size=3,
    min_distinct_members=2,
    grid_size=8,
)
BASE_SEED = {"grid_scream": 20211110, "grid_firewall": 20211111}


def grid_seed(workload: str, seed: int) -> int:
    return BASE_SEED[workload] + 10 * (seed % N_CONFIGS)


def warmup_seed(workload: str) -> int:
    """The warm-up grid's seed: fixed, and outside the timed set."""
    return BASE_SEED[workload] - 10


def run_grid(workload: str, seed: int):
    """One cold grid; returns ``(table, record, runtime)``."""
    clear_dataset_memo()
    runtime = TaskRuntime(SerialExecutor())
    if workload == "grid_scream":
        config = Table1Config(**SCREAM_CONFIG, seed=seed)
        table, record = run_table1(config, algorithms=list(TABLE1_ALGORITHMS), runtime=runtime)
    else:
        config = UCLConfig(**FIREWALL_CONFIG, seed=seed)
        table, record = run_ucl(config, algorithms=list(UCL_ALGORITHMS), runtime=runtime)
    return table, record, runtime


def algorithms_of(workload: str) -> list[str]:
    return list(TABLE1_ALGORITHMS if workload == "grid_scream" else UCL_ALGORITHMS)


def score_digest(table) -> str:
    """SHA-256 over every strategy's name and score array, bitwise."""
    digest = hashlib.sha256()
    for name in table.names():
        digest.update(name.encode("utf-8"))
        digest.update(table.scores(name).scores.astype("<f8").tobytes())
    return digest.hexdigest()


def grid_problems(workload: str, table, record) -> list[str]:
    """Degradation the grid metadata reports; a clean grid has none."""
    meta = record.metadata["grid"]
    problems = []
    if meta["dropped_algorithms"]:
        problems.append(f"dropped algorithms {meta['dropped_algorithms']}")
    if meta["failed_repeats"] or meta["failed_cells"]:
        problems.append(f"failed repeats {meta['failed_repeats']} / cells {meta['failed_cells']}")
    if table.names() != algorithms_of(workload):
        problems.append(f"table rows {table.names()} != {algorithms_of(workload)}")
    return problems


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload, {})


def summarize_trace(spans: list[Span], rep_s: float, names) -> dict[str, float]:
    """Per-layer figures of one traced grid repetition."""
    out = dict.fromkeys(names, 0.0)
    fluid = by_name(spans, "netsim.fluid")
    out["netsim.fluid.calls"] = len(fluid)
    out["netsim.fluid.busy_s"] = sum(span.duration for span in fluid)
    out["netsim.fluid.share"] = out["netsim.fluid.busy_s"] / rep_s
    out["datasets.scream_generate.busy_s"] = sum(s.duration for s in by_name(spans, "datasets.scream_generate"))
    out["datasets.firewall_generate.busy_s"] = sum(
        s.duration for s in by_name(spans, "datasets.firewall_generate")
    )
    in_cells = [s for s in by_name(spans, "datasets.oracle_label") if not s.has_ancestor("datasets.scream_generate")]
    out["datasets.oracle_label.calls"] = len(in_cells)
    out["datasets.oracle_label.rows"] = sum(s.info["rows"] for s in in_cells)
    out["datasets.oracle_label.busy_s"] = sum(s.duration for s in in_cells)
    fits = by_name(spans, "automl.fit")
    out["automl.fit.calls"] = len(fits)
    out["automl.fit.self_s"] = sum(s.self_s for s in fits)
    out["automl.candidates"] = sum(s.info["candidates"] for s in fits)
    proba = [s for s in by_name(spans, "ml.predict_proba") if not s.has_ancestor("ml.predict_proba")]
    out["ml.predict_proba.calls"] = len(proba)
    out["ml.predict_proba.rows"] = sum(s.info["rows"] for s in proba)
    out["ml.predict_proba.busy_s"] = sum(s.duration for s in proba)
    ale = by_name(spans, "core.ale_analyze")
    out["core.ale_analyze.calls"] = len(ale)
    out["core.ale_analyze.self_s"] = sum(s.self_s for s in ale)
    for span in by_name(spans, "runtime.run"):
        if span.has_ancestor("runtime.run"):
            continue  # fits submitted from inside a cell belong to the cell
        fns = span.info["fns"]
        wave = "datasets" if all(fn.endswith("_dataset") for fn in fns) else (
            "fits" if fns == {"automl.fit"} else "cells"
        )
        out[f"runtime.wave.{wave}.s"] += span.duration
    for span in by_name(spans, "experiments.strategy"):
        out[f"experiments.strategy.{span.info['strategy']}.s"] += span.duration
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Workload:
    """Set up, then time cold grids for ``seconds``; see the module docstring."""
    reference = load_reference(workload)
    timed_seed = grid_seed(workload, seed)
    result = Workload()
    tracer = Tracer()

    # Set-up: the warm-up grid, SETUP_ROUNDS times; the median round counts.
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = monotonic()
        table, record, _ = run_grid(workload, warmup_seed(workload))
        rounds.append(ctx.sampler.reference_seconds(start, monotonic()))
        problems = grid_problems(workload, table, record)
        result.check(not problems, f"warm-up grid degraded: {problems}")
        result.check(
            reference.get("warmup_digest") == score_digest(table),
            "warm-up grid scores differ from the reference digest",
        )
    result.setup_s = ctx.import_s + statistics.median(rounds)

    rep_ref_s: list[float] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    calib: list[float] = []
    layer_sums = dict.fromkeys(ctx.per_layer_units, 0.0)
    traced_spans: list[Span] = []
    digests: set[str] = set()
    # Start another repetition only if it should end within ``seconds``.
    timed_end = monotonic() + seconds
    last_s = 0.0
    while len(rep_ref_s) < 2 or monotonic() + last_s <= timed_end:
        traced = trace and len(rep_ref_s) % 4 in (1, 2)  # U T T U: balances drift
        if traced:
            layers.install(tracer)
        start = monotonic()
        try:
            table, record, runtime = run_grid(workload, timed_seed)
        finally:
            end = monotonic()
            tracer.unwrap()
        spans = tracer.take()
        last_s = end - start
        ref_s = ctx.sampler.reference_seconds(start, end)
        calib.append(ctx.sampler.mean_probe_ms(start, end))
        rep_ref_s.append(ref_s)
        (traced_s if traced else untraced_s).append(ref_s)

        problems = grid_problems(workload, table, record)
        result.check(not problems, f"grid degraded: {problems}")
        digests.add(score_digest(table))
        stats = runtime.stats
        attempted = stats["executed"] + stats["failed"]
        result.attempted += attempted
        result.failed += attempted if problems else stats["failed"]
        result.latencies_ms.append(ref_s * 1e3)
        result.within_limit += int(not problems and end - start <= GRID_LIMIT_S)
        result.offered += 1
        if traced:
            layer = summarize_trace(spans, end - start, ctx.per_layer_units)
            layer["runtime.tasks.executed"] = stats["executed"]
            layer["runtime.tasks.failed"] = stats["failed"]
            layer["runtime.tasks.attempts"] = stats["attempts"]
            for name, value in layer.items():
                layer_sums[name] += value
            traced_spans.extend(spans)

    result.check(len(digests) == 1, f"repetitions of one grid disagree: {len(digests)} distinct score digests")
    expected = reference.get("configs", {}).get(str(timed_seed))
    if expected is None:
        result.check(False, f"reference.json has no entry for grid seed {timed_seed}")
    else:
        if digests != {expected["digest"]}:
            result.check(False, "grid scores differ from the reference digest")
            result.failed, result.within_limit = result.attempted, 0  # no task's output is right
        # Express every repetition in seconds of the average grid.
        scale = reference["mean_ref_s"] / expected["ref_s"]
        result.latencies_ms = [ms * scale for ms in result.latencies_ms]

    result.detail.update(
        grid_seed=timed_seed,
        repetitions=len(rep_ref_s),
        grid_ref_s=statistics.median(rep_ref_s),
        repetition_ref_s=[round(value, 4) for value in rep_ref_s],
        score_digest=sorted(digests)[0],
        grid_s=statistics.median(result.latencies_ms) / 1e3,
        tail="p95 if >= 200 repetitions, else the slowest repetition",
    )
    result.tail_ms = percentile_tail(result.latencies_ms)
    if trace:
        n_traced = len(traced_s)
        layer = {name: value / n_traced for name, value in layer_sums.items()}
        layer["host.calib_ms"] = statistics.fmean(calib)
        layer["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
        result.per_layer = layer
        result.detail["spans_of_traced_grids"] = totals(traced_spans)
    return result
