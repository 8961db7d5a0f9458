"""Determinism guarantees of ``repro.runtime``.

The contract under test: a task's result is a pure function of (task fn,
payload, seed path) — so the serial executor, the process executor, any
submission order, and a cache-warm rerun must all agree bitwise, both at
the single-task level (``probe.draw``) and end-to-end on a tiny Table-1
run.  Fault injection (raising tasks, a pool that cannot start, breaks or
cannot carry a payload, poisoned cache entries) checks that failure
handling never silently changes results.
"""

import concurrent.futures
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.automl import AutoMLSpec
from repro.core.feedback import AleFeedback
from repro.experiments.runner import AugmentationContext, evaluate_on_test_sets, run_strategy
from repro.experiments.table1 import Table1Config, run_table1
from repro.ml.metrics import accuracy
from repro.runtime import (
    ArtifactCache,
    ProcessExecutor,
    SerialExecutor,
    Task,
    TaskError,
    TaskRuntime,
    digest_payload,
    task,
    task_key,
)


def draw_tasks(n=4, size=5):
    return [
        Task(fn_name="probe.draw", payload={"n": size}, seed_path=(1234, index))
        for index in range(n)
    ]


class TestTaskDeterminism:
    def test_serial_and_process_executors_agree_bitwise(self):
        tasks = draw_tasks()
        serial = [outcome.value for outcome in SerialExecutor().run(tasks)]
        pooled = [outcome.value for outcome in ProcessExecutor(max_workers=2).run(tasks)]
        assert serial == pooled

    def test_submission_order_is_irrelevant(self):
        tasks = draw_tasks(n=6)
        by_path = {
            task.seed_path: outcome.value
            for task, outcome in zip(tasks, SerialExecutor().run(tasks))
        }
        shuffled = list(reversed(tasks))
        for task, outcome in zip(shuffled, SerialExecutor().run(shuffled)):
            assert outcome.value == by_path[task.seed_path]

    def test_results_come_back_in_task_order(self):
        tasks = [
            Task(fn_name="probe.sleep", payload={"seconds": 0.2, "value": "slow"}),
            Task(fn_name="probe.sleep", payload={"seconds": 0.0, "value": "fast"}),
        ]
        outcomes = ProcessExecutor(max_workers=2).run(tasks)
        assert [outcome.value for outcome in outcomes] == ["slow", "fast"]

    def test_failure_raises_task_error_naming_the_task(self):
        task = Task(fn_name="probe.fail", payload={}, seed_path=(9,), label="doomed")
        with pytest.raises(TaskError) as excinfo:
            SerialExecutor().run([task])
        assert excinfo.value.task_label == "doomed"
        assert "doomed" in str(excinfo.value)

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ProcessExecutor(max_workers=2)], ids=["serial", "process"]
    )
    def test_failures_are_returned_when_errors_do_not_propagate(self, executor):
        [draw] = draw_tasks(n=1)
        tasks = [Task(fn_name="probe.fail", payload={}, label="doomed"), draw]
        failed, drawn = executor.run(tasks, propagate_errors=False)
        assert isinstance(failed.error, TaskError) and failed.value is None
        assert "doomed" in str(failed.error)
        assert drawn.error is None
        assert drawn.value == SerialExecutor().run([draw])[0].value


EXIT_IN_WORKER = f"{__name__}:exit_in_worker"


@task(EXIT_IN_WORKER)
def _exit_in_worker(payload, ctx):
    """Kill the worker process that runs it; in the submitting process, return ``value``."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return payload["value"]


class TestProcessFallbacks:
    """The process executor falls back to in-process execution, same results."""

    def test_pool_that_cannot_start_degrades_to_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        tasks = draw_tasks()
        with pytest.warns(UserWarning, match="degrading to serial"):
            pooled = ProcessExecutor(max_workers=2).run(tasks)
        assert [o.value for o in pooled] == [o.value for o in SerialExecutor().run(tasks)]

    def test_unpicklable_payload_runs_in_process(self):
        tasks = draw_tasks(n=3)
        tasks[1] = Task(
            fn_name="probe.draw", payload={"n": 5, "fn": lambda: None}, seed_path=(1234, 1)
        )
        with pytest.warns(UserWarning, match="cannot cross the process boundary"):
            pooled = ProcessExecutor(max_workers=2).run(tasks)
        assert [o.value for o in pooled] == [o.value for o in SerialExecutor().run(tasks)]

    def test_broken_pool_finishes_every_task_in_process(self):
        tasks = [*draw_tasks(n=3), Task(fn_name=EXIT_IN_WORKER, payload={"value": "survived"})]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = ProcessExecutor(max_workers=2).run(tasks)
        broke = [w for w in caught if "pool broke" in str(w.message)]
        assert len(broke) == 1
        assert [o.value for o in pooled] == [o.value for o in SerialExecutor().run(tasks)]
        assert pooled[-1].value == "survived"


class TestArtifactCache:
    def test_second_run_is_answered_from_cache(self, tmp_path):
        runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(tmp_path))
        first = runtime.run(draw_tasks())
        assert runtime.stats["executed"] == 4 and runtime.stats["cache_stores"] == 4
        runtime.reset_stats()
        second = runtime.run(draw_tasks())
        assert second == first
        assert runtime.stats["cache_hits"] == 4 and runtime.stats["executed"] == 0

    def test_poisoned_entry_is_evicted_and_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        runtime = TaskRuntime(SerialExecutor(), cache=cache)
        [task] = draw_tasks(n=1)
        [clean] = runtime.run([task])
        cache.path_for(task_key(task)).write_bytes(b"not a pickle")
        [recomputed] = runtime.run([task])
        assert recomputed == clean
        assert cache.corrupt_evictions == 1

    def test_refresh_mode_overwrites_without_reading(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        warm = TaskRuntime(SerialExecutor(), cache=cache)
        warm.run(draw_tasks(n=1))
        refresh = TaskRuntime(SerialExecutor(), cache=ArtifactCache(tmp_path), cache_mode="refresh")
        refresh.run(draw_tasks(n=1))
        assert refresh.stats["cache_hits"] == 0
        assert refresh.stats["executed"] == 1 and refresh.stats["cache_stores"] == 1

    def test_payload_digest_ignores_mapping_order(self):
        assert digest_payload({"a": 1, "b": 2.5}) == digest_payload({"b": 2.5, "a": 1})

    def test_key_depends_on_seed_path_and_payload(self):
        base = Task(fn_name="probe.draw", payload={"n": 3}, seed_path=(1,))
        assert task_key(base) != task_key(Task(fn_name="probe.draw", payload={"n": 3}, seed_path=(2,)))
        assert task_key(base) != task_key(Task(fn_name="probe.draw", payload={"n": 4}, seed_path=(1,)))


TINY = Table1Config(
    n_train=60,
    n_test=80,
    n_pool=60,
    n_feedback=10,
    n_test_sets=4,
    n_repeats=1,
    cross_runs=2,
    automl_iterations=4,
    ensemble_size=3,
    min_distinct_members=2,
    grid_size=8,
)
TINY_ALGOS = ["no_feedback", "cross_ale", "within_ale_pool"]


@pytest.fixture(scope="module")
def tiny_table1_runs(tmp_path_factory):
    """One tiny Table-1 experiment under three execution regimes."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    implicit, _ = run_table1(TINY, algorithms=TINY_ALGOS)
    parallel_runtime = TaskRuntime(ProcessExecutor(max_workers=2), cache=ArtifactCache(cache_dir))
    parallel, _ = run_table1(TINY, algorithms=TINY_ALGOS, runtime=parallel_runtime)
    warm_runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(cache_dir))
    warm, _ = run_table1(TINY, algorithms=TINY_ALGOS, runtime=warm_runtime)
    return implicit, parallel, warm, parallel_runtime, warm_runtime


class TestTable1EndToEnd:
    def test_parallel_scores_bitwise_identical_to_serial(self, tiny_table1_runs):
        implicit, parallel, _, _, _ = tiny_table1_runs
        for name in TINY_ALGOS:
            np.testing.assert_array_equal(
                implicit.scores(name).scores, parallel.scores(name).scores
            )

    def test_cache_warm_scores_bitwise_identical(self, tiny_table1_runs):
        implicit, _, warm, _, _ = tiny_table1_runs
        for name in TINY_ALGOS:
            np.testing.assert_array_equal(implicit.scores(name).scores, warm.scores(name).scores)

    def test_cache_warm_run_performs_zero_automl_refits(self, tiny_table1_runs):
        _, _, _, parallel_runtime, warm_runtime = tiny_table1_runs
        assert parallel_runtime.executions_of("automl.fit") > 0
        assert warm_runtime.executions_of("automl.fit") == 0
        assert warm_runtime.stats["executed"] == 0
        assert warm_runtime.stats["cache_hits"] == parallel_runtime.stats["cache_stores"]


class TestSkipRefit:
    """Regression: ``run_strategy`` must not refit an unchanged training set."""

    @pytest.fixture
    def ctx(self, scream_data, fitted_automl):
        spec = AutoMLSpec(n_iterations=4, ensemble_size=3, min_distinct_members=2, scorer=accuracy)
        return AugmentationContext(
            train=scream_data.subset(np.arange(100)),
            pool=scream_data.subset(np.arange(100, 160)),
            oracle=None,
            initial_automl=fitted_automl,
            automl_factory=spec,
            n_feedback=8,
            feedback=AleFeedback(grid_size=8),
            cross_runs=2,
            rng=np.random.default_rng(42),
            runtime=TaskRuntime(SerialExecutor()),
        )

    @pytest.fixture
    def test_sets(self, scream_data):
        return [scream_data.subset(np.arange(100, 130)), scream_data.subset(np.arange(130, 160))]

    def test_no_feedback_reuses_initial_automl(self, ctx, test_sets):
        scores, result = run_strategy("no_feedback", ctx, test_sets, random_state=0)
        assert result.points_added == 0
        assert ctx.runtime.executions_of("automl.fit") == 0
        assert scores == evaluate_on_test_sets(ctx.initial_automl, test_sets)

    def test_empty_region_pool_strategy_skips_refit(self, ctx, test_sets):
        # The ISSUE's bug: an explicit threshold no committee exceeds flags
        # no region, the pool strategy adds nothing — yet a fresh dataset
        # object is built, so only content comparison can spot the no-op.
        ctx.feedback = AleFeedback(grid_size=8, threshold=1e9)
        scores, result = run_strategy("within_ale_pool", ctx, test_sets, random_state=0)
        assert result.points_added == 0
        assert result.train is not ctx.train
        assert ctx.runtime.executions_of("automl.fit") == 0
        assert scores == evaluate_on_test_sets(ctx.initial_automl, test_sets)

    def test_changed_training_set_still_refits(self, ctx, test_sets):
        ctx.runtime.reset_stats()
        run_strategy("confidence", ctx, test_sets, random_state=0)
        assert ctx.runtime.executions_of("automl.fit") == 1
