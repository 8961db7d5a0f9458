"""Failure-injection tests: degraded components must fail loudly or heal.

The AutoML search tolerates individual candidate crashes (as AutoSklearn
does); everything else in the stack must raise a :class:`ReproError`
subclass with an actionable message rather than produce silent garbage.

``TestGridDegradation`` pins the sharded experiment grid's contract: one
poisoned (repeat, strategy) cell — a raise or a corrupted cache entry —
degrades that cell's algorithm and is reported in the experiment
record, while every healthy cell's scores stay bitwise-untouched.  Only
when nothing survives does the failure propagate.
"""

import numpy as np
import pytest

from repro.automl import AutoMLClassifier, ModelFamily, RandomSearch
from repro.automl.spaces import FloatRange, default_model_families
from repro.exceptions import ReproError, SearchBudgetError, ValidationError
from repro.experiments import Table1Config, run_table1
from repro.experiments.grid import CellFailure, GridResult
from repro.experiments.runner import STRATEGIES, AugmentationResult, strategy
from repro.experiments.tasks import GRID_CELL_TASK
from repro.ml import GaussianNB
from repro.runtime import ArtifactCache, SerialExecutor, TaskError, TaskRuntime


class _AlwaysCrashes:
    """An estimator whose fit always raises a library error."""

    def __init__(self, **kwargs):
        pass

    def fit(self, X, y):
        raise ValidationError("injected failure")

    def predict(self, X):
        raise ValidationError("unreachable")

    def predict_proba(self, X):
        raise ValidationError("unreachable")

    def get_params(self):
        return {}


def _crashing_family() -> ModelFamily:
    return ModelFamily("crasher", _AlwaysCrashes, {"x": FloatRange(0.0, 1.0)}, stochastic=False)


class TestSearchFailureTolerance:
    def test_search_survives_crashing_candidates(self, blobs_2class):
        X, y = blobs_2class
        families = default_model_families() + [_crashing_family()]
        result = RandomSearch(n_iterations=20, families=families, random_state=0).run(X, y)
        assert result.evaluated  # the healthy families produced results
        crash_failures = [c for c, message in result.failures if c.family == "crasher"]
        assert len(crash_failures) >= 1
        assert all("injected failure" in message for c, message in result.failures if c.family == "crasher")

    def test_search_with_only_crashing_family_raises(self, blobs_2class):
        X, y = blobs_2class
        with pytest.raises(SearchBudgetError, match="failed"):
            RandomSearch(n_iterations=5, families=[_crashing_family()], random_state=0).run(X, y)

    def test_automl_propagates_total_failure(self, blobs_2class):
        X, y = blobs_2class
        automl = AutoMLClassifier(n_iterations=3, families=[_crashing_family()], random_state=0)
        with pytest.raises(SearchBudgetError):
            automl.fit(X, y)

    def test_unexpected_exceptions_not_swallowed(self, blobs_2class):
        """Only ReproError is treated as a candidate failure; genuine bugs
        (e.g. TypeError) must escape the search loop."""

        class _Buggy(_AlwaysCrashes):
            def fit(self, X, y):
                raise TypeError("a real bug")

        family = ModelFamily("buggy", _Buggy, {"x": FloatRange(0.0, 1.0)}, stochastic=False)
        X, y = blobs_2class
        with pytest.raises(TypeError, match="a real bug"):
            RandomSearch(n_iterations=3, families=[family], random_state=0).run(X, y)


class TestDataFailures:
    def test_automl_rejects_nan_features(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0], [1.5, 2.0], [0.5, 1.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValidationError, match="NaN"):
            AutoMLClassifier(n_iterations=2).fit(X, y)

    def test_automl_rejects_single_class(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.zeros(20, dtype=int)
        with pytest.raises(ReproError):
            AutoMLClassifier(n_iterations=2, random_state=0).fit(X, y)

    def test_model_rejects_wrong_width_at_predict(self, blobs_2class):
        X, y = blobs_2class
        model = GaussianNB().fit(X, y)
        with pytest.raises(ValidationError, match="features"):
            model.predict(np.zeros((3, 9)))


class TestEmulatorFailures:
    def test_divergent_scenario_guard(self):
        from repro.netsim import NetworkScenario, run_packet_scenario
        from repro.exceptions import EmulationError

        scenario = NetworkScenario(bandwidth_mbps=100.0, rtt_ms=5.0, loss_rate=0.0, n_flows=8)
        with pytest.raises(EmulationError, match="events"):
            run_packet_scenario(scenario, "cubic", duration=5.0, max_events=500, random_state=0)


# --------------------------------------------------------------------------
# Sharded-grid degradation
# --------------------------------------------------------------------------

TINY_GRID = Table1Config(
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


#: Toggle for the ``test_flaky`` strategy: ``True`` poisons it.  Flipping
#: this between runs models "the bug got fixed" — the strategy *name*
#: (which cell cache keys hash) stays the same, only the behaviour heals.
_FLAKY_STATE = {"fail": True}


def _ensure_injection_strategies() -> None:
    """Register the poisoned strategies once per process.

    Cell seed paths hash the strategy *name* (``strategy_key``), so adding
    these to the registry cannot move any real strategy's random stream —
    ``test_clean_cells_unaffected_by_poisoned_neighbor`` pins exactly that.
    """
    if "test_boom" not in STRATEGIES:

        @strategy("test_boom")
        def _boom(ctx) -> AugmentationResult:
            raise RuntimeError("injected cell failure")

    if "test_flaky" not in STRATEGIES:

        @strategy("test_flaky")
        def _flaky(ctx) -> AugmentationResult:
            if _FLAKY_STATE["fail"]:
                raise RuntimeError("injected transient failure")
            return AugmentationResult(train=ctx.train, points_added=0)


class TestGridDegradation:
    @pytest.fixture(scope="class")
    def poisoned_run(self):
        _ensure_injection_strategies()
        return run_table1(
            TINY_GRID,
            algorithms=["no_feedback", "test_boom", "within_ale_pool"],
            runtime=TaskRuntime(SerialExecutor()),
        )

    def test_poisoned_cell_drops_algorithm_not_run(self, poisoned_run):
        table, record = poisoned_run
        assert table.names() == ["no_feedback", "within_ale_pool"]
        grid = record.metadata["grid"]
        assert grid["dropped_algorithms"] == ["test_boom"]
        [failure] = grid["failed_cells"]
        assert failure["algorithm"] == "test_boom"
        assert failure["stage"] == "cell"
        assert "injected cell failure" in failure["error"]
        assert grid["failed_repeats"] == []

    def test_clean_cells_unaffected_by_poisoned_neighbor(self, poisoned_run):
        table, _ = poisoned_run
        clean_table, clean_record = run_table1(
            TINY_GRID,
            algorithms=["no_feedback", "within_ale_pool"],
            runtime=TaskRuntime(SerialExecutor()),
        )
        assert clean_record.metadata["grid"]["failed_cells"] == []
        for name in ("no_feedback", "within_ale_pool"):
            np.testing.assert_array_equal(table.scores(name).scores, clean_table.scores(name).scores)

    def test_every_cell_failing_raises(self):
        _ensure_injection_strategies()
        with pytest.raises(TaskError, match="injected cell failure"):
            run_table1(
                TINY_GRID,
                algorithms=["test_boom"],
                runtime=TaskRuntime(SerialExecutor()),
            )

    def test_corrupted_cache_entries_recompute_identically(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = TaskRuntime(SerialExecutor(), cache=ArtifactCache(cache_dir))
        cold_table, _ = run_table1(
            TINY_GRID, algorithms=["no_feedback"], runtime=cold
        )
        entries = list(cache_dir.glob("*/*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"not a pickle")

        warm = TaskRuntime(SerialExecutor(), cache=ArtifactCache(cache_dir))
        warm_table, warm_record = run_table1(
            TINY_GRID, algorithms=["no_feedback"], runtime=warm
        )
        # Every poisoned entry is evicted and recomputed; results stay
        # bitwise-identical and nothing is silently degraded.
        assert warm.cache.corrupt_evictions == len(entries)
        assert warm.stats["executed"] == cold.stats["executed"] > 0
        assert warm_record.metadata["grid"]["failed_cells"] == []
        np.testing.assert_array_equal(
            cold_table.scores("no_feedback").scores, warm_table.scores("no_feedback").scores
        )

class TestGridResume:
    """A degraded run's partial cache resumes with only the failed cells."""

    def test_resume_reexecutes_only_failed_cells(self, tmp_path):
        _ensure_injection_strategies()
        algorithms = ["no_feedback", "test_flaky"]

        _FLAKY_STATE["fail"] = True
        try:
            first = TaskRuntime(SerialExecutor(), cache=ArtifactCache(tmp_path / "cache"))
            table, record = run_table1(TINY_GRID, algorithms=algorithms, runtime=first)
        finally:
            _FLAKY_STATE["fail"] = False

        grid = record.metadata["grid"]
        assert grid["dropped_algorithms"] == ["test_flaky"]
        assert grid["resumed_initial_fits"] == 0 and grid["resumed_cells"] == 0
        # The failed cell was never cached — that's what makes resume work.
        assert first.stats["failed"] == 1
        assert first.stats["cache_stores"] == first.stats["executed"]

        # "Fix the bug" (flag already flipped above) and rerun against the
        # same cache: only the previously-failed cell may execute.
        second = TaskRuntime(SerialExecutor(), cache=ArtifactCache(tmp_path / "cache"))
        resumed_table, resumed_record = run_table1(TINY_GRID, algorithms=algorithms, runtime=second)

        assert second.executions_of(GRID_CELL_TASK) == 1  # just the healed flaky cell
        assert second.stats["executed"] == 1
        assert second.stats["failed"] == 0
        resumed_grid = resumed_record.metadata["grid"]
        assert resumed_grid["failed_cells"] == [] and resumed_grid["dropped_algorithms"] == []
        assert resumed_grid["resumed_initial_fits"] == TINY_GRID.n_repeats == 1
        assert resumed_grid["resumed_cells"] == 1  # the healthy no_feedback cell replayed
        assert sorted(resumed_table.names()) == sorted(algorithms)
        # Replayed scores are the cached ones, bitwise.
        np.testing.assert_array_equal(
            table.scores("no_feedback").scores, resumed_table.scores("no_feedback").scores
        )

    def test_gridresult_metadata_reports_resume_counts(self):
        result = GridResult(
            collected={"a": [0.5]},
            n_cells=2,
            n_repeats=1,
            failures=[CellFailure(0, "b", "cell", "boom")],
            dropped_algorithms=["b"],
            resumed_initial_fits=1,
            resumed_cells=3,
        )
        meta = result.metadata()
        assert meta["resumed_initial_fits"] == 1
        assert meta["resumed_cells"] == 3
        assert meta["failed_cells"] == [
            {"repeat": 0, "algorithm": "b", "stage": "cell", "error": "boom"}
        ]

