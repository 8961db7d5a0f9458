"""Tests for repro.loop — the online retraining controller.

The acceptance scenario from the loop milestone, end to end: drifting
traffic fills the labeling queue, the controller triggers, the candidate
retrains as a cache-addressed runtime task, shadows live traffic without
touching served bytes, and the promotion gate either flips the registry
(served predictions bitwise-match offline ``predict`` of the new model)
or rejects the candidate leaving the incumbent serving.  Plus the
determinism contract: identical queue contents and seed path produce a
bitwise-identical model under serial *and* process executors, and a
re-run is a pure cache hit with zero refits.
"""

import numpy as np
import pytest

from repro.active import merge_labeled
from repro.automl import AutoMLClassifier, AutoMLSpec
from repro.core import AleFeedback, ale_drift, within_ale_committee
from repro.exceptions import ValidationError
from repro.featurespace import FeatureDomain
from repro.loop import (
    LoopConfig,
    LoopService,
    RetrainController,
    ShadowEvaluator,
)
from repro.loop.demo import demo_oracle, run_demo
from repro.runtime import ArtifactCache, ProcessExecutor, SerialExecutor, TaskRuntime
from repro.serve import ModelRegistry, ServeConfig, ServeService

DOMAINS = (FeatureDomain("f0", 0.0, 1.0), FeatureDomain("f1", 0.0, 1.0))
SPEC = AutoMLSpec(n_iterations=6, ensemble_size=4, min_distinct_members=2)


def _boundary_data(n, seed, *, away=0.0):
    """Uniform points over the unit square, optionally away from the boundary."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(4 * n, 2))
    if away > 0:
        X = X[np.abs(X[:, 0] + X[:, 1] - 1.0) > away]
    X = X[:n]
    return X, demo_oracle(X)


@pytest.fixture(scope="module")
def base_data():
    """Biased training set: the incumbent never sees the boundary."""
    return _boundary_data(120, 11, away=0.35)


@pytest.fixture(scope="module")
def eval_data():
    return _boundary_data(200, 13)


@pytest.fixture(scope="module")
def incumbent(base_data):
    X, y = base_data
    return AutoMLClassifier(
        n_iterations=6, ensemble_size=4, min_distinct_members=2, random_state=5
    ).fit(X, y)


def _make_service(tmp_path, incumbent, base_data, *, config=None):
    X, y = base_data
    registry = ModelRegistry(tmp_path / "registry")
    registry.register("loopy", incumbent, X, DOMAINS, promote=True)
    serve = ServeService.from_registry(
        "loopy",
        directory=registry.directory,
        config=config
        if config is not None
        else ServeConfig(max_batch=16, disagreement_threshold=0.15),
    )
    return registry, serve


def _make_loop(tmp_path, serve, base_data, eval_data, loop_config):
    X, y = base_data
    X_eval, y_eval = eval_data
    runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(tmp_path / "cache"))
    controller = RetrainController(runtime, SPEC, X, y, X_eval, y_eval, config=loop_config)
    return LoopService(serve, controller, oracle=demo_oracle, config=loop_config), runtime


def _drive_boundary_traffic(serve, seed, *, rounds=6, per_round=24):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        rows = rng.uniform(0.0, 1.0, size=(per_round, 2))
        rows[:, 1] = np.clip(1.0 - rows[:, 0] + rng.normal(0.0, 0.1, per_round), 0.0, 1.0)
        serve.predict(rows)


LOOP_CONFIG = LoopConfig(
    min_queue_depth=8,
    min_served_points=16,
    uncertain_rate=0.9,
    shadow_fraction=1.0,
    min_shadow_rows=16,
    score_margin=-0.1,
    max_ale_drift=2.0,
    retrain_seed=0,
)


class TestMergeLabeled:
    def test_appends_in_order_base_untouched(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        X_new = np.array([[0.5, 0.5], [0.25, 0.75]])
        y_new = np.array([1, 0])
        Xm, ym, added = merge_labeled(X, y, X_new, y_new)
        assert added == 2
        np.testing.assert_array_equal(Xm[:2], X)
        np.testing.assert_array_equal(Xm[2:], X_new)
        np.testing.assert_array_equal(ym, [0, 1, 1, 0])

    def test_dedup_existing_label_wins(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        # First new row duplicates a base row (with a flipped label), the
        # third duplicates the second new row.
        X_new = np.array([[1.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        y_new = np.array([0, 1, 0])
        Xm, ym, added = merge_labeled(X, y, X_new, y_new)
        assert added == 1
        assert Xm.shape == (3, 2)
        np.testing.assert_array_equal(ym, [0, 1, 1])

    def test_dedup_off_keeps_everything(self):
        X = np.array([[0.0, 0.0]])
        y = np.array([0])
        Xm, ym, added = merge_labeled(X, y, X, y, dedup=False)
        assert added == 1 and Xm.shape == (2, 2)

    def test_empty_new_set_is_identity(self):
        X = np.array([[0.0, 0.0]])
        y = np.array([0])
        Xm, ym, added = merge_labeled(X, y, np.empty((0, 2)), np.empty((0,)))
        assert added == 0
        assert Xm is X and ym is y

    def test_validation(self):
        with pytest.raises(ValidationError):
            merge_labeled(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ValidationError):
            merge_labeled(np.zeros((2, 2)), np.zeros(3), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError):
            merge_labeled(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(2))


class TestAleDrift:
    def test_same_committee_zero_drift(self, incumbent, base_data):
        X, _ = base_data
        committee = within_ale_committee(incumbent)
        report = AleFeedback().analyze(committee, X, DOMAINS)
        drift = ale_drift(committee, X, report)
        assert drift.feature_names == ("f0", "f1")
        assert drift.max_drift <= 1e-9
        assert set(drift.by_feature()) == {"f0", "f1"}
        assert "ALE drift" in drift.summary()

    def test_different_committee_nonzero_drift(self, incumbent, base_data, eval_data):
        X, _ = base_data
        report = AleFeedback().analyze(within_ale_committee(incumbent), X, DOMAINS)
        X_eval, y_eval = eval_data
        other = AutoMLClassifier(
            n_iterations=6, ensemble_size=4, min_distinct_members=2, random_state=99
        ).fit(X_eval, y_eval)
        drift = ale_drift(within_ale_committee(other), X, report)
        assert drift.max_drift > 0.0

    def test_validation(self, incumbent, base_data):
        X, _ = base_data
        report = AleFeedback().analyze(within_ale_committee(incumbent), X, DOMAINS)
        with pytest.raises(ValidationError):
            ale_drift([], X, report)
        with pytest.raises(ValidationError):
            ale_drift(within_ale_committee(incumbent), X[:0], report)
        with pytest.raises(ValidationError):
            ale_drift(within_ale_committee(incumbent), X[:, :1], report)


class TestTrigger:
    def controller(self, tmp_path_like=None):
        X, y = np.zeros((4, 2)), np.zeros(4)
        runtime = TaskRuntime(SerialExecutor())
        return RetrainController(
            runtime, SPEC, X, y, X, y, config=LoopConfig(min_queue_depth=10, min_served_points=50, uncertain_rate=0.2)
        )

    def test_queue_depth_trigger(self):
        controller = self.controller()
        assert controller.should_trigger(queue_depth=10, served_points=0, uncertain_points=0)
        assert controller.should_trigger(queue_depth=9, served_points=0, uncertain_points=0) is None

    def test_uncertain_rate_trigger(self):
        controller = self.controller()
        assert controller.should_trigger(queue_depth=1, served_points=50, uncertain_points=10)
        assert controller.should_trigger(queue_depth=1, served_points=50, uncertain_points=9) is None
        # Not enough served traffic yet: rate path stays quiet.
        assert controller.should_trigger(queue_depth=1, served_points=49, uncertain_points=48) is None

    def test_empty_queue_never_triggers(self):
        controller = self.controller()
        assert controller.should_trigger(queue_depth=0, served_points=999, uncertain_points=999) is None


class TestRetrainDeterminism:
    def test_serial_process_bitwise_identical_and_cache_hit(self, tmp_path, base_data, eval_data):
        X, y = base_data
        X_eval, y_eval = eval_data
        X_new, y_new = _boundary_data(24, 17)
        cache_dir = tmp_path / "cache"
        probe = np.asarray(_boundary_data(64, 19)[0])

        def retrain_with(executor, cache_mode="on"):
            runtime = TaskRuntime(executor, cache=ArtifactCache(cache_dir), cache_mode=cache_mode)
            controller = RetrainController(
                runtime, SPEC, X, y, X_eval, y_eval, config=LOOP_CONFIG
            )
            return controller.retrain(X_new, y_new), runtime

        serial, _ = retrain_with(SerialExecutor(), cache_mode="off")
        assert serial.refits == 1
        process, _ = retrain_with(ProcessExecutor(max_workers=2), cache_mode="off")
        assert process.refits == 1
        np.testing.assert_array_equal(serial.model.predict(probe), process.model.predict(probe))
        np.testing.assert_array_equal(
            serial.model.predict_proba(probe), process.model.predict_proba(probe)
        )
        assert serial.score == process.score

        # Warm the cache, then re-run: a pure hit, zero refits, same bytes.
        warm, warm_runtime = retrain_with(SerialExecutor())
        assert warm_runtime.stats["cache_stores"] == 1
        replay, replay_runtime = retrain_with(SerialExecutor())
        assert replay.refits == 0
        assert replay_runtime.stats["cache_hits"] == 1
        assert replay_runtime.executions_of("automl.fit") == 0
        np.testing.assert_array_equal(replay.model.predict(probe), serial.model.predict(probe))
        np.testing.assert_array_equal(
            replay.model.predict_proba(probe), serial.model.predict_proba(probe)
        )


class TestLoopEndToEnd:
    def test_drift_trigger_shadow_promote(self, tmp_path, incumbent, base_data, eval_data):
        registry, serve = _make_service(tmp_path, incumbent, base_data)
        loop, runtime = _make_loop(tmp_path, serve, base_data, eval_data, LOOP_CONFIG)
        with serve:
            assert serve.version == 1
            events = []
            for round_index in range(12):
                _drive_boundary_traffic(serve, 100 + round_index, rounds=2)
                events.append(loop.tick())
                if events[-1]["action"] in ("promoted", "rejected"):
                    break
            actions = [event["action"] for event in events]
            assert "retrained" in actions
            assert actions[-1] == "promoted", events[-1]
            decision = loop.last_decision
            assert decision.promoted and decision.version == 2

            # The manifest flipped and the hot swap followed it.
            assert registry.promoted_version("loopy") == 2
            assert serve.version == 2

            # Served predictions bitwise-match offline predict of the
            # newly promoted model loaded straight from the registry.
            promoted = registry.load("loopy")
            probe = _boundary_data(32, 23)[0]
            response = serve.predict(probe)
            np.testing.assert_array_equal(
                np.asarray(response["labels"]), promoted.automl.predict(probe)
            )
            np.testing.assert_array_equal(
                np.asarray(response["proba"]), promoted.automl.predict_proba(probe)
            )
            # ... and match the in-memory candidate the loop fitted.
            metrics = serve.metrics()
            assert metrics["counters"]["loop_promotions"] == 1
            assert metrics["counters"]["loop_rollbacks"] == 0
            status = loop.status()
            assert status["state"] == "idle" and status["serving_version"] == 2

    def test_failing_gate_keeps_incumbent(self, tmp_path, incumbent, base_data, eval_data):
        # score_margin=2.0 is unsatisfiable (accuracy <= 1), so the gate
        # must reject no matter how good the candidate is.
        strict = LoopConfig(
            min_queue_depth=8,
            min_served_points=16,
            uncertain_rate=0.9,
            shadow_fraction=1.0,
            min_shadow_rows=16,
            score_margin=2.0,
            max_ale_drift=2.0,
        )
        registry, serve = _make_service(tmp_path, incumbent, base_data)
        loop, _ = _make_loop(tmp_path, serve, base_data, eval_data, strict)
        with serve:
            last = None
            for round_index in range(12):
                _drive_boundary_traffic(serve, 200 + round_index, rounds=2)
                last = loop.tick()
                if last["action"] in ("promoted", "rejected"):
                    break
            assert last is not None and last["action"] == "rejected", last

            # Incumbent still serving; candidate registered but unpromoted,
            # with the failure recorded in metrics and manifest metadata.
            assert registry.promoted_version("loopy") == 1
            assert serve.version == 1
            assert not loop.last_decision.promoted
            assert any("score" in reason for reason in loop.last_decision.reasons)
            metrics = serve.metrics()
            assert metrics["counters"]["loop_gate_fail_score"] >= 1
            assert metrics["counters"]["loop_promotions"] == 0
            versions = registry.versions("loopy")
            assert set(versions) == {1, 2}
            assert versions[2]["metadata"]["loop"]["promoted"] is False

    def test_rollback_on_post_promotion_regression(self, tmp_path, incumbent, base_data, eval_data):
        registry, serve = _make_service(tmp_path, incumbent, base_data)
        loop, _ = _make_loop(tmp_path, serve, base_data, eval_data, LOOP_CONFIG)
        with serve:
            for round_index in range(12):
                _drive_boundary_traffic(serve, 300 + round_index, rounds=2)
                if loop.tick()["action"] == "promoted":
                    break
            assert serve.version == 2

            # Adversarial ground truth: every label inverted, so observed
            # accuracy craters and the loop must roll back to v1.
            X_check, y_check = _boundary_data(64, 29)
            outcome = loop.observe_labeled(X_check, 1 - y_check)
            assert outcome["rolled_back"] is True
            assert registry.promoted_version("loopy") == 1
            assert serve.version == 1
            assert serve.metrics()["counters"]["loop_rollbacks"] == 1

            # Healthy ground truth after rollback does not flap again.
            outcome = loop.observe_labeled(X_check, y_check)
            assert outcome["rolled_back"] is False


class TestShadowEvaluator:
    def test_ready_and_report(self, incumbent, base_data):
        X, _ = base_data
        config = LoopConfig(min_shadow_rows=4, shadow_fraction=1.0)
        evaluator = ShadowEvaluator(incumbent, config)
        assert not evaluator.ready()
        assert evaluator.mirror.take()  # fraction=1.0 mirrors every batch
        evaluator.mirror.observe(X[:8], incumbent.predict(X[:8]))
        assert evaluator.ready()
        report_src = AleFeedback().analyze(within_ale_committee(incumbent), X, DOMAINS)
        report = evaluator.evaluate(report_src, X)
        assert report.mirrored_rows == 8
        assert report.agreement == 1.0
        assert report.errors == 0
        assert report.drift.max_drift <= 1e-9
        assert report.to_json()["max_ale_drift"] == report.drift.max_drift


class TestDemo:
    def test_run_demo_promotes_and_is_deterministic(self, tmp_path):
        summary = run_demo(tmp_path / "a", seed=3)
        actions = [event["action"] for event in summary["ticks"]]
        assert "retrained" in actions
        assert actions[-1] in ("promoted", "rejected")
        assert summary["status"]["counters"]["loop_retrains"] >= 1
        # Same seed, fresh directory: identical decisions.
        replay = run_demo(tmp_path / "b", seed=3)
        assert [event["action"] for event in replay["ticks"]] == actions
        assert replay["status"]["last_decision"] == summary["status"]["last_decision"]
