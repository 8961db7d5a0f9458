"""Tests for repro.loadgen — workload shapes, the driver, and LoadReport.

The harness's own promises, attacked three ways:

1. **Property tests** (hypothesis): the zero-drop accounting identity
   and the latency percentiles of :class:`LoadReport` against brute
   numpy oracles, and the serving :class:`Histogram` ring buffer against
   a keep-everything reference.
2. **Deterministic units**: seeded arrival schedules replay exactly,
   shape validation rejects nonsense, retry storms account each retry as
   a new offered attempt, and outcome mapping covers every typed error.
3. **Live runs**: a seeded workload against a real served model over
   real sockets completes with balanced accounting; heavier shapes
   (flash crowd into a tiny queue, churn with aborts, dribbling slow
   clients) are ``slow``-marked.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import (
    BackpressureError,
    LoadTestError,
    RequestTimeoutError,
    ValidationError,
)
from repro.loadgen import (
    OUTCOMES,
    Attempt,
    HttpTarget,
    InProcessTarget,
    LoadReport,
    WorkloadShape,
    arrival_times,
    check_accounting,
    check_shed_rate,
    closed_loop,
    connection_churn,
    flash_crowd,
    open_loop,
    retry_storm,
    run_workload,
    slow_client,
)
from repro.rng import check_random_state
from repro.serve import MetricsRegistry, ServeConfig, ServeService, serve_async_http, serve_http

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=25, deadline=None)

attempt_tuples = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.sampled_from(OUTCOMES),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    max_size=80,
)


class TestLoadReportProperties:
    @SETTINGS
    @given(raw=attempt_tuples)
    def test_accounting_identity_holds_by_construction(self, raw):
        attempts = [Attempt(at, outcome, latency) for at, outcome, latency in raw]
        report = LoadReport.from_attempts(attempts, duration=1.0)
        assert report.balanced()
        assert report.offered == len(attempts)
        for outcome in OUTCOMES:
            expected = sum(1 for a in attempts if a.outcome == outcome)
            assert getattr(report, outcome) == expected
        check_accounting(report, allow_failed=True)

    @SETTINGS
    @given(raw=attempt_tuples)
    def test_per_second_series_sums_to_counts(self, raw):
        attempts = [Attempt(at, outcome, latency) for at, outcome, latency in raw]
        report = LoadReport.from_attempts(attempts, duration=1.0)
        for outcome in OUTCOMES:
            assert sum(bucket[outcome] for bucket in report.per_second) == getattr(
                report, outcome
            )
        for bucket in report.per_second:  # seconds are contiguous from 0
            assert bucket["second"] == report.per_second.index(bucket)

    @SETTINGS
    @given(raw=attempt_tuples)
    def test_percentiles_match_numpy_oracle(self, raw):
        attempts = [Attempt(at, outcome, latency) for at, outcome, latency in raw]
        report = LoadReport.from_attempts(attempts, duration=1.0)
        done = np.array([a.latency for a in attempts if a.outcome == "completed"])
        assert report.latency["count"] == done.size
        if done.size:
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                assert report.latency[label] == float(np.quantile(done, q))
            assert report.latency["max"] == float(done.max())

    @SETTINGS
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
        ),
        window=st.integers(min_value=1, max_value=16),
    )
    def test_histogram_ring_buffer_matches_brute_force(self, values, window):
        """The serving Histogram: exact count/sum, quantiles over the last `window`."""
        histogram = MetricsRegistry().histogram("h", window=window)
        for value in values:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == len(values)
        assert summary["sum"] == pytest.approx(sum(values))
        retained = np.array(values[-window:])  # ring keeps exactly the newest window
        assert summary["max"] == float(retained.max())
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            assert summary[label] == float(np.quantile(retained, q))


class TestAttemptAndCheckers:
    def test_outcome_vocabulary(self):
        assert OUTCOMES == ("completed", "shed", "timed_out", "failed")

    def test_attempt_validation(self):
        with pytest.raises(ValidationError, match="outcome"):
            Attempt(0.0, "exploded")
        with pytest.raises(ValidationError):
            Attempt(-1.0, "completed")
        with pytest.raises(ValidationError):
            Attempt(0.0, "completed", latency=-0.1)

    def test_check_accounting_flags_failures(self):
        report = LoadReport.from_attempts(
            [Attempt(0.0, "completed"), Attempt(0.1, "failed")], duration=1.0
        )
        with pytest.raises(LoadTestError, match="failed outright"):
            check_accounting(report)
        check_accounting(report, allow_failed=True)  # explicit opt-in

    def test_check_shed_rate_bounds(self):
        report = LoadReport.from_attempts(
            [Attempt(0.0, "completed"), Attempt(0.1, "shed")], duration=1.0
        )
        assert report.shed_rate == 0.5
        check_shed_rate(report, min_rate=0.4, max_rate=0.6)
        with pytest.raises(LoadTestError, match="exceeds bound"):
            check_shed_rate(report, max_rate=0.4)
        with pytest.raises(LoadTestError, match="below expected floor"):
            check_shed_rate(report, min_rate=0.6)

    def test_report_json_shape(self):
        report = LoadReport.from_attempts(
            [Attempt(0.0, "completed", 0.1)], duration=2.0, workload={"seed": 3}
        )
        payload = report.to_json()
        assert payload["workload"] == {"seed": 3}
        assert payload["shed_rate"] == 0.0
        assert payload["throughput_rps"] == 0.5


class TestWorkloadShapes:
    def test_validation(self):
        with pytest.raises(ValidationError, match="kind"):
            WorkloadShape(name="x", kind="sideways")
        with pytest.raises(ValidationError):
            WorkloadShape(name="x", n_requests=0)
        with pytest.raises(ValidationError, match="rates"):
            WorkloadShape(name="x", rate=0.0)
        with pytest.raises(ValidationError, match="abort_fraction"):
            WorkloadShape(name="x", abort_fraction=1.5)
        with pytest.raises(ValidationError, match="request_timeout"):
            WorkloadShape(name="x", request_timeout=0.0)

    def test_factories_set_their_knobs(self):
        assert open_loop(10, 50.0).kind == "open"
        closed = closed_loop(5, clients=3, think_time=0.01)
        assert (closed.kind, closed.clients, closed.think_time) == ("closed", 3, 0.01)
        storm = retry_storm(10, 50.0)
        assert storm.retry_on_shed and storm.max_retries == 5 and storm.backoff > 0
        crowd = flash_crowd(10, 50.0, 500.0)
        assert crowd.peak_rate == 500.0 and crowd.burst_fraction == 0.4
        slow = slow_client(10, 50.0)
        assert slow.dribble_chunk == 16 and slow.dribble_delay > 0
        churn = connection_churn(10, 50.0, abort_fraction=0.2)
        assert churn.new_connection_per_request and churn.abort_fraction == 0.2
        assert churn.to_json()["name"] == "connection_churn"

    def test_arrival_times_are_seeded_and_sorted(self):
        shape = open_loop(50, 200.0)
        first = arrival_times(shape, check_random_state(7))
        again = arrival_times(shape, check_random_state(7))
        np.testing.assert_array_equal(first, again)
        assert first.shape == (50,)
        assert (np.diff(first) >= 0).all()
        other = arrival_times(shape, check_random_state(8))
        assert not np.array_equal(first, other)

    def test_flash_crowd_schedule_has_a_dense_burst(self):
        shape = flash_crowd(100, 50.0, 5000.0, burst_start=0.4, burst_fraction=0.4)
        times = arrival_times(shape, check_random_state(0))
        assert times.shape == (100,)
        gaps = np.diff(times)
        burst_gaps = gaps[40:79]  # the 40-request burst segment
        outside_gaps = np.concatenate([gaps[:39], gaps[80:]])
        assert burst_gaps.mean() < outside_gaps.mean() / 10

    def test_closed_loop_has_no_schedule(self):
        assert arrival_times(closed_loop(5, clients=2), check_random_state(0)).size == 0


class _ScriptedTarget:
    """Thread-safe scripted outcomes; records every plan it was handed."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.plans = []
        self._lock = threading.Lock()

    def request(self, rows, *, timeout, plan):
        with self._lock:
            self.plans.append(plan)
            if self.outcomes:
                return self.outcomes.pop(0)
            return "completed"


class TestRunWorkload:
    def test_open_loop_accounts_every_request(self):
        X = np.zeros((4, 2))
        target = _ScriptedTarget([])
        report = run_workload(target, X, open_loop(12, 5000.0, clients=3), seed=1)
        assert report.offered == 12 and report.completed == 12
        assert report.balanced()
        check_accounting(report)
        assert report.workload["seed"] == 1 and report.workload["name"] == "open_loop"

    def test_closed_loop_counts_clients_times_requests(self):
        X = np.zeros((2, 2))
        report = run_workload(_ScriptedTarget([]), X, closed_loop(3, clients=2), seed=0)
        assert report.offered == 6 and report.completed == 6

    def test_retry_storm_offers_each_retry_as_new_attempt(self):
        X = np.zeros((2, 2))
        target = _ScriptedTarget(["shed"] * 100)
        shape = retry_storm(4, 5000.0, max_retries=1, backoff=0.0, clients=2)
        report = run_workload(target, X, shape, seed=0)
        # Every request sheds, retries once, sheds again: 4 * 2 attempts.
        assert report.offered == 8 and report.shed == 8
        assert report.balanced()
        check_shed_rate(report, min_rate=0.99)

    def test_abort_plans_are_seeded_and_passed_through(self):
        X = np.zeros((2, 2))
        target = _ScriptedTarget([])
        shape = connection_churn(20, 5000.0, abort_fraction=0.5)
        run_workload(target, X, shape, seed=3)
        aborted = sum(1 for plan in target.plans if plan["abort"])
        assert 0 < aborted < 20
        assert all(plan["new_connection"] for plan in target.plans)
        # Replay: the same seed aborts the same attempts.
        replay = _ScriptedTarget([])
        run_workload(replay, X, shape, seed=3)
        assert sum(1 for plan in replay.plans if plan["abort"]) == aborted

    def test_rejects_bad_row_pools(self):
        with pytest.raises(ValidationError, match="2-D"):
            run_workload(_ScriptedTarget([]), np.zeros(5), open_loop(2, 100.0))
        with pytest.raises(ValidationError, match="rows_per_request"):
            run_workload(
                _ScriptedTarget([]), np.zeros((1, 2)), open_loop(2, 100.0, rows_per_request=4)
            )


class TestInProcessTarget:
    class _FakeService:
        def __init__(self, error=None):
            self.error = error

        def predict(self, rows, *, timeout=None):
            if self.error is not None:
                raise self.error
            return {"labels": [0]}

    def test_outcome_mapping(self):
        plan = {}
        assert (
            InProcessTarget(self._FakeService()).request([[0.0]], timeout=1.0, plan=plan)
            == "completed"
        )
        cases = [
            (BackpressureError("full"), "shed"),
            (RequestTimeoutError("late"), "timed_out"),
            (ValidationError("bad"), "failed"),
            (OSError("socket"), "failed"),
        ]
        for error, outcome in cases:
            target = InProcessTarget(self._FakeService(error))
            assert target.request([[0.0]], timeout=1.0, plan=plan) == outcome

    def test_against_live_service(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=16),
        )
        with service:
            target = InProcessTarget(service)
            report = run_workload(target, scream_data.X, open_loop(20, 2000.0), seed=5)
        assert report.completed == 20
        check_accounting(report)
        assert report.latency["p99"] <= 5.0


class TestSocketLoad:
    def test_open_loop_over_async_sockets_is_lossless(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=16),
        )
        server = serve_async_http(service)
        try:
            target = HttpTarget(server.url)
            report = run_workload(target, scream_data.X, open_loop(30, 600.0, clients=4), seed=9)
        finally:
            server.close()
        assert report.completed == 30
        check_accounting(report)
        assert service.metrics_registry.counter("requests").value == 30

    @pytest.mark.slow
    def test_flash_crowd_sheds_into_a_tiny_queue(self, served_scream_registry, scream_data):
        """Overload must shed or time out, never drop — the north-star invariant."""
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=2, queue_bound=2, request_timeout=2.0),
        )
        server = serve_async_http(service)
        try:
            shape = flash_crowd(150, 100.0, 5000.0, clients=8, request_timeout=5.0)
            report = run_workload(HttpTarget(server.url), scream_data.X, shape, seed=11)
        finally:
            server.close()
        check_accounting(report)
        assert report.completed > 0
        assert report.shed > 0, "the burst should overwhelm a 2-deep queue"

    @pytest.mark.slow
    def test_connection_churn_with_aborts_is_accounted(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=16),
        )
        server = serve_async_http(service)
        try:
            shape = connection_churn(60, 600.0, abort_fraction=0.25, clients=4)
            report = run_workload(HttpTarget(server.url), scream_data.X, shape, seed=13)
        finally:
            server.close()
        # Aborted sends count as failed — visible, not dropped.
        check_accounting(report, allow_failed=True)
        assert report.failed > 0 and report.completed > 0
        assert report.offered == 60

    @pytest.mark.slow
    def test_slow_clients_dribble_through_both_transports(
        self, served_scream_registry, scream_data
    ):
        for start_server in (serve_http, serve_async_http):
            service = ServeService.from_registry(
                "scream",
                directory=served_scream_registry.directory,
                config=ServeConfig(max_batch=16),
            )
            server = start_server(service)
            try:
                shape = slow_client(16, 400.0, dribble_chunk=24, dribble_delay=0.002, clients=4)
                report = run_workload(HttpTarget(server.url), scream_data.X, shape, seed=17)
            finally:
                server.close()
            assert report.completed == 16, start_server.__name__
            check_accounting(report)
