"""The served-request workload: open-loop ``POST /predict`` over HTTP.

Set-up generates a Scream dataset, fits the AutoML ensemble on it,
registers the model in a :class:`ModelRegistry` and starts the threaded
transport (:func:`repro.serve.http.serve_http`) with its default
:class:`ServeConfig`.  The timed phase touches no emulator and no grid
code: one client process sends single-row requests on a Poisson
schedule (:func:`repro.loadgen.workloads.arrival_times`) over at most
``nproc`` keep-alive connections, each driven by one thread.

Each request is timed from when it was *due*, not from when it was
sent, so a stall also delays the requests queued behind it; how late
the client sent is reported as ``loadgen.late_p95_ms``.

Rate.  The threaded transport writes a reply's headers and body in two
``send`` calls, so a reply sometimes waits for the client's delayed ACK
(Nagle's algorithm): round trips fall in a ~14 ms mode or a ~55 ms mode,
and the share in the slow mode grows with the rate.  At
:data:`RATE_RPS` a tenth to a fifth of replies are slow, so the median
sits in the fast mode and p95 in the slow one, each away from the
boundary, and the client never falls behind (at 14/s it ran 18 ms late
at p95).
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.automl import AutoMLClassifier
from repro.datasets import generate_scream_dataset
from repro.loadgen.workloads import arrival_times, open_loop
from repro.netsim.scenarios import DEFAULT_SPACE
from repro.rng import check_random_state, spawn_seeds
from repro.runtime.clock import monotonic
from repro.serve import ModelRegistry, ServeConfig, ServeService, serve_http

import layers
from hostspeed import probe_ms
from report import Workload, percentile_tail
from tracing import Span, Tracer, by_name, totals

#: Offered load, requests per second (see the module docstring).
RATE_RPS = 12.0
#: A request answered later than this after it was due misses its limit.
LIMIT_MS = 100.0
#: Replies whose transport overhead exceeds this are in the slow mode.
SLOW_OVERHEAD_MS = 30.0
CONNECTIONS = 2
SETUP_ROUNDS = 3
WARMUP_REQUESTS = 20
TRAIN_ROWS = 120
QUERY_ROWS = 256
BASE_SEED = 20211112


@dataclass
class Served:
    """One running service and what its replies are checked against."""

    server: object
    registry_dir: Path
    queries: np.ndarray
    expected: list
    connections: list

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.close()
        shutil.rmtree(self.registry_dir, ignore_errors=True)


@dataclass
class Sent:
    row: int
    due: float
    send: float = 0.0
    recv: float = 0.0
    ok: bool = False


def input_seeds(seed: int) -> list[int]:
    """Seeds of the training data, the AutoML search, the query rows and the schedule."""
    return spawn_seeds(check_random_state(BASE_SEED + seed), 4)


def set_up(seed: int, tmp_dir: Path) -> Served:
    """Data, fitted model, registry, running server and warm connections."""
    data_seed, fit_seed, query_seed, _ = input_seeds(seed)
    data = generate_scream_dataset(TRAIN_ROWS, random_state=data_seed)
    automl = AutoMLClassifier(
        n_iterations=8, ensemble_size=5, min_distinct_members=3, random_state=fit_seed
    ).fit(data.X, data.y)
    scenarios = DEFAULT_SPACE.sample(QUERY_ROWS, query_seed)
    queries = np.array([scenario.as_features() for scenario in scenarios])
    expected = [label.item() for label in automl.predict(queries)]

    registry_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=tmp_dir))
    registry = ModelRegistry(registry_dir)
    registry.register("scream", automl, data.X, data.domains)
    server = serve_http(ServeService(registry.load("scream"), ServeConfig()))
    host, port = server.server_address[:2]
    connections = [http.client.HTTPConnection(host, port, timeout=10) for _ in range(CONNECTIONS)]
    served = Served(server, registry_dir, queries, expected, connections)
    for index in range(WARMUP_REQUESTS):
        request = Sent(index % QUERY_ROWS, monotonic())
        send_one(served, connections[index % CONNECTIONS], request)
        if not request.ok:
            served.close()
            raise RuntimeError(f"warm-up request {index} was not answered correctly")
    return served


def send_one(served: Served, connection, request: Sent) -> None:
    """POST one row; ``request.ok`` says whether the reply was correct."""
    body = json.dumps({"rows": [served.queries[request.row].tolist()]}).encode("utf-8")
    request.send = monotonic()
    try:
        connection.request("POST", "/predict", body=body, headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        payload = reply.read()
    except (OSError, http.client.HTTPException):
        request.recv = monotonic()
        connection.close()  # http.client reconnects on the next request
        return
    request.recv = monotonic()
    if reply.status == 200:
        request.ok = json.loads(payload)["labels"] == [served.expected[request.row]]


def drive(served: Served, schedule: np.ndarray, rows: np.ndarray) -> list[Sent]:
    """Send every request on its schedule; one thread per connection."""
    start = monotonic() + 0.05
    requests = [Sent(int(row), start + float(at)) for at, row in zip(schedule, rows)]
    cursor = iter(requests)
    lock = threading.Lock()

    def client(connection) -> None:
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            wait = request.due - monotonic()
            if wait > 0:
                threading.Event().wait(wait)
            send_one(served, connection, request)

    threads = [threading.Thread(target=client, args=(c,), name="perfbench-client") for c in served.connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def latency_ms(request: Sent) -> float:
    return (request.recv - request.due) * 1e3


def summarize_trace(spans: list[Span], requests: list[Sent], queries: np.ndarray, names) -> dict[str, float]:
    """Split each traced round trip into transport, dispatch, wait, predict and monitor."""
    out = dict.fromkeys(names, 0.0)
    out["netsim.fluid.calls"] = len(by_name(spans, "netsim.fluid"))
    out["netsim.fluid.busy_s"] = sum(s.duration for s in by_name(spans, "netsim.fluid"))
    out["automl.fit.calls"] = len(by_name(spans, "automl.fit"))
    proba = by_name(spans, "ml.predict_proba")
    out["ml.predict_proba.calls"] = len(proba)
    out["ml.predict_proba.rows"] = sum(s.info["rows"] for s in proba)
    out["ml.predict_proba.busy_s"] = sum(s.duration for s in proba)
    batches = sorted(by_name(spans, "serve.predict_batch"), key=lambda s: s.start)
    monitors = sorted(by_name(spans, "serve.monitor"), key=lambda s: s.start)
    engines = {id(s.parent): s for s in by_name(spans, "serve.engine")}
    out["serve.batch.calls"] = len(batches)
    out["serve.batch.rows_mean"] = statistics.fmean(s.info["rows"] for s in batches) if batches else 0.0

    parts: dict[str, list[float]] = {k: [] for k in ("rtt", "overhead", "dispatch", "wait", "predict", "monitor")}
    for post in by_name(spans, "serve.post"):
        owners = [r for r in requests if r.send <= post.start and post.end <= r.recv]
        if len(owners) > 1:  # both connections were busy: the row tells them apart
            owners = [r for r in owners if queries[r.row].tolist() == post.info["row"]]
        engine = engines.get(id(post))
        if not owners or engine is None:
            continue
        request = owners[0]
        batch = max(
            (b for b in batches if engine.start <= b.start and b.end <= engine.end),
            key=lambda b: b.end,
            default=None,
        )
        monitor = next((m for m in monitors if batch is not None and m.start >= batch.end), None)
        if batch is None or monitor is None or monitor.end > engine.end:
            continue
        rtt = request.recv - request.send
        parts["rtt"].append(rtt)
        parts["overhead"].append(rtt - post.duration)
        parts["dispatch"].append(post.duration - engine.duration)
        parts["wait"].append(engine.duration - batch.duration - monitor.duration)
        parts["predict"].append(batch.duration)
        parts["monitor"].append(monitor.duration)
    ms = {k: np.asarray(v) * 1e3 for k, v in parts.items()}
    if ms["rtt"].size:
        out["serve.http.overhead_p50_ms"] = float(np.median(ms["overhead"]))
        out["serve.http.overhead_p95_ms"] = float(np.percentile(ms["overhead"], 95))
        out["serve.http.slow_share"] = float(np.mean(ms["overhead"] > SLOW_OVERHEAD_MS))
        out["serve.dispatch_ms"] = float(np.median(ms["dispatch"]))
        out["serve.engine.wait_ms"] = float(np.median(ms["wait"]))
        out["serve.predict_ms"] = float(np.median(ms["predict"]))
        out["serve.monitor_ms"] = float(np.median(ms["monitor"]))
        out["serve.rtt_p50_ms"] = float(np.median(ms["rtt"]))
        out["serve.parts_sum_ms"] = sum(
            out[k] for k in ("serve.http.overhead_p50_ms", "serve.dispatch_ms", "serve.engine.wait_ms",
                             "serve.predict_ms", "serve.monitor_ms")
        )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, ctx) -> Workload:
    """Set up ``SETUP_ROUNDS`` times (median counts), then serve for ``seconds``."""
    result = Workload()
    ctx.tmp_dir.mkdir(parents=True, exist_ok=True)
    served = None
    rounds = []
    for _ in range(SETUP_ROUNDS):
        if served is not None:
            served.close()
        start = monotonic()
        served = set_up(seed, ctx.tmp_dir)
        rounds.append(ctx.sampler.reference_seconds(start, monotonic()))
    result.setup_s = ctx.import_s + statistics.median(rounds)
    ctx.sampler.stop()  # its signal handler would steal the GIL from request threads

    tracer = Tracer()
    calib_before = probe_ms()
    try:
        rng = check_random_state(input_seeds(seed)[3])
        shape = open_loop(int(RATE_RPS * seconds), RATE_RPS)
        schedule = arrival_times(shape, rng)
        rows = rng.integers(0, QUERY_ROWS, size=shape.n_requests)
        if trace:
            # Untraced first half, traced second half: the p50 difference is the overhead.
            half = shape.n_requests // 2
            untraced = drive(served, schedule[:half], rows[:half])
            layers.install(tracer)
            traced = drive(served, schedule[half:] - schedule[half - 1], rows[half:])
            spans = tracer.take()
            requests = untraced + traced
        else:
            requests = drive(served, schedule, rows)
    finally:
        tracer.unwrap()
        served.close()
    calib_after = probe_ms()

    result.latencies_ms = [latency_ms(r) for r in requests]
    result.tail_ms = percentile_tail(result.latencies_ms)
    result.offered = result.attempted = len(requests)
    result.failed = sum(not r.ok for r in requests)
    result.within_limit = sum(r.ok and latency_ms(r) <= LIMIT_MS for r in requests)
    result.check(result.failed == 0, f"{result.failed} of {len(requests)} requests failed or got labels unequal to offline predict")
    lateness = [(r.send - r.due) * 1e3 for r in requests]
    result.detail.update(
        rate_rps=RATE_RPS,
        requests=len(requests),
        connections=CONNECTIONS,
        tail="p95 (>= 200 requests)" if len(requests) >= 200 else "slowest request",
        late_p95_ms=float(np.percentile(lateness, 95)),
        slow_mode_share=sum(latency_ms(r) > SLOW_OVERHEAD_MS for r in requests) / len(requests),
    )
    if trace:
        layer = summarize_trace(spans, traced, served.queries, ctx.per_layer_units)
        layer["loadgen.late_p95_ms"] = float(np.percentile(lateness, 95))
        layer["host.calib_ms"] = (calib_before + calib_after) / 2
        layer["trace.overhead_share"] = (
            statistics.median(latency_ms(r) for r in traced) / statistics.median(latency_ms(r) for r in untraced) - 1.0
        )
        result.per_layer = layer
        result.detail["spans_of_traced_requests"] = totals(spans)
    return result
