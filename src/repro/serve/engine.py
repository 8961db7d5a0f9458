"""The inference engine: micro-batched, bounded, deterministic.

Requests enter a bounded queue and a single batcher thread drains them
into micro-batches: the batcher blocks only for the first request, then
takes whatever else is already queued, up to ``max_batch`` rows.  A
lone request is served at once, and under load the queue fills while the
previous batch runs, so queue depth sizes the batch.  Each batch makes *one* vectorized pass through the registered
ensemble (:meth:`AutoMLClassifier.predict_batch`) and one pass through the
uncertainty monitor, then fans results back out per request.  Batching
is how a 1-vCPU service gets throughput: the ensemble's per-call fixed
cost (estimator dispatch, validation, alignment) is paid once per batch
instead of once per row.

Overload policy is *shed, don't block*: ``submit`` uses ``put_nowait``
and raises :class:`BackpressureError` when the queue is full, so a
caller learns about overload in microseconds instead of holding a
connection open.  Each request also carries a timeout; a reply that
misses it raises :class:`RequestTimeoutError` in the caller (the result
is discarded when it eventually arrives).

Determinism: predictions are computed by the same fitted ensemble code
path as offline ``AutoML.predict`` — batching changes *when* rows are
evaluated, never *what* is computed for them.  The engine reads the
clock only through :mod:`repro.runtime.clock` (deadlines and latency
metrics — budget logic, per RL004), and draws no randomness at all.

Shadow mirroring: a :class:`ShadowMirror` attached via
:meth:`InferenceEngine.attach_shadow` replays a deterministic fraction
of served batches through a *candidate* model — after the real replies
have already been delivered, so mirroring can never change served bytes
or add to served latency beyond sharing the batcher thread.  Batch
selection uses an error-accumulator (``fraction`` added per batch, fire
on overflow), not randomness, so a traffic trace mirrors identically on
every run.  The mirror is how the retraining loop's shadow evaluation
(:mod:`repro.loop`) sees live traffic.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from typing import Any

import numpy as np

from ..exceptions import BackpressureError, RequestTimeoutError, ServeError, ValidationError
from ..runtime.clock import Deadline, Stopwatch
from .metrics import MetricsRegistry
from .monitor import UncertaintyMonitor
from .registry import ModelBundle

__all__ = ["ServeConfig", "InferenceEngine", "Prediction", "ShadowMirror"]

#: Queue sentinel that tells the batcher thread to exit.
_SHUTDOWN = object()


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`InferenceEngine`.

    ``max_batch`` caps the rows one ensemble call evaluates; a batch is
    whatever is queued when the batcher is free, up to that cap.
    ``queue_bound`` is the backpressure line — requests beyond it are
    shed, not buffered.
    ``labeling_snapshot`` (a file path) makes the labeling queue durable:
    offered/drained entries are journaled to an append-only JSONL so a
    restart restores pending labels.
    """

    max_batch: int = 32
    queue_bound: int = 256
    request_timeout: float = 10.0
    disagreement_threshold: float | None = None
    labeling_snapshot: str | None = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_bound < 1:
            raise ValidationError(f"queue_bound must be >= 1, got {self.queue_bound}")
        if self.request_timeout <= 0:
            raise ValidationError(f"request_timeout must be positive, got {self.request_timeout}")


@dataclasses.dataclass(frozen=True)
class Prediction:
    """One request's result: labels plus the uncertainty verdicts."""

    labels: list
    proba: np.ndarray  # (n_points, n_classes)
    in_uncertain_region: list[bool]
    in_feedback_region: list[bool]
    disagreement: list[float]

    def to_json(self) -> dict[str, Any]:
        return {
            "labels": self.labels,
            "proba": self.proba.tolist(),
            "in_uncertain_region": self.in_uncertain_region,
            "in_feedback_region": self.in_feedback_region,
            "disagreement": self.disagreement,
        }


class ShadowMirror:
    """Deterministic candidate-traffic mirror for shadow evaluation.

    Attached to an :class:`InferenceEngine`, the mirror replays a
    configurable ``fraction`` of served batches through a candidate
    model.  Selection is an error-accumulator — ``fraction`` is added
    per batch and a batch mirrors when the accumulator overflows 1 — so
    the mirrored subset is an exact, reproducible function of batch
    order, with no randomness (RL001) and no clock.  Mirrored rows are
    buffered (bounded by ``max_rows``) so the promotion gate can
    recompute ALE curves on *actual* traffic, and per-row label
    agreement with the served model is tallied as it goes.

    Candidate predictions are computed after the served replies are
    delivered and are never returned to any caller: a mirror can slow
    the batcher (that cost is bounded by ``fraction``), but it cannot
    change a single served byte.
    """

    def __init__(self, automl: Any, *, fraction: float = 0.25, max_rows: int = 4096):
        if not 0.0 < fraction <= 1.0:
            raise ValidationError(f"shadow fraction must be in (0, 1], got {fraction}")
        if max_rows < 1:
            raise ValidationError(f"max_rows must be >= 1, got {max_rows}")
        self.automl = automl
        self.fraction = float(fraction)
        self.max_rows = int(max_rows)
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self.mirrored_batches = 0
        self.mirrored_rows = 0
        self.matches = 0
        self.errors = 0

    def take(self) -> bool:
        """Deterministically decide whether the next batch mirrors."""
        with self._lock:
            self._accumulator += self.fraction
            if self._accumulator >= 1.0 - 1e-12:
                self._accumulator -= 1.0
                return True
            return False

    def observe(self, X: np.ndarray, served_labels) -> int | None:
        """Mirror one batch; returns the agreement count (``None`` on error)."""
        try:
            candidate_labels = self.automl.predict(X)
        except Exception:
            with self._lock:
                self.errors += 1
            return None
        matches = int(np.sum(np.asarray(candidate_labels) == np.asarray(served_labels)))
        with self._lock:
            self.mirrored_batches += 1
            self.mirrored_rows += int(X.shape[0])
            self.matches += matches
            room = self.max_rows - self._buffered
            if room > 0:
                kept = np.array(X[:room], dtype=np.float64)
                self._buffer.append(kept)
                self._buffered += kept.shape[0]
        return matches

    def rows(self) -> np.ndarray:
        """The buffered mirrored traffic, ``(n, n_features)`` (may be empty)."""
        with self._lock:
            if not self._buffer:
                return np.empty((0, 0))
            return np.concatenate(self._buffer, axis=0)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            agreement = self.matches / self.mirrored_rows if self.mirrored_rows else None
            return {
                "fraction": self.fraction,
                "mirrored_batches": self.mirrored_batches,
                "mirrored_rows": self.mirrored_rows,
                "matches": self.matches,
                "agreement": agreement,
                "buffered_rows": self._buffered,
                "errors": self.errors,
            }


class _PendingRequest:
    """A submitted batch of rows waiting for its reply.

    ``on_complete`` is the non-blocking completion path: the batcher
    invokes it (after ``result``/``error`` is set and ``event`` fired)
    from its own thread, so an event-loop transport can be woken without
    parking a thread per request.  The callback must not raise and must
    not block; a buggy one is swallowed so it can never wedge the
    batcher.
    """

    __slots__ = ("X", "event", "result", "error", "stopwatch", "on_complete")

    def __init__(self, X: np.ndarray, stopwatch: Stopwatch, on_complete=None):
        self.X = X
        self.event = threading.Event()
        self.result: Prediction | None = None
        self.error: BaseException | None = None
        self.stopwatch = stopwatch
        self.on_complete = on_complete

    def deliver(self) -> None:
        """Fire the event, then the completion callback (exactly once)."""
        self.event.set()
        if self.on_complete is not None:
            try:
                self.on_complete(self)
            except Exception:
                pass  # a transport bug must not take down the batcher


class InferenceEngine:
    """Micro-batching prediction service over one registered model bundle."""

    def __init__(
        self,
        bundle: ModelBundle,
        config: ServeConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.bundle = bundle
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.monitor = UncertaintyMonitor(
            bundle.report,
            disagreement_threshold=self.config.disagreement_threshold,
            snapshot_path=self.config.labeling_snapshot,
        )
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_bound)
        self._closed = threading.Event()
        self._drain_shutdown = False  # batcher-thread-only: sentinel seen mid-batch
        self._shadow: ShadowMirror | None = None
        # Accepted requests whose batch (including its post-reply shadow
        # work) has not finished yet; quiesce() waits on this.
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        # Pre-create every instrument so /metrics shows zeros, not holes.
        for name in (
            "requests",
            "points",
            "shed",
            "timeouts",
            "errors",
            "uncertain_points",
            "batches",
            "shadow_batches",
            "shadow_rows",
            "shadow_mismatches",
            "shadow_errors",
        ):
            self.metrics.counter(name)
        for name in ("batch_size", "queue_depth", "latency_seconds"):
            self.metrics.histogram(name)
        self._batcher = threading.Thread(target=self._batch_loop, name="repro-serve-batcher", daemon=True)
        self._batcher.start()

    # -- client side -------------------------------------------------------

    def submit(self, X, *, on_complete=None) -> _PendingRequest:
        """Enqueue one request (one or more rows); sheds instead of blocking.

        Parameters
        ----------
        X:
            The request rows, ``(n_points, n_features)``.
        on_complete:
            Optional callback invoked from the batcher thread once the
            request's ``result`` or ``error`` is set — the hand-off an
            event-loop transport uses instead of blocking in
            :meth:`predict`.  Must be fast and non-raising.
        """
        if self._closed.is_set():
            raise ServeError("inference engine is closed")
        try:
            X = np.asarray(X)
            # A float64 cast would parse "1.5" as 1.5: strings are not numbers here.
            if X.dtype.kind not in "US":
                X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as error:
            raise ValidationError(f"request rows must be a rectangular array of numbers: {error}") from error
        if X.dtype.kind in "US":
            raise ValidationError(f"request rows must be numbers, got strings ({X.dtype})")
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValidationError(f"requests must be (n_points, n_features) with n_points >= 1, got {X.shape}")
        if X.shape[1] != self.bundle.n_features:
            raise ValidationError(
                f"model {self.bundle.name!r} expects {self.bundle.n_features} features, got {X.shape[1]}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("request contains NaN or infinite values")
        pending = _PendingRequest(X, Stopwatch(), on_complete)
        with self._inflight_cond:
            self._inflight += 1  # before the put: the batcher may drain it instantly
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()
            self.metrics.counter("shed").inc()
            raise BackpressureError(
                f"inference queue is full ({self.config.queue_bound} pending requests); retry later"
            ) from None
        self.metrics.counter("requests").inc()
        self.metrics.counter("points").inc(X.shape[0])
        self.metrics.histogram("queue_depth").observe(self._queue.qsize())
        return pending

    def predict(self, X, *, timeout: float | None = None) -> Prediction:
        """Submit and wait: the blocking convenience the clients use."""
        pending = self.submit(X)
        timeout = self.config.request_timeout if timeout is None else timeout
        if not pending.event.wait(timeout):
            self.metrics.counter("timeouts").inc()
            raise RequestTimeoutError(f"no reply within {timeout:.3f}s (service overloaded or wedged)")
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # -- batcher side ------------------------------------------------------

    def _collect_batch(self, first: Any) -> list[_PendingRequest]:
        """Grow a batch from ``first`` with what is already queued, up to max_batch rows."""
        batch = [first]
        rows = first.X.shape[0]
        while rows < self.config.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Never re-post: a racing submit could have taken the freed
                # slot, and a blocking put here would wedge the batcher.
                self._drain_shutdown = True
                break
            batch.append(item)
            rows += item.X.shape[0]
        return batch

    def _batch_loop(self) -> None:
        while not self._drain_shutdown:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = self._collect_batch(item)
            try:
                self._process(batch)
            finally:
                with self._inflight_cond:
                    self._inflight -= len(batch)
                    self._inflight_cond.notify_all()

    def _process(self, batch: list[_PendingRequest]) -> None:
        X = np.concatenate([pending.X for pending in batch], axis=0)
        self.metrics.counter("batches").inc()
        self.metrics.histogram("batch_size").observe(X.shape[0])
        try:
            labels, proba, stack = self.bundle.automl.predict_batch(X)
            verdicts = self.monitor.evaluate(X, stack)
        except BaseException as error:  # delivered to every waiter, not swallowed
            self.metrics.counter("errors").inc(len(batch))
            for pending in batch:
                pending.error = error
                pending.deliver()
            return
        self.metrics.counter("uncertain_points").inc(int(verdicts["uncertain"].sum()))
        offset = 0
        for pending in batch:
            rows = slice(offset, offset + pending.X.shape[0])
            offset += pending.X.shape[0]
            pending.result = Prediction(
                labels=[label.item() if isinstance(label, np.generic) else label for label in labels[rows]],
                proba=proba[rows],
                in_uncertain_region=[bool(flag) for flag in verdicts["uncertain"][rows]],
                in_feedback_region=[bool(flag) for flag in verdicts["in_region"][rows]],
                disagreement=[float(d) for d in verdicts["disagreement"][rows]],
            )
            self.metrics.histogram("latency_seconds").observe(pending.stopwatch.elapsed())
            pending.deliver()
        # Mirroring runs strictly after every reply above was delivered:
        # the candidate sees the batch, callers never see the candidate.
        shadow = self._shadow
        if shadow is not None and shadow.take():
            matched = shadow.observe(X, labels)
            if matched is None:
                self.metrics.counter("shadow_errors").inc()
            else:
                self.metrics.counter("shadow_batches").inc()
                self.metrics.counter("shadow_rows").inc(X.shape[0])
                self.metrics.counter("shadow_mismatches").inc(X.shape[0] - matched)

    # -- shadow evaluation -------------------------------------------------

    def attach_shadow(self, mirror: ShadowMirror) -> None:
        """Start mirroring a fraction of traffic to ``mirror``'s candidate."""
        self._shadow = mirror

    def detach_shadow(self) -> ShadowMirror | None:
        """Stop mirroring; returns the mirror (with its accumulated stats)."""
        mirror, self._shadow = self._shadow, None
        return mirror

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait until every accepted request has been fully processed.

        "Fully" includes the post-reply shadow work: a caller that saw
        its reply may still race the batcher's mirroring of that batch,
        so anything that reads mirror or shadow-counter state (the
        retraining loop's tick does) must quiesce first to be
        deterministic with respect to completed traffic.  Returns False
        on timeout instead of raising — staleness is tolerable, a
        wedged caller is not.
        """
        deadline = Deadline(timeout)
        with self._inflight_cond:
            while self._inflight:
                remaining = deadline.remaining()
                if remaining is not None and remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
        return True

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop the batcher; queued requests are still processed first.

        Requests that raced ``close()`` and were enqueued *after* the
        shutdown sentinel can never be batched — the batcher has already
        exited.  Abandoning them would wedge their waiters until their
        timeout, so they are drained here and failed fast with a typed
        :class:`ServeError` (delivered through the normal reply path,
        callbacks included).
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_SHUTDOWN)
        self._batcher.join(timeout)
        if self._batcher.is_alive():
            # Wedged mid-batch: the queue (sentinel included) still belongs
            # to the batcher; draining it here would strand the batcher on
            # an empty queue.  Waiters fall back to their own timeouts.
            return
        leftovers: list[_PendingRequest] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        for pending in leftovers:
            pending.error = ServeError("inference engine closed before this request was batched")
            pending.deliver()
        if leftovers:
            self.metrics.counter("errors").inc(len(leftovers))
            with self._inflight_cond:
                self._inflight -= len(leftovers)
                self._inflight_cond.notify_all()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
