"""In-memory spans around calls into the program's layers.

The program has no tracing of its own, so the traced run wraps the
public functions each layer exposes, at the attribute where callers look
them up (a module global for module functions, the class for methods).
Each call becomes a :class:`Span` with its thread, start, end and parent
span.  Spans stay in memory until the benchmark summarises them; nothing
is written while the workload runs.

A span's *self time* is its duration minus the time its child spans
cover.  Children of a span run on its thread, strictly inside it, and do
not overlap, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.clock import monotonic


@dataclass
class Span:
    name: str
    thread: int
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def has_ancestor(self, name: str) -> bool:
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


Annotate = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Wraps functions so that every call records a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, annotate: Annotate | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unwrap`."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, threading.get_ident(), monotonic(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = monotonic()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                with tracer._lock:
                    tracer.spans.append(span)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def by_name(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.self_s
    return out
