"""Online serving for paper-grown AutoML artifacts (DESIGN.md §serve).

The paper's Section-4 proposal is a *deployed* domain-customized AutoML
loop: models serve traffic, the interpretable-feedback artifact rides
along, and uncertain points flow back to the operator for labeling.
This package is that loop's serving side, stdlib-only, in five pieces:

- :mod:`~repro.serve.registry` — versioned :class:`ModelRegistry` over
  the content-addressed artifact cache, with atomic promote/rollback;
- :mod:`~repro.serve.engine` — micro-batching :class:`InferenceEngine`
  with a bounded queue, shed-on-overload backpressure, and per-request
  timeouts;
- :mod:`~repro.serve.monitor` — :class:`UncertaintyMonitor` flagging
  points inside the registered feedback subspace or with live committee
  disagreement, feeding a bounded :class:`LabelingQueue`;
- :mod:`~repro.serve.service` / :mod:`~repro.serve.router` /
  :mod:`~repro.serve.http` / :mod:`~repro.serve.async_http` /
  :mod:`~repro.serve.client` — one façade serving one model per
  listener, one shared request dispatcher, and three ways in
  (in-process, threaded HTTP and event-loop HTTP JSON) with identical
  response shapes;
- :mod:`~repro.serve.metrics` — thread-safe counters and quantile
  histograms behind ``/metrics``.

``python -m repro serve`` and ``python -m repro registry`` expose the
package on the CLI.
"""

from .async_http import AsyncHTTPServer, serve_async_http
from .client import InProcessClient
from .engine import InferenceEngine, Prediction, ServeConfig, ShadowMirror
from .http import ServeHTTPServer, serve_http
from .metrics import Counter, Histogram, MetricsRegistry
from .monitor import LabelingQueue, UncertaintyMonitor, committee_disagreement
from .registry import ModelBundle, ModelRegistry, default_registry_dir
from .router import RequestDispatcher
from .service import ServeService, render_prediction

__all__ = [
    "ModelBundle",
    "ModelRegistry",
    "default_registry_dir",
    "ServeConfig",
    "InferenceEngine",
    "Prediction",
    "ShadowMirror",
    "UncertaintyMonitor",
    "LabelingQueue",
    "committee_disagreement",
    "ServeService",
    "render_prediction",
    "ServeHTTPServer",
    "serve_http",
    "AsyncHTTPServer",
    "serve_async_http",
    "RequestDispatcher",
    "InProcessClient",
    "MetricsRegistry",
    "Counter",
    "Histogram",
]
