"""Which program functions the traced run wraps, and what each layer should move.

Every workload installs the same wrappers, so a layer that should be
idle on a workload (the emulator while serving, say) shows a zero
instead of going unmeasured.  The per-layer metrics (listed in
``BENCHMARK.json``) and the end-to-end metric each should move:

- ``netsim.*`` — ``latency_p50_ms`` on ``grid_scream``, which can fall
  by at most ``netsim.fluid.share``; zero calls on the other workloads.
- ``datasets.*`` — ``latency_p50_ms`` on ``grid_scream``; the
  ``oracle_label`` figures count only labelling inside grid cells, so
  they split from dataset generation.
- ``automl.*``, ``ml.*``, ``core.*`` — ``latency_p50_ms`` on both grids
  (``grid_firewall`` most), and ``setup_s`` on ``serve_http``.
- ``runtime.*`` / ``experiments.*`` — grid latency and ``ok_share``;
  ``runtime.tasks.attempts`` over ``executed`` is the wasted work.
- ``serve.*`` — ``latency_p50_ms`` and ``latency_p95_ms`` on
  ``serve_http``.
- ``loadgen.*``, ``host.*``, ``trace.*`` — validity checks that no
  change should move.
"""

from __future__ import annotations

import numpy as np

from repro.automl.automl import AutoMLClassifier
from repro.automl.ensemble import EnsembleClassifier
from repro.core.feedback import AleFeedback
from repro.datasets import scream
from repro.experiments import runner, tasks
from repro.runtime.engine import TaskRuntime
from repro.serve.engine import InferenceEngine
from repro.serve.monitor import UncertaintyMonitor
from repro.serve.router import RequestDispatcher

from tracing import Tracer


def _input_rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _result_rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _candidates(args, kwargs, result):
    return {"candidates": len(result.search_result_.evaluated)}


def _task_names(args, kwargs, result):
    return {"fns": {task.fn_name for task in args[1]}}


def _posted_row(args, kwargs, result):
    rows = args[2].get("rows") or [None]
    return {"row": rows[0]}


def _strategy(args, kwargs, result):
    return {"strategy": args[0]}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where callers look them up."""
    tracer.wrap(scream, "run_fluid_scenario", "netsim.fluid")
    tracer.wrap(tasks, "generate_scream_dataset", "datasets.scream_generate")
    tracer.wrap(tasks, "generate_firewall_dataset", "datasets.firewall_generate")
    tracer.wrap(scream.ScreamOracle, "label", "datasets.oracle_label", _result_rows)
    tracer.wrap(AutoMLClassifier, "fit", "automl.fit", _candidates)
    tracer.wrap(EnsembleClassifier, "predict_proba", "ml.predict_proba", _input_rows)
    tracer.wrap(AleFeedback, "analyze", "core.ale_analyze")
    tracer.wrap(TaskRuntime, "run", "runtime.run", _task_names)
    tracer.wrap(runner, "run_strategy", "experiments.strategy", _strategy)
    tracer.wrap(RequestDispatcher, "post", "serve.post", _posted_row)
    tracer.wrap(InferenceEngine, "predict", "serve.engine")
    tracer.wrap(AutoMLClassifier, "predict_batch", "serve.predict_batch", _input_rows)
    tracer.wrap(UncertaintyMonitor, "evaluate", "serve.monitor")
