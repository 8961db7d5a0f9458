"""Built-in task functions every worker can resolve by name.

Task functions take ``(payload, ctx)`` — a picklable mapping plus a
:class:`~repro.runtime.task.TaskContext` carrying the generator the task's
seed path names — and return a picklable artifact.  They are registered at
import time; :func:`repro.runtime.task.execute_task` imports this
module, so a freshly spawned worker process sees the same registry as the
submitting process.

``automl.fit`` serves the grid's fits and the retraining loop's refit;
its estimator factory travels in the payload, so nothing here imports
a layer above the runtime.

The ``probe.*`` family exists for diagnostics and fault-injection tests:
cheap, dependency-free tasks that exercise the seed-path, ordering and
failure machinery without dragging an AutoML fit into every test.

Layers above the runtime contribute their own task families under
qualified ``"module:function"`` names (e.g. the experiment grid cells in
:mod:`repro.experiments.tasks`); those register when their module is
imported — on demand in a worker, via :func:`repro.runtime.task.resolve_task`
— and never appear here, keeping the import DAG acyclic.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from ..exceptions import ValidationError
from .task import TaskContext, task

__all__ = ["automl_fit"]


@task("automl.fit")
def automl_fit(payload: Mapping[str, Any], ctx: TaskContext) -> Any:
    """Fit one AutoML run: ``factory(rng).fit(X, y)``.

    ``factory`` must be a picklable callable taking a generator (e.g.
    :class:`repro.automl.spec.AutoMLSpec`; closures only work with the
    serial executor).  The generator comes exclusively from the task's
    seed path, so the fitted artifact is a pure function of the payload
    plus path — exactly what the artifact cache keys on.
    """
    if ctx.rng is None:
        raise ValidationError("automl.fit needs a seed path (AutoML search is stochastic)")
    factory = payload["factory"]
    return factory(ctx.rng).fit(payload["X"], payload["y"])


# -- probes (diagnostics & fault injection) --------------------------------


@task("probe.draw")
def probe_draw(payload: Mapping[str, Any], ctx: TaskContext) -> Any:
    """Draw ``n`` integers below ``high`` from the task's stream.

    The canonical determinism probe: identical seed paths must yield
    identical draws on any executor, any worker, any schedule.
    """
    if ctx.rng is None:
        raise ValidationError("probe.draw needs a seed path")
    return ctx.rng.integers(0, int(payload.get("high", 1_000_000)), size=int(payload["n"])).tolist()


@task("probe.sleep")
def probe_sleep(payload: Mapping[str, Any], ctx: TaskContext) -> Any:
    """Sleep ``seconds`` then return ``value`` (result-order probe)."""
    time.sleep(float(payload["seconds"]))
    return payload.get("value")


@task("probe.fail")
def probe_fail(payload: Mapping[str, Any], ctx: TaskContext) -> Any:
    """Always raise (failure-path probe)."""
    raise RuntimeError("injected failure")
