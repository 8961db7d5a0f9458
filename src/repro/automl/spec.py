"""A picklable recipe for building :class:`AutoMLClassifier` instances.

The experiment harness historically described "an AutoML configuration"
as a closure ``rng -> AutoMLClassifier``.  Closures cannot cross a process
boundary, which the :mod:`repro.runtime` executors need to do constantly
(every Cross-ALE run and every strategy refit is an ``automl.fit`` task).
:class:`AutoMLSpec` is the same idea as plain data: frozen, picklable,
hashable into a cache key by its fields, and callable with a generator so
every existing ``automl_factory(rng)`` call site works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from .automl import AutoMLClassifier
from .spaces import ModelFamily

__all__ = ["AutoMLSpec"]


@dataclass(frozen=True)
class AutoMLSpec:
    """Constructor arguments of :class:`AutoMLClassifier`, minus the seed.

    ``n_iterations`` (the candidate count) is the whole search budget, so
    the spec plus a seed fixes every fitted byte.  ``scorer`` must be a
    module-level function (pickled by reference) and ``families`` a tuple
    of :class:`ModelFamily` — both requirements come from the process
    boundary, not from this class.
    """

    n_iterations: int = 30
    ensemble_size: int = 10
    min_distinct_members: int = 4
    families: tuple[ModelFamily, ...] | None = None
    scorer: Callable[[np.ndarray, np.ndarray], float] | None = None

    def build(self, random_state) -> AutoMLClassifier:
        """Construct the classifier this spec describes, seeded by ``random_state``."""
        kwargs: dict[str, Any] = {field.name: getattr(self, field.name) for field in fields(self)}
        families = kwargs.pop("families")
        return AutoMLClassifier(
            families=list(families) if families is not None else None,
            random_state=random_state,
            **kwargs,
        )

    def __call__(self, random_state) -> AutoMLClassifier:
        return self.build(random_state)
