"""Domain-customized AutoML: applying operator priors to the search.

The wrapper the paper's §1 envisions, built from the pieces this library
already has:

1. **irrelevant features** are dropped before the search;
2. **independence groups** become the covariance mask of a
   :class:`StructuredGaussianClassifier` family added to the search space
   (the "modified models the AutoML framework can then include in its
   search");
3. **monotonicity priors** are enforced *after* the search by checking each
   ensemble member's ALE curve for the constrained feature and evicting
   members that learned the wrong direction — interpretation machinery
   reused as a model-validation tool.

The wrapper exposes the same classifier protocol as
:class:`repro.automl.AutoMLClassifier`, including ``ensemble_members_`` so
the feedback algorithm composes with it unchanged.
"""

from __future__ import annotations

import numpy as np

from ..automl.automl import AutoMLClassifier
from ..automl.ensemble import EnsembleClassifier
from ..automl.spaces import FloatRange, ModelFamily, default_model_families
from ..core.ale import ale_curve, make_grid
from ..exceptions import ValidationError
from ..ml.base import check_is_fitted, check_X_y
from ..rng import RandomState
from .gaussian import StructuredGaussianClassifier
from .priors import INCREASING, DomainSpec

__all__ = ["DomainCustomizedAutoML"]


class _ColumnSubsetModel:
    """Adapter exposing a model fit on selected columns as a full-width one."""

    def __init__(self, model, columns: np.ndarray):
        self._model = model
        self._columns = columns

    @property
    def classes_(self):
        return self._model.classes_

    def predict(self, X):
        return self._model.predict(np.asarray(X, dtype=np.float64)[:, self._columns])

    def predict_proba(self, X):
        return self._model.predict_proba(np.asarray(X, dtype=np.float64)[:, self._columns])


class DomainCustomizedAutoML:
    """AutoML constrained by a :class:`DomainSpec`.

    Accepts the same candidate-count budget and ensemble arguments as
    :class:`AutoMLClassifier`, plus the spec.  ``ale_grid_size`` controls
    the resolution of the monotonicity check; ``monotonicity_tolerance`` is
    the fraction of wrong-direction movement tolerated before a member is
    evicted.
    """

    def __init__(
        self,
        spec: DomainSpec,
        *,
        n_iterations: int = 30,
        ensemble_size: int = 10,
        min_distinct_members: int = 4,
        include_structured_gaussian: bool = True,
        ale_grid_size: int = 16,
        monotonicity_tolerance: float = 0.2,
        random_state: RandomState = None,
    ):
        if not 0.0 <= monotonicity_tolerance <= 1.0:
            raise ValidationError(f"monotonicity_tolerance must be in [0, 1], got {monotonicity_tolerance}")
        self.spec = spec
        self.n_iterations = n_iterations
        self.ensemble_size = ensemble_size
        self.min_distinct_members = min_distinct_members
        self.include_structured_gaussian = include_structured_gaussian
        self.ale_grid_size = ale_grid_size
        self.monotonicity_tolerance = monotonicity_tolerance
        self.random_state = random_state

    # -- search-space assembly ---------------------------------------------
    def _families(self) -> list[ModelFamily]:
        families = default_model_families()
        if self.include_structured_gaussian:
            mask = np.asarray(self.spec.covariance_mask(), dtype=bool)

            def factory(regularization: float = 1e-3) -> StructuredGaussianClassifier:
                return StructuredGaussianClassifier(
                    covariance_mask=mask, regularization=regularization
                )

            families.append(
                ModelFamily(
                    "structured_gaussian",
                    factory,
                    {"regularization": FloatRange(1e-4, 1e-1, log=True)},
                    stochastic=False,
                )
            )
        return families

    # -- fitting ---------------------------------------------------------
    def fit(self, X, y) -> "DomainCustomizedAutoML":
        X, y = check_X_y(X, y)
        if X.shape[1] != len(self.spec.feature_names):
            raise ValidationError(
                f"X has {X.shape[1]} columns but the spec names {len(self.spec.feature_names)} features"
            )
        self._columns = np.asarray(self.spec.kept_indices(), dtype=np.int64)
        X_kept = X[:, self._columns]
        automl = AutoMLClassifier(
            n_iterations=self.n_iterations,
            ensemble_size=self.ensemble_size,
            min_distinct_members=self.min_distinct_members,
            families=self._families(),
            random_state=self.random_state,
        )
        automl.fit(X_kept, y)
        self.base_automl_ = automl
        self.evicted_members_: list[tuple[object, str]] = []
        ensemble = self._apply_monotonicity(automl.ensemble_, X_kept)
        self.ensemble_ = EnsembleClassifier(
            [_ColumnSubsetModel(member, self._columns) for member in ensemble.members],
            ensemble.weights,
            ensemble.classes_,
        )
        self.classes_ = ensemble.classes_
        return self

    def _monotonicity_violation(self, member, X_kept: np.ndarray, feature: str, direction: int) -> float:
        """Fraction of the member's ALE movement going the wrong way."""
        kept_names = self.spec.kept_features()
        index = kept_names.index(feature)
        edges = make_grid(X_kept[:, index], grid_size=self.ale_grid_size)
        curve = ale_curve(member, X_kept, index, edges, feature_name=feature)
        # Use the last class's curve as "the positive direction" for binary
        # problems; for multi-class, monotonicity refers to that class too.
        values = curve.values[:, -1]
        steps = np.diff(values)
        movement = np.abs(steps).sum()
        if movement == 0:
            return 0.0
        wrong = steps < 0 if direction == INCREASING else steps > 0
        return float(np.abs(steps[wrong]).sum() / movement)

    def _apply_monotonicity(self, ensemble: EnsembleClassifier, X_kept: np.ndarray) -> EnsembleClassifier:
        if not self.spec.monotone:
            return ensemble
        kept_names = set(self.spec.kept_features())
        survivors, weights = [], []
        for member, weight in zip(ensemble.members, ensemble.weights):
            worst = 0.0
            worst_feature = None
            for feature, direction in self.spec.monotone.items():
                if feature not in kept_names:
                    continue
                violation = self._monotonicity_violation(member, X_kept, feature, direction)
                if violation > worst:
                    worst, worst_feature = violation, feature
            if worst > self.monotonicity_tolerance:
                self.evicted_members_.append(
                    (member, f"violates monotone({worst_feature}) by {worst:.0%}")
                )
            else:
                survivors.append(member)
                weights.append(weight)
        if not survivors:
            # All members violate: keep the least-bad ensemble rather than
            # returning nothing, but record the situation.
            self.evicted_members_.append((None, "all members violated priors; ensemble kept as-is"))
            return ensemble
        return EnsembleClassifier(survivors, weights, ensemble.classes_)

    # -- classifier protocol ----------------------------------------------
    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict(np.asarray(X, dtype=np.float64))

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict_proba(np.asarray(X, dtype=np.float64))

    def score(self, X, y) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    @property
    def ensemble_members_(self) -> list:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.members

    def describe(self) -> str:
        check_is_fitted(self, "ensemble_")
        lines = [self.spec.describe(), f"ensemble of {len(self.ensemble_)} member(s) after prior enforcement"]
        for _, reason in self.evicted_members_:
            lines.append(f"  evicted: {reason}")
        return "\n".join(lines)
