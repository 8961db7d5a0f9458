"""Feature preprocessing transformers.

These are the preprocessing steps the AutoML pipelines search over:
standardization, min-max scaling, or none.  All follow the
``fit``/``transform`` protocol from :mod:`repro.ml.base`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .base import BaseEstimator, check_array, check_is_fitted

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "IdentityTransformer",
]


class IdentityTransformer(BaseEstimator):
    """No-op transformer, used as the 'no preprocessing' pipeline choice."""

    def fit(self, X, y=None) -> "IdentityTransformer":
        self.n_features_ = check_array(X).shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "n_features_")
        return check_array(X)

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance.

    Constant columns are left centered but unscaled (divisor forced to 1)
    so transform never divides by zero.  So are columns whose variance
    underflows (std below ``sqrt(tiny)``): their std is inexact.
    """

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < np.sqrt(np.finfo(np.float64).tiny)] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "mean_")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValidationError(f"expected {self.mean_.shape[0]} features, got {X.shape[1]}")
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, "mean_")
        X = check_array(X)
        return X * self.scale_ + self.mean_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class MinMaxScaler(BaseEstimator):
    """Scale features to the ``[0, 1]`` range seen during fit."""

    def fit(self, X, y=None) -> "MinMaxScaler":
        X = check_array(X)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "min_")
        X = check_array(X)
        if X.shape[1] != self.min_.shape[0]:
            raise ValidationError(f"expected {self.min_.shape[0]} features, got {X.shape[1]}")
        return (X - self.min_) / self.span_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)
