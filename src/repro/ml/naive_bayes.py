"""Gaussian naive Bayes classifier.

Naive Bayes is the canonical example in the paper's discussion of priors
(§1): its conditional-independence assumption is exactly the kind of domain
prior a customization wrapper could inject.  :mod:`repro.domain` builds on
the Gaussian variant for that reason.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y

__all__ = ["GaussianNB"]


class GaussianNB(BaseEstimator, ClassifierMixin):
    """Gaussian naive Bayes with per-class diagonal covariance.

    ``var_smoothing`` adds a fraction of the largest feature variance to
    every per-class variance, avoiding degenerate zero-variance features.
    """

    def __init__(self, *, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValidationError(f"var_smoothing must be >= 0, got {var_smoothing}")
        self.var_smoothing = var_smoothing

    def fit(self, X, y) -> "GaussianNB":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        k = self.n_classes_
        d = X.shape[1]
        self.theta_ = np.zeros((k, d))
        self.var_ = np.zeros((k, d))
        self.class_prior_ = np.zeros(k)
        epsilon = self.var_smoothing * max(X.var(axis=0).max(), 1e-12)
        for c in range(k):
            members = X[encoded == c]
            self.theta_[c] = members.mean(axis=0)
            self.var_[c] = members.var(axis=0) + epsilon
            self.class_prior_[c] = members.shape[0] / X.shape[0]
        self.n_features_ = d
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        jll = np.zeros((X.shape[0], self.n_classes_))
        for c in range(self.n_classes_):
            log_det = np.sum(np.log(2.0 * np.pi * self.var_[c]))
            mahalanobis = np.sum((X - self.theta_[c]) ** 2 / self.var_[c], axis=1)
            jll[:, c] = np.log(self.class_prior_[c]) - 0.5 * (log_det + mahalanobis)
        return jll

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "theta_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        likelihood = np.exp(jll)
        return likelihood / likelihood.sum(axis=1, keepdims=True)
