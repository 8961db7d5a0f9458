"""From-scratch machine-learning substrate.

A compact, numpy-only reimplementation of the model families an
AutoSklearn-style system searches over, plus the preprocessing, metrics and
model-selection utilities the rest of the library needs.  The estimator
protocol intentionally mirrors scikit-learn (``fit`` / ``predict`` /
``predict_proba`` / ``get_params``).
"""

from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y, clone
from .boosting import GradientBoostingClassifier
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .kernels import TreeBank
from .linear import LogisticRegression, softmax
from .metrics import accuracy, balanced_accuracy
from .model_selection import partition_evenly, stratified_split_indices, train_test_split
from .naive_bayes import GaussianNB
from .neighbors import KNeighborsClassifier
from .preprocessing import IdentityTransformer, MinMaxScaler, StandardScaler
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "clone",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "ExtraTreesClassifier",
    "GradientBoostingClassifier",
    "TreeBank",
    "LogisticRegression",
    "softmax",
    "GaussianNB",
    "KNeighborsClassifier",
    "StandardScaler",
    "MinMaxScaler",
    "IdentityTransformer",
    "accuracy",
    "balanced_accuracy",
    "train_test_split",
    "stratified_split_indices",
    "partition_evenly",
]
