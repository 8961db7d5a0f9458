"""AutoML substrate: random search + Caruana ensemble selection.

The stand-in for AutoSklearn in this reproduction.  The central property
the paper relies on — that AutoML emits an *ensemble of diverse,
individually strong models* usable as a query-by-committee committee — is
preserved: :class:`AutoMLClassifier` exposes its fitted members via
``ensemble_members_``.
"""

from .automl import AutoMLClassifier
from .ensemble import EnsembleClassifier, greedy_ensemble_selection
from .spec import AutoMLSpec
from .halving import SuccessiveHalvingSearch
from .pipeline import Pipeline
from .search import EvaluatedCandidate, RandomSearch, SearchResult
from .spaces import (
    Candidate,
    Categorical,
    FloatRange,
    IntRange,
    ModelFamily,
    default_model_families,
    sample_candidate,
)

__all__ = [
    "AutoMLClassifier",
    "AutoMLSpec",
    "EnsembleClassifier",
    "greedy_ensemble_selection",
    "Pipeline",
    "RandomSearch",
    "SuccessiveHalvingSearch",
    "SearchResult",
    "EvaluatedCandidate",
    "Candidate",
    "Categorical",
    "IntRange",
    "FloatRange",
    "ModelFamily",
    "default_model_families",
    "sample_candidate",
]
