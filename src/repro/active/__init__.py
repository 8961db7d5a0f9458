"""Active-learning baselines and label-imbalance treatments (§4 benchmarks).

- :func:`sample_uniform` — uniform feature-space sampling;
- :func:`select_least_confident` — confidence-based uncertainty sampling;
- :func:`select_by_committee` — QBC with vote entropy over the AutoML
  ensemble;
- :func:`random_oversample` — upsampling;
- :func:`merge_labeled` — deterministic augmentation merge for the
  online retraining loop.
"""

from .augment import merge_labeled
from .confidence import least_confidence_scores, select_least_confident
from .qbc import consensus_kl, select_by_committee, vote_entropy
from .uniform import sample_uniform
from .upsampling import random_oversample

__all__ = [
    "sample_uniform",
    "least_confidence_scores",
    "select_least_confident",
    "vote_entropy",
    "consensus_kl",
    "select_by_committee",
    "random_oversample",
    "merge_labeled",
]
