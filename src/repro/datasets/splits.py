"""The paper's data-splitting protocol (§4, Datasets).

Both experiments share the same statistical machinery: a training portion,
a held-out portion divided into **20 test sets** (so balanced accuracies
can be compared with a paired Wilcoxon signed-rank test), and an unlabeled
**candidate pool** for the active-learning baselines.

- *Scream vs rest*: fixed counts — 1161 train, 4850 test (→ 20 sets),
  2000 uniformly sampled pool points; feedback adds 280 points.
- *Firewall*: fractions — 40 % train, 20 % test (→ 20 sets), 40 % pool;
  the whole split is repeated 5 times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..ml.model_selection import partition_evenly
from ..rng import RandomState, check_random_state
from .scream import LabeledDataset

__all__ = ["SplitBundle", "split_train_test_pool", "make_test_sets"]


@dataclass
class SplitBundle:
    """One experiment's worth of data splits."""

    train: LabeledDataset
    test_sets: list[LabeledDataset]
    pool: LabeledDataset

    @property
    def n_test_sets(self) -> int:
        return len(self.test_sets)

    def describe(self) -> str:
        return (
            f"train={self.train.n_samples}, "
            f"test={sum(t.n_samples for t in self.test_sets)} over {self.n_test_sets} sets, "
            f"pool={self.pool.n_samples}"
        )


def make_test_sets(dataset: LabeledDataset, k: int, *, random_state: RandomState = None) -> list[LabeledDataset]:
    """Partition a held-out dataset into ``k`` roughly equal test sets."""
    rng = check_random_state(random_state)
    parts = partition_evenly(dataset.n_samples, k, rng=rng)
    return [dataset.subset(part) for part in parts]


def split_train_test_pool(
    dataset: LabeledDataset,
    *,
    train_fraction: float = 0.4,
    test_fraction: float = 0.2,
    n_test_sets: int = 20,
    random_state: RandomState = None,
) -> SplitBundle:
    """Fraction-based split (the firewall protocol): train / test×k / pool.

    Whatever is left after train+test becomes the candidate pool.
    """
    if train_fraction <= 0 or test_fraction <= 0 or train_fraction + test_fraction >= 1.0:
        raise ValidationError(
            f"invalid fractions: train={train_fraction}, test={test_fraction}; must leave room for a pool"
        )
    rng = check_random_state(random_state)
    n = dataset.n_samples
    order = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    n_test = int(round(test_fraction * n))
    if min(n_train, n_test, n - n_train - n_test) < 1:
        raise ValidationError(f"dataset of {n} rows is too small for this split")
    train_idx = order[:n_train]
    test_idx = order[n_train : n_train + n_test]
    pool_idx = order[n_train + n_test :]
    test_dataset = dataset.subset(test_idx)
    return SplitBundle(
        train=dataset.subset(train_idx),
        test_sets=make_test_sets(test_dataset, n_test_sets, random_state=rng),
        pool=dataset.subset(pool_idx),
    )
