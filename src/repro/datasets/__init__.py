"""Datasets for the paper's two running examples.

- :func:`generate_scream_dataset` / :class:`ScreamOracle` — the
  congestion-control example, labeled by the :mod:`repro.netsim` emulator;
- :func:`generate_firewall_dataset` — synthetic internet-firewall logs
  standing in for the UCI dataset of §4.2;
- :mod:`repro.datasets.splits` — the paper's train/test×20/pool protocol.
"""

from .firewall import FIREWALL_ACTIONS, FIREWALL_FEATURES, firewall_domains, generate_firewall_dataset
from .scream import (
    SCREAM_NEGATIVE,
    SCREAM_POSITIVE,
    LabeledDataset,
    ScreamOracle,
    generate_scream_dataset,
)
from .splits import SplitBundle, make_test_sets, split_train_test_pool

__all__ = [
    "LabeledDataset",
    "ScreamOracle",
    "generate_scream_dataset",
    "SCREAM_POSITIVE",
    "SCREAM_NEGATIVE",
    "generate_firewall_dataset",
    "FIREWALL_FEATURES",
    "FIREWALL_ACTIONS",
    "firewall_domains",
    "SplitBundle",
    "make_test_sets",
    "split_train_test_pool",
]
