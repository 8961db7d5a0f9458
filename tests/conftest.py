"""Shared fixtures.

Expensive artifacts (emulator-labeled datasets, fitted AutoML ensembles)
are session-scoped so the suite stays fast; tests must treat them as
read-only.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.automl import AutoMLClassifier
from repro.core import FeatureDomain
from repro.datasets import generate_firewall_dataset, generate_scream_dataset
from repro.runtime.clock import Deadline


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running after it returns.

    An unclosed engine, server, mirror or process pool shows
    up here.  Threads the test started get 2 s in total to exit.
    """
    before = set(threading.enumerate())
    yield
    deadline = Deadline(2.0)
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(deadline.remaining())
    alive = sorted(thread.name for thread in started if thread.is_alive())
    if alive:
        pytest.fail(f"test left {len(alive)} thread(s) running: {', '.join(alive)}")


@pytest.fixture(scope="session")
def blobs_2class():
    """Two well-separated Gaussian blobs: the 'any sane model works' set."""
    rng = np.random.default_rng(42)
    n = 150
    X0 = rng.normal(loc=(-2.0, 0.0), scale=0.8, size=(n, 2))
    X1 = rng.normal(loc=(2.0, 1.0), scale=0.8, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    order = rng.permutation(2 * n)
    return X[order], y[order]


@pytest.fixture(scope="session")
def blobs_3class():
    """Three-class blobs for multi-class paths."""
    rng = np.random.default_rng(43)
    n = 90
    centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 3.5)]
    parts = [rng.normal(loc=c, scale=0.9, size=(n, 2)) for c in centers]
    X = np.vstack(parts)
    y = np.repeat([0, 1, 2], n)
    order = rng.permutation(3 * n)
    return X[order], y[order]


@pytest.fixture(scope="session")
def nonlinear_xor():
    """XOR-ish problem linear models cannot solve (tree sanity checks)."""
    rng = np.random.default_rng(44)
    n = 400
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


@pytest.fixture(scope="session")
def unit_domains():
    return [FeatureDomain("f0", 0.0, 1.0), FeatureDomain("f1", 0.0, 1.0)]


@pytest.fixture(scope="session")
def scream_data():
    """A small emulator-labeled Scream-vs-rest dataset (session cached)."""
    return generate_scream_dataset(160, random_state=123)


@pytest.fixture(scope="session")
def firewall_data():
    """A small synthetic firewall dataset (session cached)."""
    return generate_firewall_dataset(1500, random_state=321)


@pytest.fixture(scope="session")
def fitted_automl(scream_data):
    """One fitted AutoML run on the scream data, reused across tests."""
    automl = AutoMLClassifier(
        n_iterations=8, ensemble_size=5, min_distinct_members=3, random_state=7
    )
    return automl.fit(scream_data.X, scream_data.y)


@pytest.fixture(scope="session")
def served_scream_registry(tmp_path_factory, fitted_automl, scream_data):
    """A session registry with the shared ensemble as ``scream`` v1.

    Read-only by contract: tests that mutate manifest state (promotion,
    rollback) must build their own registry in a tmp_path.
    """
    from repro.serve import ModelRegistry

    registry = ModelRegistry(tmp_path_factory.mktemp("served-scream"))
    registry.register("scream", fitted_automl, scream_data.X, scream_data.domains)
    return registry
