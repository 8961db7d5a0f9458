"""The "Scream vs rest" dataset (paper §2.1 example 2, evaluated in §4.1).

The paper labels network conditions with whether the SCReAM protocol
achieves the lowest end-to-end latency, using the Pantheon emulator as the
ground-truth oracle.  Here the oracle is :mod:`repro.netsim`: for a feature
vector (bottleneck bandwidth, RTT, loss rate, concurrent flows) SCReAM
"wins" if it has the best :meth:`~repro.netsim.FlowMetrics.latency_score`.
SCReAM is emulated first and the oracle stops at the first protocol that
beats it, so a negative label usually costs fewer than five runs.

Because labels come from an emulator, *any* point the feedback algorithm
suggests can be labeled — the property that separates the paper's
ALE-based feedback from pool-bound active learning.  :class:`ScreamOracle`
is that label-anything capability as an object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.subspace import FeatureDomain
from ..exceptions import ValidationError
from ..netsim.emulator import run_packet_scenario
from ..netsim.fluid import run_fluid_scenario
from ..netsim.cc import PROTOCOLS
from ..netsim.scenarios import DEFAULT_SPACE, ScenarioSpace
from ..rng import RandomState, check_random_state

__all__ = ["LabeledDataset", "ScreamOracle", "generate_scream_dataset", "SCREAM_POSITIVE", "SCREAM_NEGATIVE"]

SCREAM_POSITIVE = 1  # SCReAM achieves the best latency score
SCREAM_NEGATIVE = 0


@dataclass
class LabeledDataset:
    """A feature matrix with labels and feature metadata."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    domains: list[FeatureDomain]
    description: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValidationError(f"X/y length mismatch: {self.X.shape[0]} vs {self.y.shape[0]}")
        if self.X.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"{self.X.shape[1]} columns but {len(self.feature_names)} feature names"
            )

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def class_balance(self) -> dict:
        labels, counts = np.unique(self.y, return_counts=True)
        return {label: int(count) for label, count in zip(labels.tolist(), counts.tolist())}

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices)
        return LabeledDataset(
            X=self.X[indices],
            y=self.y[indices],
            feature_names=list(self.feature_names),
            domains=list(self.domains),
            description=self.description,
        )

    def extended(self, X_new, y_new) -> "LabeledDataset":
        """A new dataset with extra labeled rows appended (feedback loop)."""
        X_new = np.asarray(X_new, dtype=np.float64)
        y_new = np.asarray(y_new)
        return LabeledDataset(
            X=np.vstack([self.X, X_new]),
            y=np.concatenate([self.y, y_new]),
            feature_names=list(self.feature_names),
            domains=list(self.domains),
            description=self.description,
        )

    def save(self, path) -> None:
        """Persist to a ``.npz`` file (features, labels, metadata).

        Emulator-labeled data is expensive to generate; saving lets
        experiment pipelines cache it across processes.
        """
        domain_rows = np.array(
            [(d.name, d.low, d.high, d.integer) for d in self.domains], dtype=object
        )
        np.savez_compressed(
            path,
            X=self.X,
            y=self.y,
            feature_names=np.array(self.feature_names, dtype=object),
            domains=domain_rows,
            description=np.array(self.description),
        )

    @classmethod
    def load(cls, path) -> "LabeledDataset":
        """Load a dataset previously written by :meth:`save`."""
        with np.load(path, allow_pickle=True) as archive:
            domains = [
                FeatureDomain(str(name), float(low), float(high), bool(integer))
                for name, low, high, integer in archive["domains"]
            ]
            return cls(
                X=archive["X"],
                y=archive["y"],
                feature_names=[str(name) for name in archive["feature_names"]],
                domains=domains,
                description=str(archive["description"]),
            )


#: SCReAM's rivals, in the order the oracle emulates them: on uniform
#: scenarios, the protocols that most often beat SCReAM come first.
RIVAL_ORDER = ("vegas", "cubic", "reno", "bbr")


def scream_label(score) -> int:
    """Label one scenario from ``score(protocol)``, calling it as few times as possible.

    SCReAM is scored first: a score that is not ``< inf`` (disqualified or
    NaN) is a negative.  The rivals follow in :data:`RIVAL_ORDER`, and the
    first one that beats SCReAM ends the search with a negative.  The
    label is the one an argmin over every score below ``inf`` would give.
    """
    scream_score = score("scream")
    if not scream_score < float("inf"):
        return SCREAM_NEGATIVE  # "use scream" is unsupported where it cannot run
    for rival in RIVAL_ORDER:
        rival_score = score(rival)
        # The argmin takes the first minimum in sorted order, so a tie goes
        # to a rival whose name sorts before "scream".  NaN never beats it.
        if rival_score < scream_score or (rival_score == scream_score and rival < "scream"):
            return SCREAM_NEGATIVE
    return SCREAM_POSITIVE


class ScreamOracle:
    """Labels arbitrary network-condition feature vectors by emulation.

    Parameters
    ----------
    space:
        Feature ranges; out-of-range queries are clipped into the space.
    engine:
        ``'fluid'`` (fast, default) or ``'packet'`` (reference fidelity).
    min_share:
        Qualification threshold for the latency score (see
        :meth:`repro.netsim.FlowMetrics.latency_score`).
    """

    def __init__(
        self,
        space: ScenarioSpace = DEFAULT_SPACE,
        *,
        engine: str = "fluid",
        min_share: float = 0.08,
        random_state: RandomState = None,
    ):
        if engine not in ("fluid", "packet"):
            raise ValidationError(f"engine must be 'fluid' or 'packet', got {engine!r}")
        self.space = space
        self.engine = engine
        self.min_share = min_share
        self._rng = check_random_state(random_state)
        self.queries = 0

    def domains(self) -> list[FeatureDomain]:
        return self.space.domains()

    def label_one(self, features) -> int:
        """1 if SCReAM is the (qualified) latency winner, else 0.

        One seed is drawn per label.  A protocol that runs uses ``seed`` plus
        its index in ``sorted(PROTOCOLS)``, so neither the label nor the
        oracle's generator depends on how many protocols ran.
        """
        self.queries += 1
        scenario = self.space.scenario_from_features(features)
        seed = int(self._rng.integers(0, 2**31 - 1))
        run = run_fluid_scenario if self.engine == "fluid" else run_packet_scenario

        def score(protocol: str) -> float:
            metrics = run(scenario, protocol, random_state=seed + sorted(PROTOCOLS).index(protocol))
            return metrics.latency_score(min_share=self.min_share)

        return scream_label(score)

    def label(self, X) -> np.ndarray:
        """Vectorized :meth:`label_one`."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.array([self.label_one(row) for row in X], dtype=np.int64)


def generate_scream_dataset(
    n_samples: int,
    *,
    space: ScenarioSpace = DEFAULT_SPACE,
    engine: str = "fluid",
    biased: bool = False,
    random_state: RandomState = None,
) -> LabeledDataset:
    """Generate a labeled Scream-vs-rest dataset of ``n_samples`` rows.

    ``biased`` draws scenarios from the production-like distribution
    (:meth:`ScenarioSpace.sample_production_biased`) instead of uniformly —
    the collection bias §2.2 argues feedback must overcome.

    Labeling a row runs the network emulator: SCReAM first, then its
    rivals until one beats it (:class:`ScreamOracle`).  That makes this
    the most expensive input of an experiment.  The sharded experiment grid
    wraps it as the ``repro.experiments.tasks:scream_dataset`` task
    family, so generated datasets are content-addressed in the runtime's
    artifact cache and a warm rerun skips the emulation entirely.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    rng = check_random_state(random_state)
    if biased:
        scenarios = space.sample_production_biased(n_samples, rng)
    else:
        scenarios = space.sample(n_samples, rng)
    X = np.array([scenario.as_features() for scenario in scenarios])
    oracle = ScreamOracle(space, engine=engine, random_state=rng)
    y = oracle.label(X)
    return LabeledDataset(
        X=X,
        y=y,
        feature_names=space.feature_names(),
        domains=space.domains(),
        description=f"scream-vs-rest ({engine} engine, {'biased' if biased else 'uniform'} sampling)",
    )
