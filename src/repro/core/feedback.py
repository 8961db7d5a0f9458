"""The paper's contribution: interpretable ALE-variance feedback for AutoML.

Algorithm (§3 of the paper):

1. Take the committee of models ``M`` an AutoML system produced, a variance
   threshold ``T``, the feature set and each feature's domain.
2. Compute each model's ALE curve per feature on a shared grid.
3. At every grid point, take the standard deviation of ALE values across
   the committee — the *disagreement profile* of the feature.
4. Return the feature subspace where the deviation exceeds ``T`` as a union
   of half-space systems ``∪ᵢ Aᵢx ≤ bᵢ`` (axis-aligned slabs here, since
   the analysis is per-feature), together with the averaged ALE curves and
   error bars as the human-readable explanation.

Two committee flavors (paper §3, "Algorithm variants"):

- **Within-ALE** — the members of a single AutoML ensemble;
- **Cross-ALE** — the ensembles of several independent AutoML runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state
from .ale import ALECurve, ale_curves_for_features, make_grid
from .subspace import Box, FeatureDomain, Interval, IntervalUnion, SubspaceUnion

__all__ = [
    "FeatureDisagreement",
    "FeedbackReport",
    "AleFeedback",
    "within_ale_committee",
    "cross_ale_committee",
    "median_threshold",
]


@dataclass
class FeatureDisagreement:
    """Committee disagreement profile for one feature.

    ``mean_curve``/``std_curve`` are what Figure 1 of the paper plots: the
    averaged ALE with its across-model standard deviation as error bars.
    """

    domain: FeatureDomain
    feature_index: int
    edges: np.ndarray
    mean_curve: np.ndarray  # (K, n_classes) committee mean
    std_by_class: np.ndarray  # (K, n_classes) committee std
    std_curve: np.ndarray  # (K,) class-aggregated committee std
    counts: np.ndarray
    curves: list[ALECurve] = field(repr=False, default_factory=list)

    @property
    def grid(self) -> np.ndarray:
        return self.edges[1:]

    @property
    def max_std(self) -> float:
        return float(self.std_curve.max())

    def high_variance_intervals(self, threshold: float) -> IntervalUnion:
        """Merge consecutive above-threshold bins into feature intervals.

        A bin covers ``[edges[k], edges[k+1]]``; its disagreement value sits
        at the right edge.  Runs of above-threshold bins coalesce into a
        single interval, yielding exactly the paper's
        ``x ≤ 45 ∪ x ≥ 99``-style output.
        """
        above = self.std_curve > threshold
        intervals = []
        k = 0
        while k < above.size:
            if above[k]:
                start = k
                while k + 1 < above.size and above[k + 1]:
                    k += 1
                intervals.append(Interval(float(self.edges[start]), float(self.edges[k + 1])))
            k += 1
        return IntervalUnion(intervals)


@dataclass
class FeedbackReport:
    """Everything the feedback algorithm returns to the operator.

    ``region`` is the sampling subspace ``∪ᵢ Aᵢx ≤ bᵢ``; ``profiles`` carry
    the per-feature explanation curves.  The report is self-contained: it
    can sample new candidate points, filter a fixed pool, and render its
    explanation without re-touching the committee.
    """

    profiles: list[FeatureDisagreement]
    threshold: float
    region: SubspaceUnion
    committee_size: int
    domains: tuple[FeatureDomain, ...]

    @property
    def flagged_features(self) -> list[FeatureDisagreement]:
        """Profiles that contributed at least one region."""
        return [p for p in self.profiles if p.high_variance_intervals(self.threshold)]

    def intervals_for(self, feature_name: str) -> IntervalUnion:
        for profile in self.profiles:
            if profile.domain.name == feature_name:
                return profile.high_variance_intervals(self.threshold)
        raise ValidationError(f"unknown feature {feature_name!r}")

    def suggest(self, n_points: int, random_state: RandomState = None) -> np.ndarray:
        """Sample ``n_points`` uniformly from the high-variance subspace.

        This is the paper's lower-bound usage: a domain expert would bias
        the sampling with their own knowledge instead.
        """
        if n_points < 1:
            raise ValidationError(f"n_points must be >= 1, got {n_points}")
        if not self.region:
            raise ValidationError(
                "no feature subspace exceeds the threshold; lower the threshold or collect a committee "
                "with more disagreement"
            )
        return self.region.sample(n_points, check_random_state(random_state))

    def filter_pool(self, pool_X, *, max_points: int | None = None, random_state: RandomState = None):
        """Select the rows of a fixed candidate pool inside the region.

        This is the pool-restricted variant evaluated in Table 1
        (Within-ALE-Pool / Cross-ALE-Pool): unlike :meth:`suggest`, the
        algorithm can only endorse points the pool already contains.
        Returns the selected row indices.
        """
        pool_X = np.asarray(pool_X, dtype=np.float64)
        mask = self.region.contains(pool_X) if self.region else np.zeros(pool_X.shape[0], dtype=bool)
        indices = np.flatnonzero(mask)
        if max_points is not None and indices.size > max_points:
            rng = check_random_state(random_state)
            indices = np.sort(rng.choice(indices, size=max_points, replace=False))
        return indices

    def restrict_to(self, feature_names: Sequence[str]) -> "FeedbackReport":
        """Drop regions for features the operator chose to ignore.

        This is the interpretability workflow of §4.2: the operator
        discards the noisy source-port bound and keeps the destination-port
        one, using domain knowledge the algorithm lacks.
        """
        keep = set(feature_names)
        known = {domain.name for domain in self.domains}
        unknown = keep - known
        if unknown:
            raise ValidationError(f"unknown features: {sorted(unknown)}")
        kept_profiles = [p for p in self.profiles if p.domain.name in keep]
        region = _region_from_profiles(kept_profiles, self.threshold, self.domains)
        return FeedbackReport(
            profiles=kept_profiles,
            threshold=self.threshold,
            region=region,
            committee_size=self.committee_size,
            domains=self.domains,
        )

    def summary(self) -> str:
        """Short operator-facing synopsis (full rendering lives in
        :mod:`repro.core.explanations`)."""
        lines = [
            f"ALE feedback over a committee of {self.committee_size} model(s), threshold T={self.threshold:.4g}:"
        ]
        flagged = self.flagged_features
        if not flagged:
            lines.append("  committee models agree everywhere; no additional data suggested")
        for profile in flagged:
            intervals = profile.high_variance_intervals(self.threshold)
            lines.append(
                f"  {profile.domain.name}: collect more data for values in {intervals} "
                f"(peak disagreement {profile.max_std:.3f})"
            )
        return "\n".join(lines)


def median_threshold(profiles: Sequence[FeatureDisagreement]) -> float:
    """The paper's default threshold: the median standard deviation.

    §4 "Setting the threshold": *"we used the median of the standard
    deviation across features"* — computed here as the median of the
    pooled per-grid-point deviations of every feature.  Grid points where
    the committee agrees exactly (zero deviation — common for features a
    whole committee ignores) carry no information about where "high"
    disagreement starts, so the median is taken over the strictly positive
    deviations; if every deviation is zero the committee is unanimous and
    the threshold is 0.
    """
    pooled = np.concatenate([profile.std_curve for profile in profiles])
    positive = pooled[pooled > 0.0]
    if positive.size == 0:
        return 0.0
    return float(np.median(positive))


def _region_from_profiles(
    profiles: Sequence[FeatureDisagreement],
    threshold: float,
    domains: Sequence[FeatureDomain],
) -> SubspaceUnion:
    """One slab (box constraining a single feature) per flagged interval."""
    region = SubspaceUnion(domains)
    for profile in profiles:
        for interval in profile.high_variance_intervals(threshold):
            region.add(Box(domains, {profile.feature_index: interval}))
    return region


class AleFeedback:
    """Configurable ALE-variance feedback analyzer (paper §3).

    Parameters
    ----------
    threshold:
        Explicit variance threshold ``T``, or ``None`` for the paper's
        median heuristic.
    grid_size, grid_strategy:
        Shared ALE grid construction (see :func:`repro.core.ale.make_grid`).
    class_aggregation:
        How per-class disagreement collapses to one value per grid point:
        ``'max'`` (default; a feature is confusing if any class is) or
        ``'mean'``.
    """

    def __init__(
        self,
        *,
        threshold: float | None = None,
        grid_size: int = 32,
        grid_strategy: str = "quantile",
        class_aggregation: str = "max",
        interpreter: str = "ale",
        threshold_scale: float = 1.0,
    ):
        if threshold is not None and threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {threshold}")
        if threshold_scale <= 0:
            raise ValidationError(f"threshold_scale must be positive, got {threshold_scale}")
        if class_aggregation not in ("max", "mean"):
            raise ValidationError(f"class_aggregation must be 'max' or 'mean', got {class_aggregation!r}")
        if interpreter not in ("ale", "pdp"):
            raise ValidationError(f"interpreter must be 'ale' or 'pdp', got {interpreter!r}")
        self.threshold = threshold
        self.grid_size = grid_size
        self.grid_strategy = grid_strategy
        self.class_aggregation = class_aggregation
        self.interpreter = interpreter
        self.threshold_scale = threshold_scale

    def analyze(
        self,
        committee: Sequence,
        X,
        domains: Sequence[FeatureDomain],
    ) -> FeedbackReport:
        """Run the feedback algorithm for one committee over dataset ``X``.

        ``committee`` is any sequence of fitted models with
        ``predict_proba`` — ensemble members (Within-ALE) or whole run
        ensembles (Cross-ALE).
        """
        committee = list(committee)
        if len(committee) < 2:
            raise ValidationError(
                f"disagreement needs a committee of >= 2 models, got {len(committee)}; "
                "use an AutoML configuration that returns an ensemble"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("X must be 2-dimensional")
        domains = tuple(domains)
        if len(domains) != X.shape[1]:
            raise ValidationError(f"{len(domains)} domains for {X.shape[1]} features")

        all_edges = [
            make_grid(
                X[:, index],
                grid_size=self.grid_size,
                strategy=self.grid_strategy,
                domain=(domain.low, domain.high),
            )
            for index, domain in enumerate(domains)
        ]
        curves_per_feature = self._committee_curves(committee, X, domains, all_edges)
        profiles: list[FeatureDisagreement] = []
        for index, domain in enumerate(domains):
            edges, curves = all_edges[index], curves_per_feature[index]
            stacked = np.stack([curve.values for curve in curves])  # (models, K, classes)
            std_by_class = stacked.std(axis=0)
            if self.class_aggregation == "max":
                std_curve = std_by_class.max(axis=1)
            else:
                std_curve = std_by_class.mean(axis=1)
            profiles.append(
                FeatureDisagreement(
                    domain=domain,
                    feature_index=index,
                    edges=edges,
                    mean_curve=stacked.mean(axis=0),
                    std_by_class=std_by_class,
                    std_curve=std_curve,
                    counts=curves[0].counts,
                    curves=curves,
                )
            )
        if self.threshold is not None:
            threshold = self.threshold
        else:
            # The paper's §4 guidance: scale the median heuristic up when
            # the sampling budget is small (focus on the boundary), down
            # when it is large (cover more of the space).
            threshold = self.threshold_scale * median_threshold(profiles)
        region = _region_from_profiles(profiles, threshold, domains)
        return FeedbackReport(
            profiles=profiles,
            threshold=threshold,
            region=region,
            committee_size=len(committee),
            domains=domains,
        )

    def _committee_curves(self, committee, X, domains, all_edges) -> list:
        """Per-feature committee curves, ``[feature][model]``.

        The ALE path batches each model's (lo, hi) perturbed copies across
        *all* features into a handful of ``predict_proba`` calls
        (:func:`repro.core.ale.ale_curves_for_features`).
        """
        if self.interpreter == "pdp":
            from .pdp import pdp_curves_for_models

            return [
                pdp_curves_for_models(
                    committee, X, index, all_edges[index], feature_name=domain.name
                )
                for index, domain in enumerate(domains)
            ]
        indices = list(range(len(domains)))
        names = [domain.name for domain in domains]
        per_model = [
            ale_curves_for_features(model, X, indices, all_edges, feature_names=names)
            for model in committee
        ]
        return [[curves[index] for curves in per_model] for index in indices]


def within_ale_committee(automl) -> list:
    """The Within-ALE committee: the members of one AutoML ensemble."""
    members = getattr(automl, "ensemble_members_", None)
    if members is None:
        raise ValidationError(
            "the fitted AutoML object exposes no ensemble members; Within-ALE requires an "
            "ensemble-returning AutoML system (paper §5, limitations)"
        )
    return list(members)


def cross_ale_committee(automl_runs: Sequence) -> list:
    """The Cross-ALE committee: one ensemble per independent AutoML run.

    Each run's *whole ensemble* acts as a single committee member, which is
    how the variant extends to non-ensemble AutoML systems (paper §3).
    """
    runs = list(automl_runs)
    if len(runs) < 2:
        raise ValidationError(f"Cross-ALE needs >= 2 AutoML runs, got {len(runs)}")
    committee = []
    for run in runs:
        ensemble = getattr(run, "ensemble_", None)
        committee.append(ensemble if ensemble is not None else run)
    return committee
