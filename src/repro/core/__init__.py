"""The paper's primary contribution: interpretable ALE-variance feedback.

Public surface:

- :class:`AleFeedback` / :class:`FeedbackReport` — the feedback algorithm
  and its output (subspaces to sample + per-feature explanations);
- :func:`within_ale_committee` / :func:`cross_ale_committee` — the two
  committee constructions of §3;
- ALE computation (:func:`ale_curve`, :func:`make_grid`);
- subspace algebra (:class:`Interval`, :class:`Box`, :class:`SubspaceUnion`);
- rendering (:func:`explain_report`, :func:`ascii_ale_plot`).
"""

from .ale import ALECurve, ale_curve, ale_curves_for_features, make_grid
from .drift import AleDriftReport, ale_drift
from .pdp import pdp_curve, pdp_curves_for_models
from .explanations import ascii_ale_plot, curves_to_csv, explain_report
from .feedback import (
    AleFeedback,
    FeatureDisagreement,
    FeedbackReport,
    cross_ale_committee,
    median_threshold,
    within_ale_committee,
)
from .subspace import Box, FeatureDomain, Interval, IntervalUnion, SubspaceUnion

__all__ = [
    "ALECurve",
    "ale_curve",
    "ale_curves_for_features",
    "make_grid",
    "AleDriftReport",
    "ale_drift",
    "pdp_curve",
    "pdp_curves_for_models",
    "AleFeedback",
    "FeatureDisagreement",
    "FeedbackReport",
    "within_ale_committee",
    "cross_ale_committee",
    "median_threshold",
    "Interval",
    "IntervalUnion",
    "FeatureDomain",
    "Box",
    "SubspaceUnion",
    "explain_report",
    "ascii_ale_plot",
    "curves_to_csv",
]
