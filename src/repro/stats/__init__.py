"""Statistical machinery for the evaluation (Wilcoxon tests, Table 1)."""

from .significance import AlgorithmScores, SignificanceTable
from .wilcoxon import WilcoxonResult, wilcoxon_signed_rank

__all__ = [
    "WilcoxonResult",
    "wilcoxon_signed_rank",
    "AlgorithmScores",
    "SignificanceTable",
]
