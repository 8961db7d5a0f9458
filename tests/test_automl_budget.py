"""Regression tests for the search budget contract.

The candidate count is the only search budget: the search reads no clock,
so a run evaluates exactly ``n_iterations`` candidates (fitted or failed).
"""

from repro.automl.search import RandomSearch


class TestRandomSearchBudget:
    def test_none_budget_runs_all_iterations(self, blobs_2class):
        X, y = blobs_2class
        for n_iterations in (1, 5):
            result = RandomSearch(n_iterations=n_iterations, random_state=0).run(X, y)
            assert len(result.evaluated) + len(result.failures) == n_iterations
