"""Tests for the ALE computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ale import ale_curve, ale_curves_for_features, make_grid
from repro.exceptions import ValidationError
from repro.ml.linear import softmax


class _LinearProbaModel:
    """predict_proba = sigmoid(w @ x): analytically tractable for ALE."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=np.float64)

    def predict_proba(self, X):
        logits = np.asarray(X) @ self.weights
        return softmax(np.column_stack([np.zeros_like(logits), logits]))


class _IgnoresFeatureModel:
    """Output depends on feature 1 only."""

    def predict_proba(self, X):
        X = np.asarray(X)
        p = 1 / (1 + np.exp(-X[:, 1]))
        return np.column_stack([1 - p, p])


class TestMakeGrid:
    def test_quantile_grid_covers_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        edges = make_grid(x, grid_size=10)
        assert edges[0] == pytest.approx(x.min())
        assert edges[-1] == pytest.approx(x.max())
        assert np.all(np.diff(edges) > 0)

    def test_quantile_grid_equal_mass(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000)
        edges = make_grid(x, grid_size=8)
        counts, _ = np.histogram(x, bins=edges)
        assert counts.min() >= 100  # ~125 each

    def test_uniform_grid_spacing(self):
        edges = make_grid(np.array([0.0, 10.0]), grid_size=5, strategy="uniform", domain=(0, 10))
        assert np.allclose(np.diff(edges), 2.0)

    def test_duplicate_edges_dropped(self):
        x = np.array([1.0] * 95 + [2.0] * 5)
        edges = make_grid(x, grid_size=10)
        assert np.unique(edges).size == edges.size

    def test_constant_feature_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            make_grid(np.ones(50), grid_size=5)

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            make_grid(np.array([1.0]), grid_size=5)
        with pytest.raises(ValidationError):
            make_grid(np.array([1.0, 2.0]), grid_size=1)
        with pytest.raises(ValidationError):
            make_grid(np.array([1.0, 2.0]), strategy="magic")
        with pytest.raises(ValidationError):
            make_grid(np.array([1.0, 2.0]), strategy="uniform", domain=(5, 5))

    def test_quantile_domain_clips_source(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(0, 1, size=400), [-50.0, 50.0]])
        edges = make_grid(x, grid_size=8, strategy="quantile", domain=(0.0, 1.0))
        assert edges[0] >= 0.0 and edges[-1] <= 1.0
        # Without the domain the outliers stretch the grid far beyond it.
        unbounded = make_grid(x, grid_size=8, strategy="quantile")
        assert unbounded[0] < 0.0 and unbounded[-1] > 1.0

    def test_quantile_domain_noop_when_data_inside(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.2, 0.8, size=300)
        bounded = make_grid(x, grid_size=8, strategy="quantile", domain=(0.0, 1.0))
        unbounded = make_grid(x, grid_size=8, strategy="quantile")
        assert np.array_equal(bounded, unbounded)

    def test_quantile_degenerate_domain_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            make_grid(np.array([1.0, 2.0, 3.0]), strategy="quantile", domain=(2.0, 2.0))


class TestAleCurve:
    def _data(self, n=600, d=3, seed=0):
        return np.random.default_rng(seed).uniform(-2, 2, size=(n, d))

    def test_linear_model_gives_linear_ale(self):
        # For f(x) = sigmoid(w0*x0), ALE of x0 should be monotonically
        # increasing and ALE of an ignored feature flat.
        X = self._data()
        model = _LinearProbaModel([1.5, 0.0, 0.0])
        edges = make_grid(X[:, 0], grid_size=12)
        curve = ale_curve(model, X, 0, edges)
        assert np.all(np.diff(curve.values[:, 1]) >= -1e-9)
        assert curve.value_range() > 0.3

    def test_ignored_feature_is_flat(self):
        X = self._data()
        model = _IgnoresFeatureModel()
        edges = make_grid(X[:, 0], grid_size=12)
        curve = ale_curve(model, X, 0, edges)
        assert curve.value_range() < 1e-9

    def test_centering_weighted_zero_mean(self):
        X = self._data()
        model = _LinearProbaModel([1.0, 0.5, -0.5])
        edges = make_grid(X[:, 1], grid_size=10)
        curve = ale_curve(model, X, 1, edges)
        weighted_mean = np.sum(curve.counts[:, None] * curve.values, axis=0) / curve.counts.sum()
        assert np.allclose(weighted_mean, 0.0, atol=1e-9)

    def test_counts_sum_to_samples(self):
        X = self._data(n=200)
        edges = make_grid(X[:, 0], grid_size=8)
        curve = ale_curve(_IgnoresFeatureModel(), X, 0, edges)
        assert curve.counts.sum() == 200

    def test_probability_class_columns(self):
        X = self._data()
        edges = make_grid(X[:, 0], grid_size=6)
        curve = ale_curve(_LinearProbaModel([1.0, 0, 0]), X, 0, edges)
        assert curve.n_classes == 2
        # Class 0's ALE is the mirror image of class 1's (probabilities sum to 1).
        assert np.allclose(curve.values[:, 0], -curve.values[:, 1], atol=1e-12)

    def test_grid_metadata(self):
        X = self._data()
        edges = make_grid(X[:, 2], grid_size=7)
        curve = ale_curve(_IgnoresFeatureModel(), X, 2, edges, feature_name="loss")
        assert curve.feature_name == "loss"
        assert curve.grid.shape[0] == curve.n_bins == edges.size - 1

    def test_out_of_range_samples_clamped(self):
        X = self._data()
        edges = np.array([-0.5, 0.0, 0.5])  # narrower than the data
        curve = ale_curve(_LinearProbaModel([1, 0, 0]), X, 0, edges)
        assert curve.counts.sum() == X.shape[0]

    def test_validation(self):
        X = self._data()
        model = _IgnoresFeatureModel()
        with pytest.raises(ValidationError):
            ale_curve(model, X, 99, np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            ale_curve(model, X, 0, np.array([0.0]))
        with pytest.raises(ValidationError):
            ale_curve(model, X[0], 0, np.array([0.0, 1.0]))

    def test_empty_X_rejected(self):
        # Regression: an empty dataset used to flow through to an all-NaN
        # curve (0/0 in the centering step) instead of failing loudly.
        with pytest.raises(ValidationError, match="no samples"):
            ale_curve(_IgnoresFeatureModel(), np.empty((0, 3)), 0, np.array([0.0, 1.0]))

    def test_ale_insensitive_to_correlated_shift(self):
        # The key ALE property vs PDP: effects are computed locally, so a
        # strong correlation between features does not leak feature 1's
        # effect into feature 0's curve.
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-2, 2, size=800)
        x1 = x0 + rng.normal(0, 0.1, size=800)  # highly correlated
        X = np.column_stack([x0, x1])
        model = _IgnoresFeatureModel()  # only uses feature 1
        edges = make_grid(X[:, 0], grid_size=10)
        curve0 = ale_curve(model, X, 0, edges)
        assert curve0.value_range() < 0.05


class _CountingModel(_LinearProbaModel):
    """Counts predict_proba calls to observe batching behaviour."""

    def __init__(self, weights):
        super().__init__(weights)
        self.calls = 0

    def predict_proba(self, X):
        self.calls += 1
        return super().predict_proba(X)


class TestBatchedCurves:
    def _setup(self, seed=0, n=200, d=3, n_features=3):
        X = np.random.default_rng(seed).uniform(-2, 2, size=(n, d))
        edges = [make_grid(X[:, j], grid_size=8) for j in range(n_features)]
        return X, list(range(n_features)), edges

    def test_batched_bitwise_equals_per_feature(self):
        X, indices, edges = self._setup()
        model = _LinearProbaModel([1.0, -0.5, 0.25])
        batched = ale_curves_for_features(model, X, indices, edges)
        for j, curve in zip(indices, batched):
            single = ale_curve(model, X, j, edges[j])
            assert np.array_equal(curve.values, single.values)
            assert np.array_equal(curve.counts, single.counts)
            assert np.array_equal(curve.edges, single.edges)

    def test_tiny_batch_bound_bitwise_identical(self):
        # max_batch_rows=1 degrades to one call per perturbed copy — the
        # historical shape — and must still produce the same bits.
        X, indices, edges = self._setup(seed=1)
        model = _LinearProbaModel([0.5, 1.5, -1.0])
        default = ale_curves_for_features(model, X, indices, edges)
        unbatched = ale_curves_for_features(model, X, indices, edges, max_batch_rows=1)
        for a, b in zip(default, unbatched):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.counts, b.counts)

    def test_batching_reduces_model_calls(self):
        X, indices, edges = self._setup(seed=2)
        batched = _CountingModel([1.0, 0.0, 0.0])
        ale_curves_for_features(batched, X, indices, edges)
        assert batched.calls == 1  # 6 copies of 200 rows fit in one batch
        unbatched = _CountingModel([1.0, 0.0, 0.0])
        ale_curves_for_features(unbatched, X, indices, edges, max_batch_rows=1)
        assert unbatched.calls == 2 * len(indices)

    def test_feature_names_and_defaults(self):
        X, indices, edges = self._setup()
        named = ale_curves_for_features(
            _IgnoresFeatureModel(), X, indices, edges, feature_names=["a", "b", "c"]
        )
        assert [c.feature_name for c in named] == ["a", "b", "c"]
        unnamed = ale_curves_for_features(_IgnoresFeatureModel(), X, indices, edges)
        assert [c.feature_name for c in unnamed] == [f"feature_{j}" for j in indices]

    def test_validation(self):
        X, indices, edges = self._setup()
        model = _IgnoresFeatureModel()
        with pytest.raises(ValidationError, match="edge arrays"):
            ale_curves_for_features(model, X, indices, edges[:-1])
        with pytest.raises(ValidationError, match="names"):
            ale_curves_for_features(model, X, indices, edges, feature_names=["a"])
        with pytest.raises(ValidationError, match="max_batch_rows"):
            ale_curves_for_features(model, X, indices, edges, max_batch_rows=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    weight=st.floats(-3, 3, allow_nan=False),
    grid_size=st.integers(3, 20),
)
def test_ale_centering_property(seed, weight, grid_size):
    """Count-weighted mean of any ALE curve is ~0 (centering invariant)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(150, 2))
    model = _LinearProbaModel([weight, 0.3])
    edges = make_grid(X[:, 0], grid_size=grid_size)
    curve = ale_curve(model, X, 0, edges)
    weighted = np.sum(curve.counts[:, None] * curve.values, axis=0) / curve.counts.sum()
    assert np.allclose(weighted, 0.0, atol=1e-9)
