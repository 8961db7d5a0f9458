"""Tests for repro.ml.preprocessing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.preprocessing import IdentityTransformer, MinMaxScaler, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_not_divided_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_feature_count_mismatch(self):
        scaler = StandardScaler().fit(np.ones((5, 2)) * [[1], [2], [3], [4], [5]])
        with pytest.raises(ValidationError):
            scaler.transform(np.ones((2, 3)))


class TestMinMaxScaler:
    def test_range_is_unit(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-10, 10, size=(100, 2))
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() == pytest.approx(0.0)
        assert Z.max() == pytest.approx(1.0)

    def test_constant_column(self):
        X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        Z = MinMaxScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_out_of_range_test_data(self):
        scaler = MinMaxScaler().fit(np.arange(10.0).reshape(-1, 1))
        assert scaler.transform([[18.0]])[0, 0] == pytest.approx(2.0)


class TestIdentity:
    def test_passthrough(self):
        X = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(IdentityTransformer().fit_transform(X), X)

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            IdentityTransformer().transform([[1.0]])


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 30), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@example(np.array([[2.90849364e-161], [0.0]]))  # the column's variance underflows
def test_standard_scaler_idempotent_property(X):
    """Scaling an already-scaled matrix changes nothing (up to fp error).

    Columns whose variance is at floating-point noise level are excluded:
    there the scaler's constant-column guard kicks in on one pass but not
    necessarily the other, which is acceptable behaviour.
    """
    Z = StandardScaler().fit_transform(X)
    degenerate = Z.std(axis=0) < 1e-9
    Z2 = StandardScaler().fit_transform(Z)
    assert np.allclose(Z[:, ~degenerate], Z2[:, ~degenerate], atol=1e-8)
