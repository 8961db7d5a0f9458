"""Tests for repro.ml.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ml.metrics import accuracy, balanced_accuracy, confusion_matrix


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([], [])


class TestBalancedAccuracy:
    def test_equals_accuracy_when_balanced(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 1]
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.75)

    def test_imbalance_robustness(self):
        # 90 negatives, 10 positives; predicting all-negative gets 90%
        # accuracy but only 50% balanced accuracy.
        y_true = [0] * 90 + [1] * 10
        y_pred = [0] * 100
        assert accuracy(y_true, y_pred) == pytest.approx(0.9)
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.5)

    def test_mean_of_recalls(self):
        y_true = [0, 0, 0, 1, 1, 2]
        y_pred = [0, 0, 1, 1, 0, 2]
        # recalls: 2/3, 1/2, 1
        assert balanced_accuracy(y_true, y_pred) == pytest.approx((2 / 3 + 0.5 + 1.0) / 3)

    def test_classes_only_in_pred_ignored(self):
        assert balanced_accuracy([0, 0], [0, 5]) == pytest.approx(0.5)

    def test_string_labels(self):
        assert balanced_accuracy(["a", "b"], ["a", "b"]) == 1.0


class TestConfusionMatrix:
    def test_basic(self):
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert matrix.tolist() == [[1, 1], [0, 2]]

    def test_explicit_label_order(self):
        matrix = confusion_matrix([0, 1], [1, 0], labels=[1, 0])
        assert matrix.tolist() == [[0, 1], [1, 0]]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 2], [0, 0], labels=[0, 1])

    def test_rows_sum_to_class_counts(self):
        y_true = np.array([0, 0, 1, 2, 2, 2])
        y_pred = np.array([1, 0, 1, 0, 2, 2])
        matrix = confusion_matrix(y_true, y_pred)
        assert matrix.sum(axis=1).tolist() == [2, 1, 3]

    @staticmethod
    def _reference(y_true, y_pred, labels):
        """The pre-vectorization per-sample loop, kept as the oracle."""
        index = {label: i for i, label in enumerate(labels)}
        matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            matrix[index[t], index[p]] += 1
        return matrix

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 5, size=300)
        y_pred = rng.integers(0, 5, size=300)
        expected = self._reference(y_true, y_pred, [0, 1, 2, 3, 4])
        assert np.array_equal(confusion_matrix(y_true, y_pred), expected)

    def test_unsorted_explicit_labels(self):
        y_true = np.array([2, 0, 1, 2, 1])
        y_pred = np.array([0, 0, 2, 2, 1])
        labels = [2, 0, 1]  # deliberately not sorted
        expected = self._reference(y_true, y_pred, labels)
        assert np.array_equal(confusion_matrix(y_true, y_pred, labels=labels), expected)

    def test_string_labels(self):
        matrix = confusion_matrix(
            ["tcp", "udp", "tcp"], ["udp", "udp", "tcp"], labels=["udp", "tcp"]
        )
        assert matrix.tolist() == [[1, 0], [1, 1]]

    def test_unknown_label_message_names_first_bad_pair(self):
        with pytest.raises(ValidationError, match="label 2 or 0 not in the provided labels"):
            confusion_matrix([0, 2, 3], [0, 0, 0], labels=[0, 1])
        with pytest.raises(ValidationError, match="label 0 or 9 not in the provided labels"):
            confusion_matrix([0, 0], [0, 9], labels=[0, 1])


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=2, max_size=60),
    seed=st.integers(0, 2**31 - 1),
)
def test_balanced_accuracy_bounds_property(labels, seed):
    """Balanced accuracy always lies in [0, 1], and equals 1 on self."""
    y_true = np.array(labels)
    rng = np.random.default_rng(seed)
    y_pred = rng.permutation(y_true)
    score = balanced_accuracy(y_true, y_pred)
    assert 0.0 <= score <= 1.0
    assert balanced_accuracy(y_true, y_true) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=50))
def test_confusion_matrix_total_property(labels):
    """All entries sum to the number of samples."""
    y_true = np.array(labels)
    y_pred = np.roll(y_true, 1)
    assert confusion_matrix(y_true, y_pred).sum() == y_true.size
