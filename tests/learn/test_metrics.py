"""Tests for evaluation metrics (g-mean, precision/recall, accuracy, ...)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LearningError
from repro.learn.metrics import (
    accuracy,
    confusion_matrix,
    g_mean,
    precision_recall,
    sensitivity_specificity,
)

TRUTH = np.array([True, True, True, False, False, False, False, False, False, False])
PRED = np.array([True, True, False, False, False, False, False, False, True, False])


class TestConfusionMatrix:
    def test_counts(self):
        counts = confusion_matrix(TRUTH, PRED)
        assert counts == {"tp": 2, "fp": 1, "fn": 1, "tn": 6}

    def test_shape_mismatch(self):
        with pytest.raises(LearningError):
            confusion_matrix([True], [True, False])

    def test_empty_inputs(self):
        with pytest.raises(LearningError):
            confusion_matrix([], [])


class TestBasicMetrics:
    def test_accuracy(self):
        assert accuracy(TRUTH, PRED) == pytest.approx(0.8)

    def test_sensitivity_specificity(self):
        sensitivity, specificity = sensitivity_specificity(TRUTH, PRED)
        assert sensitivity == pytest.approx(2 / 3)
        assert specificity == pytest.approx(6 / 7)

    def test_g_mean(self):
        assert g_mean(TRUTH, PRED) == pytest.approx(np.sqrt((2 / 3) * (6 / 7)))

    def test_precision_recall(self):
        precision, recall = precision_recall(TRUTH, PRED)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)


class TestPaperScenarios:
    def test_naive_majority_classifier_has_zero_gmean(self):
        """The paper's motivating example: label everything 'not Horror'."""
        truth = np.array([True] * 10 + [False] * 90)
        predictions = np.zeros(100, dtype=bool)
        assert accuracy(truth, predictions) == pytest.approx(0.9)
        assert g_mean(truth, predictions) == 0.0

    def test_perfect_classifier(self):
        truth = np.array([True, False, True, False])
        assert accuracy(truth, truth) == 1.0
        assert g_mean(truth, truth) == 1.0
        assert precision_recall(truth, truth) == (1.0, 1.0)

    def test_no_positive_predictions(self):
        truth = np.array([True, False])
        predictions = np.array([False, False])
        precision, recall = precision_recall(truth, predictions)
        assert precision == 0.0
        assert recall == 0.0

    def test_missing_class_defines_recall_as_one(self):
        truth = np.array([False, False, False])
        predictions = np.array([False, True, False])
        sensitivity, specificity = sensitivity_specificity(truth, predictions)
        assert sensitivity == 1.0
        assert specificity == pytest.approx(2 / 3)


class TestMetricProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200))
    def test_metrics_are_bounded(self, pairs):
        truth = np.array([t for t, _p in pairs])
        predictions = np.array([p for _t, p in pairs])
        assert 0.0 <= accuracy(truth, predictions) <= 1.0
        assert 0.0 <= g_mean(truth, predictions) <= 1.0
        precision, recall = precision_recall(truth, predictions)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    def test_perfect_predictions_have_perfect_scores(self, labels):
        truth = np.array(labels)
        assert accuracy(truth, truth) == 1.0
        assert g_mean(truth, truth) == 1.0

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=100))
    def test_confusion_matrix_sums_to_n(self, pairs):
        truth = np.array([t for t, _p in pairs])
        predictions = np.array([p for _t, p in pairs])
        counts = confusion_matrix(truth, predictions)
        assert sum(counts.values()) == len(pairs)

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=100))
    def test_gmean_swap_invariance(self, pairs):
        """Swapping the positive/negative encoding leaves the g-mean unchanged."""
        truth = np.array([t for t, _p in pairs])
        predictions = np.array([p for _t, p in pairs])
        assert g_mean(truth, predictions) == pytest.approx(g_mean(~truth, ~predictions))
