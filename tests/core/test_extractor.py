"""Tests for the perceptual-attribute extractor (Section 3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extractor import PerceptualAttributeExtractor
from repro.errors import InsufficientTrainingDataError, LearningError
from repro.learn.metrics import g_mean
from repro.learn.model_selection import sample_balanced_training_set
from repro.perceptual.space import PerceptualSpace


@pytest.fixture(scope="module")
def clustered_space() -> PerceptualSpace:
    rng = np.random.default_rng(0)
    positives = rng.normal(2.0, 0.6, size=(60, 6))
    negatives = rng.normal(0.0, 0.6, size=(140, 6))
    return PerceptualSpace(list(range(1, 201)), np.vstack([positives, negatives]))


@pytest.fixture(scope="module")
def clustered_labels() -> dict[int, bool]:
    return {i: i <= 60 for i in range(1, 201)}


class TestBooleanExtraction:
    def test_small_gold_sample_extrapolates_well(self, clustered_space, clustered_labels):
        positives, negatives = sample_balanced_training_set(clustered_labels, 10, seed=0)
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_boolean("is_positive", gold)
        truth = np.array([clustered_labels[i] for i in clustered_space.item_ids])
        predictions = np.array([result.values[i] for i in clustered_space.item_ids])
        assert g_mean(truth, predictions) > 0.9
        assert result.coverage(clustered_space.item_ids) == 1.0
        assert result.model_kind == "svc-rbf"

    def test_target_items_restriction(self, clustered_space, clustered_labels):
        gold = {i: clustered_labels[i] for i in list(range(1, 16)) + list(range(61, 76))}
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_boolean("x", gold, target_items=[1, 2, 100])
        assert set(result.values) == {1, 2, 100}

    def test_decision_scores_align_with_predictions(self, clustered_space, clustered_labels):
        gold = {i: clustered_labels[i] for i in list(range(50, 71))}
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_boolean("x", gold)
        for item_id, value in result.values.items():
            assert (result.decision_scores[item_id] >= 0) == value

    def test_items_outside_space_are_ignored_for_training(self, clustered_space, clustered_labels):
        gold = {i: clustered_labels[i] for i in range(55, 70)}
        gold[9999] = True  # unknown item
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_boolean("x", gold)
        assert 9999 not in result.values

    def test_insufficient_training_data(self, clustered_space):
        extractor = PerceptualAttributeExtractor(clustered_space, min_training_size=6)
        with pytest.raises(InsufficientTrainingDataError):
            extractor.extract_boolean("x", {1: True, 2: False})

    def test_one_sided_training_data(self, clustered_space):
        extractor = PerceptualAttributeExtractor(clustered_space)
        with pytest.raises(InsufficientTrainingDataError):
            extractor.extract_boolean("x", {i: True for i in range(1, 20)})

    def test_no_target_items_in_space(self, clustered_space, clustered_labels):
        gold = {i: clustered_labels[i] for i in range(55, 70)}
        extractor = PerceptualAttributeExtractor(clustered_space)
        with pytest.raises(LearningError):
            extractor.extract_boolean("x", gold, target_items=[5000, 5001])


class TestNumericExtraction:
    def test_regression_recovers_gradient(self, clustered_space):
        # Numeric target proportional to the first coordinate.
        truth = {i: float(clustered_space.vector(i)[0]) for i in clustered_space.item_ids}
        gold = {i: truth[i] for i in list(clustered_space.item_ids)[::7]}
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_numeric("score", gold)
        predictions = np.array([result.values[i] for i in clustered_space.item_ids])
        target = np.array([truth[i] for i in clustered_space.item_ids])
        correlation = np.corrcoef(predictions, target)[0, 1]
        assert correlation > 0.8
        assert result.model_kind == "svr-rbf"

    def test_value_range_clipping(self, clustered_space):
        gold = {i: float(clustered_space.vector(i)[0]) * 10 for i in list(clustered_space.item_ids)[:30]}
        extractor = PerceptualAttributeExtractor(clustered_space)
        result = extractor.extract_numeric("score", gold, value_range=(0.0, 5.0))
        values = np.array(list(result.values.values()))
        assert values.min() >= 0.0
        assert values.max() <= 5.0

    def test_insufficient_numeric_data(self, clustered_space):
        extractor = PerceptualAttributeExtractor(clustered_space)
        with pytest.raises(InsufficientTrainingDataError):
            extractor.extract_numeric("score", {1: 1.0})


class TestOnRealisticSpace:
    def test_movie_space_comedy_extraction(self, small_corpus, small_space):
        labels = small_corpus.labels_for("Comedy")
        positives, negatives = sample_balanced_training_set(labels, 25, seed=3)
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})
        extractor = PerceptualAttributeExtractor(small_space)
        result = extractor.extract_boolean("is_comedy", gold)
        ids = [i for i in labels if i in result.values]
        truth = np.array([labels[i] for i in ids])
        predictions = np.array([result.values[i] for i in ids])
        assert g_mean(truth, predictions) > 0.6
