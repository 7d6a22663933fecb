"""Tests for questionable-HIT-response detection (Section 4.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quality import QuestionableResponseDetector
from repro.errors import InsufficientTrainingDataError
from repro.experiments.questionable import corrupt_labels
from repro.perceptual.space import PerceptualSpace


@pytest.fixture(scope="module")
def space() -> PerceptualSpace:
    rng = np.random.default_rng(0)
    positives = rng.normal(2.2, 0.6, size=(60, 5))
    negatives = rng.normal(0.0, 0.6, size=(140, 5))
    return PerceptualSpace(list(range(1, 201)), np.vstack([positives, negatives]))


@pytest.fixture(scope="module")
def labels() -> dict[int, bool]:
    return {i: i <= 60 for i in range(1, 201)}


class TestCorruptLabels:
    def test_swapped_fraction(self, labels):
        corrupted, swapped = corrupt_labels(labels, 0.2, seed=0)
        assert len(swapped) == round(0.2 * len(labels))
        assert all(corrupted[i] != labels[i] for i in swapped)
        assert all(corrupted[i] == labels[i] for i in labels if i not in swapped)

    def test_invalid_fraction(self, labels):
        with pytest.raises(ValueError):
            corrupt_labels(labels, 0.0, seed=0)

    def test_reproducible(self, labels):
        first = corrupt_labels(labels, 0.1, seed=3)
        second = corrupt_labels(labels, 0.1, seed=3)
        assert first == second


class TestDetector:
    def test_detects_most_swapped_labels(self, space, labels):
        corrupted, swapped = corrupt_labels(labels, 0.2, seed=1)
        detector = QuestionableResponseDetector(space)
        scan = detector.scan("is_positive", corrupted)
        precision, recall = scan.score_against(swapped)
        assert recall > 0.6
        assert precision > 0.5
        assert scan.n_items_scanned == len(labels)
        assert 0.0 < scan.flagged_fraction < 0.6

    def test_clean_labels_produce_few_flags(self, space, labels):
        detector = QuestionableResponseDetector(space)
        scan = detector.scan("is_positive", labels)
        assert scan.flagged_fraction < 0.15

    def test_flags_reference_real_disagreements(self, space, labels):
        corrupted, _swapped = corrupt_labels(labels, 0.1, seed=2)
        scan = QuestionableResponseDetector(space).scan("x", corrupted)
        for flag in scan.flags:
            assert flag.given_label != flag.predicted_label
            assert flag.item_id in corrupted

    def test_too_few_labels(self, space):
        detector = QuestionableResponseDetector(space)
        with pytest.raises(InsufficientTrainingDataError):
            detector.scan("x", {1: True, 2: False})

    def test_one_sided_labels(self, space):
        detector = QuestionableResponseDetector(space)
        with pytest.raises(InsufficientTrainingDataError):
            detector.scan("x", {i: True for i in range(1, 30)})

    def test_repair_fixes_flagged_items(self, space, labels):
        corrupted, swapped = corrupt_labels(labels, 0.15, seed=3)
        detector = QuestionableResponseDetector(space)
        repaired = detector.repair("x", corrupted, verified_labels=labels)
        before = np.mean([corrupted[i] == labels[i] for i in labels])
        after = np.mean([repaired[i] == labels[i] for i in labels])
        assert after > before

    def test_items_outside_space_ignored(self, space, labels):
        extended = dict(labels)
        extended[9999] = True
        scan = QuestionableResponseDetector(space).scan("x", extended)
        assert 9999 not in scan.predictions
