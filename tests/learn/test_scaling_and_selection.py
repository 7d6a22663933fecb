"""Tests for feature scaling and balanced training-set sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LearningError, NotFittedError
from repro.learn.model_selection import sample_balanced_training_set
from repro.learn.scaling import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        transformed = StandardScaler().fit_transform(X)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_does_not_divide_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        transformed = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(transformed))
        assert np.allclose(transformed[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_disable_centering(self):
        X = np.random.default_rng(2).normal(3.0, 1.0, size=(100, 2))
        transformed = StandardScaler(with_mean=False).fit_transform(X)
        assert transformed.mean() > 1.0


class TestBalancedSampling:
    def test_sample_sizes_and_labels(self):
        labels = {i: i <= 30 for i in range(1, 101)}
        positives, negatives = sample_balanced_training_set(labels, 10, seed=0)
        assert len(positives) == 10
        assert len(negatives) == 10
        assert all(labels[i] for i in positives)
        assert all(not labels[i] for i in negatives)

    def test_exclusions_respected(self):
        labels = {i: i <= 30 for i in range(1, 101)}
        exclude = list(range(1, 21))
        positives, _negatives = sample_balanced_training_set(labels, 10, seed=0, exclude=exclude)
        assert not set(positives) & set(exclude)

    def test_insufficient_examples(self):
        labels = {1: True, 2: False, 3: False}
        with pytest.raises(LearningError):
            sample_balanced_training_set(labels, 2)

    def test_invalid_n(self):
        with pytest.raises(LearningError):
            sample_balanced_training_set({1: True, 2: False}, 0)

    def test_reproducible(self):
        labels = {i: i % 3 == 0 for i in range(1, 200)}
        first = sample_balanced_training_set(labels, 15, seed=5)
        second = sample_balanced_training_set(labels, 15, seed=5)
        assert first == second

    @given(st.integers(1, 10))
    def test_sampling_property(self, n):
        labels = {i: i <= 50 for i in range(1, 101)}
        positives, negatives = sample_balanced_training_set(labels, n, seed=n)
        assert len(set(positives)) == n
        assert len(set(negatives)) == n
        assert not set(positives) & set(negatives)
