"""Tests for the transductive SVM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LearningError, NotFittedError
from repro.learn.svm import SVC
from repro.learn.tsvm import TransductiveSVC


def blobs(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n, 4)), rng.normal(2.5, 1.0, (n, 4))])
    y = np.array([False] * n + [True] * n)
    return X, y


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(LearningError):
            TransductiveSVC(C=0)
        with pytest.raises(LearningError):
            TransductiveSVC(n_outer_iterations=0)

    def test_dimension_mismatch(self):
        with pytest.raises(LearningError):
            TransductiveSVC().fit(np.zeros((4, 3)), np.array([True, False, True, False]), np.zeros((2, 2)))

    def test_unfitted_predict(self):
        with pytest.raises(NotFittedError):
            TransductiveSVC().predict(np.zeros((2, 2)))


class TestSemiSupervisedLearning:
    def test_matches_supervised_on_plenty_of_labels(self):
        X, y = blobs(60, seed=1)
        rng = np.random.default_rng(2)
        labeled_idx = rng.choice(len(X), 40, replace=False)
        unlabeled_idx = np.setdiff1d(np.arange(len(X)), labeled_idx)

        supervised = SVC().fit(X[labeled_idx], y[labeled_idx])
        transductive = TransductiveSVC(positive_fraction=0.5)
        transductive.fit(X[labeled_idx], y[labeled_idx], X[unlabeled_idx])

        supervised_accuracy = np.mean(supervised.predict(X) == y)
        transductive_accuracy = np.mean(transductive.predict(X) == y)
        assert transductive_accuracy >= supervised_accuracy - 0.05

    def test_works_without_unlabeled_data(self):
        X, y = blobs(30, seed=3)
        model = TransductiveSVC().fit(X, y, np.empty((0, X.shape[1])))
        assert np.mean(model.predict(X) == y) > 0.9

    def test_decision_function_available(self):
        X, y = blobs(30, seed=4)
        model = TransductiveSVC().fit(X[:40], y[:40], X[40:])
        scores = model.decision_function(X)
        assert scores.shape == (len(X),)
        assert np.array_equal(scores >= 0, model.predict(X))

    def test_label_switches_counted(self):
        X, y = blobs(40, seed=5)
        rng = np.random.default_rng(6)
        labeled_idx = rng.choice(len(X), 10, replace=False)
        unlabeled_idx = np.setdiff1d(np.arange(len(X)), labeled_idx)
        model = TransductiveSVC()
        model.fit(X[labeled_idx], y[labeled_idx], X[unlabeled_idx])
        assert model.n_label_switches_ >= 0

    def test_positive_fraction_constraint(self):
        X, y = blobs(50, seed=7)
        rng = np.random.default_rng(8)
        labeled_idx = rng.choice(len(X), 12, replace=False)
        unlabeled_idx = np.setdiff1d(np.arange(len(X)), labeled_idx)
        model = TransductiveSVC(positive_fraction=0.5)
        model.fit(X[labeled_idx], y[labeled_idx], X[unlabeled_idx])
        predictions = model.predict(X)
        positive_rate = predictions.mean()
        assert 0.3 < positive_rate < 0.7

    def test_slower_than_plain_svc_but_comparable_quality(self):
        import time

        X, y = blobs(80, seed=9)
        rng = np.random.default_rng(10)
        labeled_idx = rng.choice(len(X), 20, replace=False)
        unlabeled_idx = np.setdiff1d(np.arange(len(X)), labeled_idx)

        start = time.perf_counter()
        supervised = SVC().fit(X[labeled_idx], y[labeled_idx])
        svc_time = time.perf_counter() - start

        start = time.perf_counter()
        transductive = TransductiveSVC().fit(
            X[labeled_idx], y[labeled_idx], X[unlabeled_idx]
        )
        tsvm_time = time.perf_counter() - start

        assert tsvm_time > svc_time
        assert np.mean(transductive.predict(X) == y) > 0.85
