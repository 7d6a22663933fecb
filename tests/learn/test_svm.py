"""Tests for the SMO-based support vector classifier."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import LearningError, NotFittedError
from repro.learn.metrics import g_mean
from repro.learn.svm import SVC


def blobs(separation: float, n: int = 60, seed: int = 0, d: int = 5):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n, d)), rng.normal(separation, 1.0, (n, d))])
    y = np.array([False] * n + [True] * n)
    return X, y


class TestFitValidation:
    def test_invalid_C(self):
        with pytest.raises(LearningError):
            SVC(C=0)

    def test_invalid_class_weight(self):
        with pytest.raises(LearningError):
            SVC(class_weight="weird")

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(LearningError):
            SVC().fit(X, np.ones(10, dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(LearningError):
            SVC().fit(np.zeros((5, 2)), np.array([True, False]))

    def test_non_2d_features(self):
        with pytest.raises(LearningError):
            SVC().fit(np.zeros(5), np.array([True, False, True, False, True]))

    def test_bad_label_values(self):
        with pytest.raises(LearningError):
            SVC().fit(np.zeros((3, 2)), np.array([1, 2, 3]))

    def test_unfitted_predict(self):
        with pytest.raises(NotFittedError):
            SVC().predict(np.zeros((2, 2)))


class TestLabelFormats:
    @pytest.mark.parametrize("transform", [
        lambda y: y,
        lambda y: y.astype(int),
        lambda y: np.where(y, 1, -1),
    ])
    def test_accepts_bool_binary_and_signed(self, transform, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(seed=0).fit(X, transform(y))
        assert model.score(X, y) > 0.9


class TestClassificationQuality:
    def test_separable_blobs(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(kernel="rbf", seed=0).fit(X, y)
        assert model.score(X, y) > 0.95
        assert model.n_support_ > 0

    def test_linear_kernel_on_separable_data(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(kernel="linear", seed=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_generalisation_to_held_out_points(self):
        X_train, y_train = blobs(2.5, n=80, seed=1)
        X_test, y_test = blobs(2.5, n=40, seed=2)
        model = SVC(seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.9

    def test_nonlinear_boundary_requires_rbf(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(300, 2))
        y = (X[:, 0] ** 2 + X[:, 1] ** 2) < 1.5
        rbf = SVC(kernel="rbf", C=5.0, seed=0).fit(X, y)
        linear = SVC(kernel="linear", C=5.0, seed=0).fit(X, y)
        assert rbf.score(X, y) > linear.score(X, y) + 0.1

    def test_decision_function_sign_matches_predictions(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(seed=0).fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(scores >= 0, model.predict(X))

    def test_single_row_prediction(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(seed=0).fit(X, y)
        assert model.predict(X[0]).shape == (1,)

    def test_balanced_class_weight_helps_imbalance(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (190, 4)), rng.normal(1.8, 1, (10, 4))])
        y = np.array([False] * 190 + [True] * 10)
        balanced = SVC(class_weight="balanced", seed=0).fit(X, y)
        plain = SVC(class_weight=None, seed=0).fit(X, y)
        assert g_mean(y, balanced.predict(X)) >= g_mean(y, plain.predict(X)) - 0.02

    def test_reproducibility(self, blob_classification_data):
        X, y = blob_classification_data
        first = SVC(seed=3).fit(X, y)
        second = SVC(seed=3).fit(X, y)
        assert np.allclose(first.decision_function(X), second.decision_function(X))

    def test_standardization_can_be_disabled(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(standardize=False, seed=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_tiny_training_set(self):
        X = np.array([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]])
        y = np.array([False, False, True, True])
        model = SVC(seed=0).fit(X, y)
        assert model.predict(np.array([[0.1, 0.0]]))[0] == np.False_
        assert model.predict(np.array([[3.0, 3.1]]))[0] == np.True_


class TestSolverIsPinned:
    """The SMO solver's exact output, bit for bit.

    The paper tables and ``fill_accuracy`` rest on these fits, so a
    rewrite of the solver loop must not move a single bit of the alphas,
    the bias or the sweep count.
    """

    @staticmethod
    def dataset(n: int, seed: int):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 16))
        score = X[:, 0] + 0.5 * X[:, 1] - 0.3 * X[:, 2] + rng.normal(0.0, 0.8, n)
        return X, score > 0.6

    @pytest.mark.parametrize(
        ("n", "seed", "intercept", "iterations", "n_support", "alpha_y_sha256"),
        [
            (
                75,
                7,
                "-0x1.ea84d28a7bbfbp-3",
                200,
                66,
                "8d23ebe08f269e8c2b0ec37a80aad483285eceb2466a04c8de6e3b5dcf4b576e",
            ),
            (
                200,
                8,
                "-0x1.4995f72fa026cp-6",
                200,
                154,
                "de98c9f0baae3114ba9f9ac1b3fc10abffc40de93986ceafe8142953175f636e",
            ),
        ],
    )
    def test_balanced_rbf_fit(self, n, seed, intercept, iterations, n_support, alpha_y_sha256):
        X, y = self.dataset(n, seed)
        model = SVC(C=2.0, class_weight="balanced", seed=seed).fit(X, y)
        assert model.intercept_.hex() == intercept
        assert model.n_iterations_ == iterations
        assert model.n_support_ == n_support
        digest = hashlib.sha256(model._support_alpha_y.tobytes()).hexdigest()
        assert digest == alpha_y_sha256

    def test_block_draw_matches_scalar_draws(self):
        # The solver draws SMO partners in blocks; that only reproduces the
        # historical one-draw-per-step stream if numpy's block draw does.
        for k, m in ((1, 5), (19, 20), (74, 75), (199, 200), (319, 320)):
            block = np.random.default_rng(k).integers(0, k, size=m).tolist()
            scalar_rng = np.random.default_rng(k)
            assert block == [int(scalar_rng.integers(0, k)) for _ in range(m)]
