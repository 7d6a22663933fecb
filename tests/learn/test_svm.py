"""Tests for the SMO-based support vector classifier."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import LearningError, NotFittedError
from repro.experiments.boosting import run_boosting_experiments
from repro.experiments.crowd_quality import run_crowd_quality_experiments
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

    @pytest.mark.parametrize("settings", [{"tol": 0.0}, {"tol": -1e-3}, {"max_iterations": 0}])
    def test_invalid_solver_settings(self, settings):
        with pytest.raises(LearningError):
            SVC(**settings)

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
        model = SVC().fit(X, transform(y))
        assert model.score(X, y) > 0.9


class TestClassificationQuality:
    def test_separable_blobs(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(kernel="rbf").fit(X, y)
        assert model.score(X, y) > 0.95
        assert model.n_support_ > 0

    def test_linear_kernel_on_separable_data(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(kernel="linear").fit(X, y)
        assert model.score(X, y) > 0.95

    def test_generalisation_to_held_out_points(self):
        X_train, y_train = blobs(2.5, n=80, seed=1)
        X_test, y_test = blobs(2.5, n=40, seed=2)
        model = SVC().fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.9

    def test_nonlinear_boundary_requires_rbf(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(300, 2))
        y = (X[:, 0] ** 2 + X[:, 1] ** 2) < 1.5
        rbf = SVC(kernel="rbf", C=5.0).fit(X, y)
        linear = SVC(kernel="linear", C=5.0).fit(X, y)
        assert rbf.score(X, y) > linear.score(X, y) + 0.1

    def test_decision_function_sign_matches_predictions(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC().fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(scores >= 0, model.predict(X))

    def test_single_row_prediction(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC().fit(X, y)
        assert model.predict(X[0]).shape == (1,)

    def test_balanced_class_weight_helps_imbalance(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (190, 4)), rng.normal(1.8, 1, (10, 4))])
        y = np.array([False] * 190 + [True] * 10)
        balanced = SVC(class_weight="balanced").fit(X, y)
        plain = SVC(class_weight=None).fit(X, y)
        assert g_mean(y, balanced.predict(X)) >= g_mean(y, plain.predict(X)) - 0.02

    def test_reproducibility(self, blob_classification_data):
        # The solver draws no random numbers: two fits agree bit for bit.
        X, y = blob_classification_data
        first = SVC().fit(X, y)
        second = SVC().fit(X, y)
        assert first._support_alpha_y.tobytes() == second._support_alpha_y.tobytes()
        assert first.intercept_.hex() == second.intercept_.hex()
        assert first.decision_function(X).tobytes() == second.decision_function(X).tobytes()

    def test_standardization_can_be_disabled(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(standardize=False).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_tiny_training_set(self):
        X = np.array([[0.0, 0.0], [0.2, 0.1], [3.0, 3.0], [3.1, 2.9]])
        y = np.array([False, False, True, True])
        model = SVC().fit(X, y)
        assert model.predict(np.array([[0.1, 0.0]]))[0] == np.False_
        assert model.predict(np.array([[3.0, 3.1]]))[0] == np.True_


def kkt_bounds(model: SVC, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """``(m, M)`` of a fitted model, recomputed from its support vectors.

    ``m`` is the largest violation over I_up and ``M`` the smallest over
    I_low; the fit is optimal to within ``tol`` when ``m - M <= tol``.
    """
    Z = model._scaler.transform(X) if model._scaler is not None else X
    signs = np.where(y, 1.0, -1.0)
    alpha = np.zeros(len(y))
    for vector, alpha_y in zip(model._support_vectors, model._support_alpha_y):
        (row,) = np.flatnonzero((Z == vector).all(axis=1))
        alpha[row] = alpha_y * signs[row]
    C = np.full(len(y), model.C)
    if model.class_weight == "balanced":
        n_positive = int(y.sum())
        C *= np.where(y, len(y) / (2.0 * n_positive), len(y) / (2.0 * (len(y) - n_positive)))
    assert np.all((alpha >= 0.0) & (alpha <= C))
    violation = signs - model.kernel(Z, Z) @ (alpha * signs)
    up = np.where(y, alpha < C, alpha > 0.0)
    low = np.where(y, alpha > 0.0, alpha < C)
    return float(violation[up].max()), float(violation[low].min())


class TestConvergence:
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duality_gap_at_exit_is_within_tol(self, kernel, class_weight, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 6))
        y = X[:, 0] - 0.5 * X[:, 1] + rng.normal(0.0, 0.7, 120) > 0.4
        model = SVC(C=1.5, kernel=kernel, class_weight=class_weight).fit(X, y)
        m, M = kkt_bounds(model, X, y)
        assert model.n_iterations_ < model.max_iterations
        assert m - M <= model.tol + 1e-9
        # The intercept lies inside the KKT interval [M, m].
        assert M - 1e-9 <= model.intercept_ <= m + 1e-9

    def test_step_cap_stops_an_unconverged_fit(self, blob_classification_data):
        X, y = blob_classification_data
        model = SVC(max_iterations=3).fit(X, y)
        assert model.n_iterations_ == 3
        m, M = kkt_bounds(model, X, y)
        assert m - M > model.tol

    @pytest.mark.parametrize("max_iterations", [1, 100_000])
    def test_every_fit_keeps_support_vectors_of_both_classes(self, max_iterations):
        # The first step moves one alpha of each class off zero, and the
        # dual objective never climbs back to its value at alpha = 0, so a
        # fit on two classes always has support vectors from both.
        X = np.array([[0.0, 0.0], [0.2, 0.1], [30.0, 30.0], [30.1, 29.9]])
        y = np.array([False, False, True, True])
        model = SVC(max_iterations=max_iterations).fit(X, y)
        assert (model._support_alpha_y > 0).any() and (model._support_alpha_y < 0).any()
        assert model.n_support_ == len(model._support_alpha_y) >= 2
        assert np.array_equal(model.predict(X), y)


class TestFigure3Fits:
    def test_one_ulp_input_change_flips_at_most_one_prediction(self, movie_context, monkeypatch):
        # Record every extractor fit behind the Figure 3 series.
        fits = []
        fit = SVC.fit

        def recording_fit(model, X, y):
            fits.append((model, np.asarray(X), np.asarray(y)))
            return fit(model, X, y)

        monkeypatch.setattr(SVC, "fit", recording_fit)
        outcome = run_crowd_quality_experiments(movie_context, seed=17)
        run_boosting_experiments(movie_context, outcome, retrain_every_minutes=5.0)
        monkeypatch.undo()

        assert len(fits) >= 10
        for model, X, y in fits:
            base = model.fit(X, y).predict(X)
            nudged = X * (1.0 + 2.0**-52)
            assert int(np.sum(model.fit(nudged, y).predict(nudged) != base)) <= 1


class TestSolverIsPinned:
    """The solver's exact output, bit for bit.

    The paper tables and ``fill_accuracy`` rest on these fits, so a
    rewrite of the solver loop must not move a single bit of the alphas,
    the bias or the number of working-set steps.
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
            pytest.param(
                75,
                7,
                "-0x1.13bd9b5e0a4c6p-3",
                122,
                63,
                "84637165593cc050f75fb9720d8ca63bfcda47a7187cd959fd40b8c8d806f798",
                id="n75",
            ),
            pytest.param(
                200,
                8,
                "0x1.2b6a282b2873bp-3",
                342,
                155,
                "d32319503323de30125c0923076b88b8a2735e6eee06fe28bb6bff125244e06a",
                id="n200",
            ),
        ],
    )
    def test_balanced_rbf_fit(self, n, seed, intercept, iterations, n_support, alpha_y_sha256):
        X, y = self.dataset(n, seed)
        model = SVC(C=2.0, class_weight="balanced").fit(X, y)
        assert model.intercept_.hex() == intercept
        assert model.n_iterations_ == iterations
        assert model.n_support_ == n_support
        digest = hashlib.sha256(model._support_alpha_y.tobytes()).hexdigest()
        assert digest == alpha_y_sha256
