"""Tests for the SVD and Euclidean-embedding factor models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotFittedError, PerceptualSpaceError
from repro.perceptual.euclidean_embedding import EuclideanEmbeddingModel
from repro.perceptual.factorization import FactorModelConfig
from repro.perceptual.ratings import RatingDataset
from repro.perceptual.svd_model import SVDModel


def planted_dataset(seed: int = 0, n_items: int = 80, n_users: int = 200) -> RatingDataset:
    """Ratings generated from a 2-cluster planted structure."""
    rng = np.random.default_rng(seed)
    item_pos = rng.normal(0, 1, (n_items, 3))
    item_pos[: n_items // 2] += 2.0
    user_pos = rng.normal(0, 1, (n_users, 3))
    user_pos[: n_users // 2] += 2.0
    triples = []
    for user in range(n_users):
        rated = rng.choice(n_items, size=30, replace=False)
        for item in rated:
            distance_sq = float(np.sum((item_pos[item] - user_pos[user]) ** 2))
            score = float(np.clip(4.5 - 0.35 * distance_sq + rng.normal(0, 0.3), 1, 5))
            triples.append((item + 1, user + 1, score))
    items, users, scores = zip(*triples)
    return RatingDataset(items, users, scores)


@pytest.fixture(scope="module")
def dataset() -> RatingDataset:
    return planted_dataset()


@pytest.fixture(scope="module")
def fitted_embedding(dataset) -> EuclideanEmbeddingModel:
    config = FactorModelConfig(n_factors=8, n_epochs=15, seed=0)
    return EuclideanEmbeddingModel(config).fit(dataset)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_factors": 0},
            {"n_epochs": 0},
            {"learning_rate": 0},
            {"regularization": -1},
            {"batch_size": 0},
            {"learning_rate_decay": 0},
            {"learning_rate_decay": 1.5},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(PerceptualSpaceError):
            FactorModelConfig(**kwargs)

    def test_defaults_follow_paper(self):
        config = FactorModelConfig()
        assert config.regularization == pytest.approx(0.02)


class TestEuclideanEmbedding:
    def test_training_reduces_rmse(self, dataset):
        model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=8, n_epochs=10, seed=1))
        model.fit(dataset)
        history = model.history.epoch_rmse
        assert history[-1] < history[0]
        assert history[-1] < 1.2

    def test_predictions_have_sane_range(self, fitted_embedding, dataset):
        predictions = fitted_embedding._predict_batch(dataset.item_index, dataset.user_index)
        assert np.all(np.isfinite(predictions))
        assert predictions.mean() == pytest.approx(dataset.global_mean, abs=0.6)

    def test_predict_by_external_ids(self, fitted_embedding):
        values = fitted_embedding.predict([1, 2], [1, 1])
        assert values.shape == (2,)

    def test_biases_initialised_from_means(self, dataset):
        model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=4, n_epochs=1, seed=0))
        model.fit(dataset)
        assert model.item_bias is not None
        assert model.item_bias.shape == (dataset.n_items,)

    def test_rating_components_decomposition(self, fitted_embedding, dataset):
        # r(m, u) = mu + delta_m + delta_u - ||x_m - y_u||^2
        item_idx, user_idx = dataset.item_index[:5], dataset.user_index[:5]
        diff = fitted_embedding.item_factors[item_idx] - fitted_embedding.user_factors[user_idx]
        reconstructed = (
            fitted_embedding.global_mean
            + fitted_embedding.item_bias[item_idx]
            + fitted_embedding.user_bias[user_idx]
            - np.sum(diff**2, axis=1)
        )
        ratings = list(dataset)[:5]
        predicted = fitted_embedding.predict(
            [r.item_id for r in ratings], [r.user_id for r in ratings]
        )
        assert np.allclose(reconstructed, predicted)

    def test_not_fitted_errors(self):
        model = EuclideanEmbeddingModel()
        with pytest.raises(NotFittedError):
            model.predict([1], [1])
        with pytest.raises(NotFittedError):
            model.to_space()

    def test_space_recovers_planted_clusters(self, fitted_embedding, dataset):
        space = fitted_embedding.to_space()
        coords = space.coordinates
        n_items = dataset.n_items
        first_half = [space.position(i) for i in range(1, n_items // 2 + 1)]
        second_half = [space.position(i) for i in range(n_items // 2 + 1, n_items + 1)]
        centroid_distance = np.linalg.norm(
            coords[first_half].mean(axis=0) - coords[second_half].mean(axis=0)
        )
        within_spread = np.mean(
            [np.std(coords[first_half], axis=0).mean(), np.std(coords[second_half], axis=0).mean()]
        )
        assert centroid_distance > within_spread

    def test_rmse_on_held_out_data(self, dataset):
        permutation = np.random.default_rng(0).permutation(dataset.n_ratings)
        n_test = dataset.n_ratings // 5
        train, test = dataset.take(permutation[n_test:]), dataset.take(permutation[:n_test])
        model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=8, n_epochs=10, seed=0))
        model.fit(train)
        # Only pairs whose item and user were both trained have coordinates.
        items, users = set(train.item_ids.tolist()), set(train.user_ids.tolist())
        held_out = [r for r in test if r.item_id in items and r.user_id in users]
        predicted = model.predict([r.item_id for r in held_out], [r.user_id for r in held_out])
        rmse = float(np.sqrt(np.mean((np.array([r.score for r in held_out]) - predicted) ** 2)))
        assert len(held_out) > 0.9 * len(test)
        assert 0.0 < rmse < 1.5

    def test_early_stopping_records_epoch(self, dataset):
        config = FactorModelConfig(
            n_factors=4, n_epochs=50, seed=0, early_stopping_tolerance=0.05
        )
        model = EuclideanEmbeddingModel(config).fit(dataset)
        assert model.history.converged_after is not None
        assert model.history.converged_after <= 50

    def test_reproducible_with_same_seed(self, dataset):
        config = FactorModelConfig(n_factors=4, n_epochs=3, seed=7)
        first = EuclideanEmbeddingModel(config).fit(dataset)
        second = EuclideanEmbeddingModel(config).fit(dataset)
        assert np.allclose(first.item_factors, second.item_factors)


class TestSVDModel:
    def test_training_reduces_rmse(self, dataset):
        model = SVDModel(FactorModelConfig(n_factors=8, n_epochs=10, seed=1))
        model.fit(dataset)
        assert model.history.epoch_rmse[-1] < model.history.epoch_rmse[0]

    def test_space_dimensions(self, dataset):
        model = SVDModel(FactorModelConfig(n_factors=6, n_epochs=5, seed=0)).fit(dataset)
        space = model.to_space()
        assert space.n_dimensions == 6
        assert space.n_items == dataset.n_items

    def test_history_final_rmse_property(self, dataset):
        model = SVDModel(FactorModelConfig(n_factors=4, n_epochs=3, seed=0)).fit(dataset)
        final_rmse = model.history.epoch_rmse[-1]
        assert final_rmse == model.training_rmse()
        assert model.to_space().metadata["training_rmse"] == final_rmse

    def test_unfitted_history_raises(self):
        model = SVDModel()
        assert model.history.epoch_rmse == []
        with pytest.raises(NotFittedError):
            model.training_rmse()

    def test_embedding_beats_unpersonalised_baseline(self, dataset, fitted_embedding):
        baseline_rmse = float(np.sqrt(np.mean((dataset.scores - dataset.global_mean) ** 2)))
        assert fitted_embedding.training_rmse(dataset) < baseline_rmse
