"""Tests for the latent-trait world generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import CategorySpec, DomainCorpus, SyntheticWorld, WorldConfig
from repro.errors import ReproError


@pytest.fixture(scope="module")
def world() -> SyntheticWorld:
    return SyntheticWorld(WorldConfig(n_items=120, n_users=300, ratings_per_user=25, seed=1))


class TestWorldConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_items": 1},
            {"n_users": 0},
            {"n_traits": 0},
            {"ratings_per_user": 0},
            {"rating_scale": (5.0, 1.0)},
            {"rating_noise": -1.0},
            {"trait_cluster_count": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ReproError):
            WorldConfig(**kwargs)


class TestWorldStructure:
    def test_shapes(self, world):
        config = world.config
        assert world.item_traits.shape == (config.n_items, config.n_traits)
        assert world.user_preferences.shape == (config.n_users, config.n_traits)
        assert len(world.item_ids) == config.n_items
        assert len(world.user_ids) == config.n_users

    def test_popularity_is_distribution(self, world):
        assert world.item_popularity.sum() == pytest.approx(1.0)
        assert np.all(world.item_popularity > 0)

    def test_deterministic_given_seed(self):
        config = WorldConfig(n_items=50, n_users=80, seed=9)
        first = SyntheticWorld(config)
        second = SyntheticWorld(config)
        assert np.allclose(first.item_traits, second.item_traits)
        assert np.allclose(first.user_bias, second.user_bias)


class TestRatingGeneration:
    def test_rating_values_on_scale(self, world):
        ratings = world.generate_ratings()
        low, high = world.config.rating_scale
        assert ratings.scores.min() >= low
        assert ratings.scores.max() <= high
        assert ratings.n_items <= world.config.n_items
        assert ratings.n_users == world.config.n_users

    def test_rating_volume_matches_config(self, world):
        ratings = world.generate_ratings()
        expected = world.config.n_users * world.config.ratings_per_user
        assert 0.7 * expected < ratings.n_ratings < 1.3 * expected

    def test_ratings_reproducible(self, world):
        first = world.generate_ratings(seed=3)
        second = world.generate_ratings(seed=3)
        assert np.array_equal(first.scores, second.scores)

    def test_popular_items_receive_more_ratings(self, world):
        ratings = world.generate_ratings()
        counts = ratings.item_rating_counts()
        assert counts.max() > 3 * max(1, int(np.median(counts)))


class TestCategories:
    def test_make_categories_and_truth(self, world):
        categories = world.make_categories(["A", "B"], prevalences=[0.2, 0.4], seed=0)
        truth = world.ground_truth_for(categories)
        assert set(truth) == {"A", "B"}
        prevalence_a = np.mean(list(truth["A"].values()))
        prevalence_b = np.mean(list(truth["B"].values()))
        assert prevalence_a == pytest.approx(0.2, abs=0.05)
        assert prevalence_b == pytest.approx(0.4, abs=0.05)

    def test_prevalence_validation(self):
        with pytest.raises(ReproError):
            CategorySpec(name="bad", weights=(1.0,), prevalence=1.5)

    def test_mismatched_prevalences(self, world):
        with pytest.raises(ReproError):
            world.make_categories(["A"], prevalences=[0.1, 0.2])

    def test_category_scores_align_with_truth(self, world):
        category = world.make_categories(["A"], prevalences=[0.3], seed=1)[0]
        truth = world.ground_truth_for([category])["A"]
        scores = dict(zip(world.item_ids, world.item_traits @ np.asarray(category.weights)))
        positive_scores = [scores[i] for i, label in truth.items() if label]
        negative_scores = [scores[i] for i, label in truth.items() if not label]
        assert np.mean(positive_scores) > np.mean(negative_scores)


class TestDomainCorpus:
    def test_accessors(self, small_corpus):
        assert isinstance(small_corpus, DomainCorpus)
        assert small_corpus.item_ids == [r["item_id"] for r in small_corpus.items]
        labels = small_corpus.labels_for("Comedy")
        assert set(labels) == set(small_corpus.item_ids)
        assert 0.0 < sum(labels.values()) / len(labels) < 1.0

    def test_unknown_category(self, small_corpus):
        with pytest.raises(ReproError):
            small_corpus.labels_for("Western")

    def test_summary(self, small_corpus):
        summary = small_corpus.summary()
        assert summary["n_items"] == len(small_corpus.items)
        assert summary["n_categories"] == 6
        assert 0.0 < summary["density"] < 1.0
