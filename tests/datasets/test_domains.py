"""Tests for the movie, restaurant and board-game corpus builders and experts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.boardgames import (
    BOARDGAME_CATEGORIES,
    FACTUAL_BOARDGAME_CATEGORIES,
    build_boardgame_corpus,
)
from repro.datasets.experts import (
    build_expert_databases,
    majority_reference,
)
from repro.datasets.movies import MOVIE_GENRES, build_movie_corpus, item_name, popular_item_ids
from repro.datasets.restaurants import RESTAURANT_CATEGORIES, build_restaurant_corpus
from repro.errors import ReproError
from repro.learn.metrics import g_mean


def prevalence(corpus, category: str) -> float:
    """Fraction of the corpus' items that truly belong to *category*."""
    labels = corpus.labels_for(category)
    return sum(labels.values()) / len(labels)


class TestMovieCorpus:
    def test_genres_present(self, small_corpus):
        assert set(small_corpus.ground_truth) == set(MOVIE_GENRES)

    def test_prevalences_roughly_match_spec(self, small_corpus):
        for genre, target in MOVIE_GENRES.items():
            assert prevalence(small_corpus, genre) == pytest.approx(target, abs=0.06)

    def test_metadata_documents_cover_all_items(self, small_corpus):
        assert set(small_corpus.metadata_documents) == set(small_corpus.item_ids)
        assert all(len(doc) > 10 for doc in small_corpus.metadata_documents.values())

    def test_items_have_movie_fields(self, small_corpus):
        record = small_corpus.items[0]
        assert {"item_id", "name", "year", "director", "actors", "country"} <= set(record)

    def test_reproducible(self):
        first = build_movie_corpus(n_movies=50, n_users=100, ratings_per_user=10, seed=5)
        second = build_movie_corpus(n_movies=50, n_users=100, ratings_per_user=10, seed=5)
        assert [r["name"] for r in first.items] == [r["name"] for r in second.items]
        assert np.array_equal(first.ratings.scores, second.ratings.scores)

    def test_popular_item_ids(self, small_corpus):
        popular = popular_item_ids(small_corpus, k=3)
        assert len(popular) == 3
        counts = small_corpus.ratings.item_rating_counts()
        top_count = counts.max()
        first_position = small_corpus.ratings.item_position(popular[0])
        assert counts[first_position] == top_count

    def test_item_name_lookup(self, small_corpus):
        item_id = small_corpus.item_ids[0]
        assert item_name(small_corpus, item_id) == small_corpus.items[0]["name"]
        assert item_name(small_corpus, 10**9) == str(10**9)


class TestExpertDatabases:
    def test_expert_labels_are_noisy_but_close(self, small_corpus):
        experts = build_expert_databases(small_corpus.ground_truth, seed=0)
        assert len(experts) == 3
        for expert in experts:
            truth = small_corpus.ground_truth["Comedy"]
            labels = expert.labels_for("Comedy")
            agreement = np.mean([labels[i] == truth[i] for i in truth])
            assert 0.9 < agreement < 1.0

    def test_expert_gmean_against_majority_in_paper_range(self, small_corpus):
        experts = build_expert_databases(small_corpus.ground_truth, seed=0)
        reference = majority_reference(experts)
        for expert in experts:
            truth = reference["Comedy"]
            common = sorted(truth)
            score = g_mean(
                np.array([truth[i] for i in common]),
                np.array([expert.labels["Comedy"][i] for i in common]),
            )
            assert 0.85 < score < 1.0

    def test_majority_reference_covers_items(self, small_corpus):
        experts = build_expert_databases(small_corpus.ground_truth, seed=0)
        reference = majority_reference(experts)
        assert set(reference) == set(small_corpus.ground_truth)
        assert len(reference["Comedy"]) == len(small_corpus.item_ids)

    def test_partial_coverage(self, small_corpus):
        experts = build_expert_databases(small_corpus.ground_truth, coverage=0.8, seed=0)
        labels = experts[0].labels_for("Comedy")
        assert len(labels) < len(small_corpus.item_ids)

    def test_validation(self, small_corpus):
        with pytest.raises(ReproError):
            build_expert_databases(small_corpus.ground_truth, error_rates={})
        with pytest.raises(ReproError):
            build_expert_databases(small_corpus.ground_truth, error_rates={"X": 0.7})
        with pytest.raises(ReproError):
            build_expert_databases(small_corpus.ground_truth, coverage=0.0)
        with pytest.raises(ReproError):
            majority_reference([])

    def test_unknown_category_lookup(self, small_corpus):
        experts = build_expert_databases(small_corpus.ground_truth, seed=0)
        with pytest.raises(ReproError):
            experts[0].labels_for("Western")


class TestOtherDomainCorpora:
    @pytest.fixture(scope="class")
    def restaurants(self):
        return build_restaurant_corpus(n_restaurants=150, n_users=300, ratings_per_user=15, seed=2)

    @pytest.fixture(scope="class")
    def boardgames(self):
        return build_boardgame_corpus(n_games=150, n_users=300, ratings_per_user=20, seed=2)

    def test_restaurant_categories(self, restaurants):
        assert set(restaurants.ground_truth) == set(RESTAURANT_CATEGORIES)
        assert restaurants.name == "restaurants"

    def test_restaurant_metadata(self, restaurants):
        record = restaurants.items[0]
        assert {"cuisine", "neighborhood", "price_level"} <= set(record)

    def test_boardgame_categories(self, boardgames):
        assert set(boardgames.ground_truth) == set(BOARDGAME_CATEGORIES)
        assert boardgames.name == "board_games"

    def test_boardgame_rating_scale(self, boardgames):
        assert boardgames.ratings.scores.max() <= 10.0
        assert boardgames.ratings.scores.min() >= 1.0

    def test_factual_categories_weakly_coupled_to_traits(self, boardgames):
        """Factual categories are mostly random w.r.t. the perceptual traits."""
        for name in FACTUAL_BOARDGAME_CATEGORIES:
            labels = boardgames.labels_for(name)
            prevalence = np.mean(list(labels.values()))
            target = BOARDGAME_CATEGORIES[name]
            assert prevalence == pytest.approx(target, abs=0.12)

    def test_prevalences_within_bounds(self, restaurants):
        for category, target in RESTAURANT_CATEGORIES.items():
            assert prevalence(restaurants, category) == pytest.approx(target, abs=0.08)
