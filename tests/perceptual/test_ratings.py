"""Tests for the rating dataset container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PerceptualSpaceError, UnknownItemError, UnknownUserError
from repro.perceptual.ratings import Rating, RatingDataset


def from_triples(triples) -> RatingDataset:
    items, users, scores = zip(*triples)
    return RatingDataset(items, users, scores)


@pytest.fixture
def dataset() -> RatingDataset:
    triples = [
        (10, 1, 5.0), (10, 2, 4.0), (10, 3, 3.0),
        (20, 1, 2.0), (20, 2, 1.0),
        (30, 3, 5.0),
    ]
    return from_triples(triples)


class TestConstruction:
    def test_basic_counts(self, dataset):
        assert dataset.n_ratings == 6
        assert dataset.n_items == 3
        assert dataset.n_users == 3
        assert len(dataset) == 6

    def test_global_mean(self, dataset):
        assert dataset.global_mean == pytest.approx(np.mean([5, 4, 3, 2, 1, 5]))

    def test_density(self, dataset):
        assert dataset.density == pytest.approx(6 / 9)

    def test_mismatched_lengths(self):
        with pytest.raises(PerceptualSpaceError):
            RatingDataset([1, 2], [1], [5.0, 4.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(PerceptualSpaceError):
            RatingDataset([], [], [])

    def test_invalid_scale(self):
        with pytest.raises(PerceptualSpaceError):
            RatingDataset([1], [1], [3.0], scale=(5, 1))

    def test_iteration_roundtrip(self, dataset):
        ratings = list(dataset)
        assert len(ratings) == 6
        assert all(isinstance(r, Rating) for r in ratings)
        assert {r.item_id for r in ratings} == {10, 20, 30}

    def test_repr(self, dataset):
        assert "n_items=3" in repr(dataset)


class TestIndexMapping:
    def test_item_positions_are_consistent(self, dataset):
        for item_id in (10, 20, 30):
            position = dataset.item_position(item_id)
            assert dataset.item_ids[position] == item_id

    def test_unknown_item(self, dataset):
        with pytest.raises(UnknownItemError):
            dataset.item_position(99)

    def test_unknown_user(self, dataset):
        with pytest.raises(UnknownUserError):
            dataset.user_position(99)


class TestStatistics:
    def test_item_rating_counts(self, dataset):
        counts = dict(zip(dataset.item_ids.tolist(), dataset.item_rating_counts().tolist()))
        assert counts == {10: 3, 20: 2, 30: 1}

    def test_user_rating_counts(self, dataset):
        counts = dict(zip(dataset.user_ids.tolist(), dataset.user_rating_counts().tolist()))
        assert counts == {1: 2, 2: 2, 3: 2}

    def test_item_means(self, dataset):
        means = dict(zip(dataset.item_ids.tolist(), dataset.item_means().tolist()))
        assert means[10] == pytest.approx(4.0)
        assert means[20] == pytest.approx(1.5)

    def test_user_means(self, dataset):
        means = dict(zip(dataset.user_ids.tolist(), dataset.user_means().tolist()))
        assert means[1] == pytest.approx(3.5)


class TestTransformations:
    def test_take(self, dataset):
        subset = dataset.take(np.array([0, 1]))
        assert subset.n_ratings == 2
        with pytest.raises(PerceptualSpaceError):
            dataset.take(np.array([], dtype=int))


class TestDatasetProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 30), st.integers(1, 30),
                st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_counts_match_input(self, triples):
        dataset = from_triples(triples)
        assert dataset.n_ratings == len(triples)
        assert dataset.n_items == len({t[0] for t in triples})
        assert dataset.n_users == len({t[1] for t in triples})

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10), st.integers(1, 10),
                st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
            ),
            min_size=2,
            max_size=100,
        )
    )
    def test_global_mean_in_scale(self, triples):
        dataset = from_triples(triples)
        assert 1.0 <= dataset.global_mean <= 5.0
        counts = dataset.item_rating_counts()
        assert counts.sum() == dataset.n_ratings
