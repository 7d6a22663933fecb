"""Tests for the PerceptualSpace container and its geometry queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PerceptualSpaceError, UnknownItemError
from repro.perceptual.space import PerceptualSpace


@pytest.fixture
def space() -> PerceptualSpace:
    coordinates = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [5.0, 5.0],
            [5.2, 5.1],
        ]
    )
    return PerceptualSpace([10, 20, 30, 40, 50], coordinates, metadata={"model": "test"})


class TestConstruction:
    def test_basic_properties(self, space):
        assert space.n_items == 5
        assert space.n_dimensions == 2
        assert len(space) == 5
        assert space.item_ids == [10, 20, 30, 40, 50]
        assert space.metadata["model"] == "test"

    def test_mismatched_lengths(self):
        with pytest.raises(PerceptualSpaceError):
            PerceptualSpace([1, 2], np.zeros((3, 2)))

    def test_duplicate_ids(self):
        with pytest.raises(PerceptualSpaceError):
            PerceptualSpace([1, 1], np.zeros((2, 2)))

    def test_non_2d_coordinates(self):
        with pytest.raises(PerceptualSpaceError):
            PerceptualSpace([1], np.zeros(3))

    def test_contains(self, space):
        assert 10 in space
        assert 99 not in space


class TestLookups:
    def test_vector(self, space):
        assert np.allclose(space.vector(20), [1.0, 0.0])

    def test_unknown_item(self, space):
        with pytest.raises(UnknownItemError):
            space.vector(99)

    def test_vectors_preserve_order(self, space):
        matrix = space.vectors([30, 10])
        assert np.allclose(matrix[0], [0.0, 1.0])
        assert np.allclose(matrix[1], [0.0, 0.0])


class TestGeometry:
    def test_distance(self, space):
        assert space.distance(10, 20) == pytest.approx(1.0)
        assert space.distance(40, 50) == pytest.approx(np.sqrt(0.04 + 0.01))

    def test_distances_from(self, space):
        distances = space.distances_from(10)
        assert distances[space.position(10)] == 0.0
        assert distances[space.position(40)] == pytest.approx(np.sqrt(50))

    def test_nearest_neighbors_excludes_self(self, space):
        neighbors = space.nearest_neighbors(40, k=2)
        assert [n for n, _d in neighbors] == [50, 20] or [n for n, _d in neighbors][0] == 50
        assert all(n != 40 for n, _d in neighbors)

    def test_nearest_neighbors_include_self(self, space):
        neighbors = space.nearest_neighbors(40, k=1, exclude_self=False)
        assert neighbors[0][0] == 40
        assert neighbors[0][1] == 0.0

    def test_nearest_neighbors_k_validation(self, space):
        with pytest.raises(PerceptualSpaceError):
            space.nearest_neighbors(10, k=0)

    def test_nearest_neighbors_distances_sorted(self, space):
        neighbors = space.nearest_neighbors(10, k=4)
        distances = [d for _n, d in neighbors]
        assert distances == sorted(distances)


class TestDerivedSpaces:
    def test_with_metadata(self, space):
        enriched = space.with_metadata(source="unit test")
        assert enriched.metadata["source"] == "unit test"
        assert enriched.metadata["model"] == "test"
        assert "source" not in space.metadata


class TestSpaceProperties:
    @given(st.integers(2, 20), st.integers(1, 6))
    def test_distance_symmetry_and_identity(self, n_items, dimensions):
        rng = np.random.default_rng(n_items * 10 + dimensions)
        space = PerceptualSpace(
            list(range(1, n_items + 1)), rng.normal(size=(n_items, dimensions))
        )
        first, second = 1, n_items
        assert space.distance(first, second) == pytest.approx(space.distance(second, first))
        assert space.distance(first, first) == 0.0

    @given(st.integers(3, 15))
    def test_triangle_inequality(self, n_items):
        rng = np.random.default_rng(n_items)
        space = PerceptualSpace(list(range(n_items)), rng.normal(size=(n_items, 4)))
        a, b, c = 0, 1, 2
        assert space.distance(a, c) <= space.distance(a, b) + space.distance(b, c) + 1e-9

    @given(st.integers(4, 20), st.integers(1, 3))
    def test_nearest_neighbors_are_truly_nearest(self, n_items, k):
        rng = np.random.default_rng(n_items * 7 + k)
        space = PerceptualSpace(list(range(n_items)), rng.normal(size=(n_items, 3)))
        neighbors = space.nearest_neighbors(0, k=k)
        neighbor_distances = [d for _n, d in neighbors]
        all_distances = sorted(space.distance(0, other) for other in range(1, n_items))
        assert np.allclose(neighbor_distances, all_distances[:k])
