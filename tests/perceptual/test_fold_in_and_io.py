"""Tests for dataset and perceptual-space persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PerceptualSpaceError
from repro.perceptual.euclidean_embedding import EuclideanEmbeddingModel
from repro.perceptual.factorization import FactorModelConfig
from repro.perceptual.io import load_ratings, load_space, save_ratings, save_space
from repro.perceptual.ratings import RatingDataset


@pytest.fixture(scope="module")
def world():
    """A small planted world: two item clusters, users near one of them."""
    rng = np.random.default_rng(0)
    n_items, n_users = 60, 150
    item_pos = rng.normal(0, 1, (n_items, 3))
    item_pos[:30] += 2.0
    user_pos = rng.normal(0, 1, (n_users, 3))
    user_pos[:75] += 2.0
    triples = []
    for user in range(n_users):
        for item in rng.choice(n_items, 25, replace=False):
            d2 = float(np.sum((item_pos[item] - user_pos[user]) ** 2))
            score = float(np.clip(4.5 - 0.3 * d2 + rng.normal(0, 0.3), 1, 5))
            triples.append((item + 1, user + 1, score))
    items, users, scores = zip(*triples)
    dataset = RatingDataset(items, users, scores)
    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=6, n_epochs=15, seed=0))
    model.fit(dataset)
    return {"item_pos": item_pos, "user_pos": user_pos, "dataset": dataset, "model": model, "rng": rng}


class TestPersistence:
    def test_space_roundtrip(self, tmp_path, world):
        space = world["model"].to_space().with_metadata(note="unit test")
        path = save_space(space, tmp_path / "space.npz")
        loaded = load_space(path)
        assert loaded.item_ids == space.item_ids
        assert np.allclose(loaded.coordinates, space.coordinates)
        assert loaded.metadata["note"] == "unit test"

    def test_ratings_roundtrip(self, tmp_path, world):
        dataset = world["dataset"]
        path = save_ratings(dataset, tmp_path / "ratings.npz")
        loaded = load_ratings(path)
        assert loaded.n_ratings == dataset.n_ratings
        assert loaded.n_items == dataset.n_items
        assert loaded.scale == dataset.scale
        assert loaded.global_mean == pytest.approx(dataset.global_mean)

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(PerceptualSpaceError):
            load_space(tmp_path / "nope.npz")
        with pytest.raises(PerceptualSpaceError):
            load_ratings(tmp_path / "nope.npz")

    def test_loaded_space_supports_queries(self, tmp_path, world):
        space = world["model"].to_space()
        loaded = load_space(save_space(space, tmp_path / "space.npz"))
        original = space.nearest_neighbors(space.item_ids[0], k=3)
        restored = loaded.nearest_neighbors(space.item_ids[0], k=3)
        assert original == restored
