"""Latent-trait world generator: the synthetic stand-in for the Social Web.

The generative model mirrors the paper's own assumptions (Section 3.2):
every item has a latent *trait vector* describing its perceptual profile,
every user has a latent *preference vector*, and a user's rating of an item
is anti-proportional to the distance between the two, plus item/user biases
and noise.  Binary perceptual categories (genres, restaurant attributes,
game mechanics, ...) are defined as half-spaces over the trait space, so
they are recoverable from rating behaviour but *not* from the factual
metadata, which is generated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError
from repro.perceptual.ratings import RatingDataset
from repro.utils.rng import RandomState, spawn_rng


@dataclass(frozen=True)
class WorldConfig:
    """Size and noise parameters of a synthetic world.

    The defaults give a corpus that trains in seconds; the movie experiments
    scale the item/user counts up via their own presets.
    """

    n_items: int = 1000
    n_users: int = 2000
    n_traits: int = 8
    ratings_per_user: int = 40
    rating_scale: tuple[float, float] = (1.0, 5.0)
    rating_noise: float = 0.35
    distance_weight: float = 0.25
    item_bias_std: float = 0.45
    user_bias_std: float = 0.35
    trait_cluster_count: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items <= 1 or self.n_users <= 1:
            raise ReproError("a world needs at least two items and two users")
        if self.n_traits <= 0:
            raise ReproError("n_traits must be positive")
        if self.ratings_per_user <= 0:
            raise ReproError("ratings_per_user must be positive")
        if self.rating_scale[0] >= self.rating_scale[1]:
            raise ReproError("invalid rating scale")
        if self.rating_noise < 0:
            raise ReproError("rating_noise must be non-negative")
        if self.trait_cluster_count <= 0:
            raise ReproError("trait_cluster_count must be positive")


@dataclass(frozen=True)
class CategorySpec:
    """Definition of one binary perceptual category.

    ``weights`` selects the traits that make an item belong to the category,
    ``prevalence`` is the desired fraction of positive items.
    """

    name: str
    weights: tuple[float, ...]
    prevalence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.prevalence < 1.0:
            raise ReproError(f"category {self.name!r}: prevalence must be in (0, 1)")


@dataclass
class DomainCorpus:
    """Everything an experiment needs about one domain.

    Attributes
    ----------
    name:
        Domain name ("movies", "restaurants", "board_games", ...).
    items:
        One record per item: factual metadata plus ``item_id``.
    ratings:
        The rating dataset used to build the perceptual space.
    ground_truth:
        ``category name -> {item_id: bool}`` true labels.
    metadata_documents:
        ``item_id -> text document`` flattening the factual metadata (the
        input of the LSI baseline).
    categories:
        The category specifications that generated the ground truth.
    """

    name: str
    items: list[dict[str, Any]]
    ratings: RatingDataset
    ground_truth: dict[str, dict[int, bool]]
    metadata_documents: dict[int, str]
    categories: list[CategorySpec] = field(default_factory=list)

    @property
    def item_ids(self) -> list[int]:
        """All item identifiers in the corpus."""
        return [int(record["item_id"]) for record in self.items]

    def labels_for(self, category: str) -> dict[int, bool]:
        """Ground-truth labels of one category."""
        if category not in self.ground_truth:
            raise ReproError(
                f"unknown category {category!r}; available: {sorted(self.ground_truth)}"
            )
        return dict(self.ground_truth[category])

    def prevalence_of(self, category: str) -> float:
        """Fraction of items that truly belong to *category*."""
        labels = self.labels_for(category)
        return sum(labels.values()) / len(labels) if labels else 0.0

    def summary(self) -> dict[str, Any]:
        """Corpus statistics in the style the paper reports."""
        return {
            "domain": self.name,
            "n_items": len(self.items),
            "n_users": self.ratings.n_users,
            "n_ratings": self.ratings.n_ratings,
            "n_categories": len(self.ground_truth),
            "density": self.ratings.density,
        }


class SyntheticWorld:
    """Generator of items, users, ratings and ground-truth categories."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        rng = spawn_rng(self.config.seed, "world", self.config.n_items, self.config.n_users)

        # Items live in trait space; clustering makes neighbourhood structure
        # interesting (sequels, sub-genres) the way real catalogues are.
        cluster_centers = rng.normal(
            0.0, 1.0, size=(self.config.trait_cluster_count, self.config.n_traits)
        )
        assignments = rng.integers(0, self.config.trait_cluster_count, size=self.config.n_items)
        self.item_traits = cluster_centers[assignments] + rng.normal(
            0.0, 0.6, size=(self.config.n_items, self.config.n_traits)
        )
        self.item_cluster = assignments

        # Users prefer regions of the same space.
        user_assignments = rng.integers(
            0, self.config.trait_cluster_count, size=self.config.n_users
        )
        self.user_preferences = cluster_centers[user_assignments] + rng.normal(
            0.0, 0.8, size=(self.config.n_users, self.config.n_traits)
        )

        self.item_bias = rng.normal(0.0, self.config.item_bias_std, size=self.config.n_items)
        self.user_bias = rng.normal(0.0, self.config.user_bias_std, size=self.config.n_users)
        self.global_mean = float(np.mean(self.config.rating_scale)) + 0.4

        # Centre the distance term so ratings stay inside the scale instead
        # of saturating at the boundaries (which would destroy the signal the
        # factor model needs to recover).  The offset is the average squared
        # item-user distance over a random sample of pairs.
        sample_items = rng.integers(0, config.n_items, size=min(2000, config.n_items * 4))
        sample_users = rng.integers(0, config.n_users, size=len(sample_items))
        sample_diff = self.item_traits[sample_items] - self.user_preferences[sample_users]
        self.distance_offset = float(np.mean(np.einsum("ij,ij->i", sample_diff, sample_diff)))

        # Popularity follows a heavy-tailed distribution, as on real platforms.
        popularity = rng.pareto(1.2, size=self.config.n_items) + 1.0
        self.item_popularity = popularity / popularity.sum()

        self._rng = rng

    # -- item ids ------------------------------------------------------------------

    @property
    def item_ids(self) -> list[int]:
        """External item identifiers (1-based, stable)."""
        return list(range(1, self.config.n_items + 1))

    @property
    def user_ids(self) -> list[int]:
        """External user identifiers (1-based, stable)."""
        return list(range(1, self.config.n_users + 1))

    # -- ratings ----------------------------------------------------------------------

    def expected_rating(self, item_index: int, user_index: int) -> float:
        """Noise-free rating of the generative model (before clipping)."""
        diff = self.item_traits[item_index] - self.user_preferences[user_index]
        distance_sq = float(np.dot(diff, diff))
        return (
            self.global_mean
            + self.item_bias[item_index]
            + self.user_bias[user_index]
            - self.config.distance_weight * (distance_sq - self.distance_offset)
        )

    def generate_ratings(self, *, seed: RandomState = None) -> RatingDataset:
        """Sample the rating corpus: who rates what, and with which score."""
        config = self.config
        rng = spawn_rng(seed if seed is not None else config.seed, "ratings")
        low, high = config.rating_scale

        item_chunks: list[np.ndarray] = []
        user_chunks: list[np.ndarray] = []
        score_chunks: list[np.ndarray] = []
        for user_index in range(config.n_users):
            n_rated = max(1, int(rng.poisson(config.ratings_per_user)))
            n_rated = min(n_rated, config.n_items)
            rated_items = rng.choice(
                config.n_items, size=n_rated, replace=False, p=self.item_popularity
            )
            diff = self.item_traits[rated_items] - self.user_preferences[user_index]
            distance_sq = np.einsum("ij,ij->i", diff, diff)
            scores = (
                self.global_mean
                + self.item_bias[rated_items]
                + self.user_bias[user_index]
                - config.distance_weight * (distance_sq - self.distance_offset)
                + rng.normal(0.0, config.rating_noise, size=n_rated)
            )
            # Ratings on real platforms are integers on the scale.
            scores = np.clip(np.rint(scores), low, high)
            item_chunks.append(rated_items + 1)
            user_chunks.append(np.full(n_rated, user_index + 1))
            score_chunks.append(scores)

        return RatingDataset(
            np.concatenate(item_chunks),
            np.concatenate(user_chunks),
            np.concatenate(score_chunks),
            scale=config.rating_scale,
        )

    # -- categories -------------------------------------------------------------------------

    def make_categories(
        self,
        names: Sequence[str],
        *,
        prevalences: Sequence[float] | None = None,
        traits_per_category: int = 2,
        seed: RandomState = None,
    ) -> list[CategorySpec]:
        """Define binary categories as sparse half-spaces over the trait space."""
        rng = spawn_rng(seed if seed is not None else self.config.seed, "categories", len(names))
        if prevalences is None:
            prevalences = [float(rng.uniform(0.10, 0.35)) for _ in names]
        if len(prevalences) != len(names):
            raise ReproError("prevalences must match the number of category names")
        categories = []
        for name, prevalence in zip(names, prevalences):
            weights = np.zeros(self.config.n_traits)
            chosen = rng.choice(self.config.n_traits, size=min(traits_per_category, self.config.n_traits), replace=False)
            weights[chosen] = rng.normal(1.0, 0.3, size=len(chosen)) * rng.choice([-1.0, 1.0], size=len(chosen))
            categories.append(
                CategorySpec(name=name, weights=tuple(weights), prevalence=float(prevalence))
            )
        return categories

    def ground_truth_for(self, categories: Sequence[CategorySpec]) -> dict[str, dict[int, bool]]:
        """Derive the true item labels of every category."""
        truth: dict[str, dict[int, bool]] = {}
        for category in categories:
            weights = np.asarray(category.weights)
            scores = self.item_traits @ weights
            threshold = float(np.quantile(scores, 1.0 - category.prevalence))
            labels = scores > threshold
            truth[category.name] = {
                item_id: bool(label) for item_id, label in zip(self.item_ids, labels)
            }
        return truth

    def category_scores(self, category: CategorySpec) -> dict[int, float]:
        """Continuous category affinity per item (useful for numeric attributes)."""
        weights = np.asarray(category.weights)
        scores = self.item_traits @ weights
        return {item_id: float(score) for item_id, score in zip(self.item_ids, scores)}

