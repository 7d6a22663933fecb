"""Perceptual spaces built from Social-Web rating data.

A perceptual space is a d-dimensional coordinate space in which every item
and every user is a point; a user's rating of an item is a function of the
two points (Section 3 of the paper).  This package provides the rating-data
container, the factor models used to learn the coordinates (the baseline
SVD model and the paper's Euclidean-embedding model), and the
:class:`~repro.perceptual.space.PerceptualSpace` object the schema-expansion
layer works with.
"""

from repro.perceptual.euclidean_embedding import EuclideanEmbeddingModel
from repro.perceptual.factorization import FactorModelConfig, TrainingHistory
from repro.perceptual.io import load_ratings, load_space, save_ratings, save_space
from repro.perceptual.neighbors import nearest_neighbors, pairwise_distances
from repro.perceptual.ratings import Rating, RatingDataset
from repro.perceptual.space import PerceptualSpace
from repro.perceptual.svd_model import SVDModel

__all__ = [
    "EuclideanEmbeddingModel",
    "FactorModelConfig",
    "PerceptualSpace",
    "Rating",
    "RatingDataset",
    "SVDModel",
    "TrainingHistory",
    "load_ratings",
    "load_space",
    "nearest_neighbors",
    "pairwise_distances",
    "save_ratings",
    "save_space",
]
