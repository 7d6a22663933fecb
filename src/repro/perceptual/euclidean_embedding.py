"""The paper's Euclidean-embedding factor model.

Section 3.3 proposes a modified Euclidean Embedding (after Khoshneshin &
Street, 2010): the predicted rating of movie *m* by user *u* is

    r̂(m, u) = μ + δ_m + δ_u − d_E²(a_m, b_u)

where μ is the global rating mean, δ_m and δ_u are item and user biases and
d_E is the Euclidean distance between the item and user coordinates.  The
parameters are found by minimising the regularised squared error

    Σ (r − r̂)² + λ · (d_E⁴(a_m, b_u) + δ_m² + δ_u²)

with mini-batch gradient descent.  The resulting *item* coordinates form
the perceptual space used for schema expansion.
"""

from __future__ import annotations

import numpy as np

from repro.perceptual.factorization import BaseFactorModel, FactorModelConfig
from repro.perceptual.ratings import RatingDataset


class EuclideanEmbeddingModel(BaseFactorModel):
    """Distance-based factor model with item and user biases."""

    def __init__(self, config: FactorModelConfig | None = None) -> None:
        super().__init__(config)
        self.global_mean: float = 0.0
        self.item_bias: np.ndarray | None = None
        self.user_bias: np.ndarray | None = None

    # -- initialisation --------------------------------------------------------------

    def _initialise(self, dataset: RatingDataset, rng: np.random.Generator) -> None:
        scale = self.config.init_scale
        d = self.config.n_factors
        self.global_mean = dataset.global_mean
        self.item_factors = rng.normal(0.0, scale, size=(dataset.n_items, d))
        self.user_factors = rng.normal(0.0, scale, size=(dataset.n_users, d))
        # Biases start at the observed deviations from the global mean, the
        # interpretation given in the paper's worked example (Section 3.3).
        self.item_bias = dataset.item_means() - self.global_mean
        self.user_bias = dataset.user_means() - self.global_mean

    # -- prediction --------------------------------------------------------------------

    def _predict_batch(self, item_idx: np.ndarray, user_idx: np.ndarray) -> np.ndarray:
        assert self.item_factors is not None and self.user_factors is not None
        assert self.item_bias is not None and self.user_bias is not None
        diff = self.item_factors[item_idx] - self.user_factors[user_idx]
        squared_distance = np.einsum("ij,ij->i", diff, diff)
        return (
            self.global_mean
            + self.item_bias[item_idx]
            + self.user_bias[user_idx]
            - squared_distance
        )

    # -- gradient step --------------------------------------------------------------------

    def _update_batch(
        self,
        item_idx: np.ndarray,
        user_idx: np.ndarray,
        scores: np.ndarray,
        learning_rate: float,
    ) -> None:
        assert self.item_factors is not None and self.user_factors is not None
        assert self.item_bias is not None and self.user_bias is not None
        lam = self.config.regularization

        items = self.item_factors[item_idx]
        users = self.user_factors[user_idx]
        diff = items - users
        squared_distance = np.einsum("ij,ij->i", diff, diff)
        predictions = (
            self.global_mean
            + self.item_bias[item_idx]
            + self.user_bias[user_idx]
            - squared_distance
        )
        errors = scores - predictions

        # d/d a_m of (r - r̂)² = 2·err·(2·diff) ; of λ·d⁴ = 4·λ·d²·diff.
        # The common factor 2 is folded into the learning rate.
        coefficient = (2.0 * errors + 2.0 * lam * squared_distance)[:, None] * diff
        grad_items = coefficient
        grad_users = -coefficient
        grad_item_bias = -errors + lam * self.item_bias[item_idx]
        grad_user_bias = -errors + lam * self.user_bias[user_idx]

        item_update = np.zeros_like(self.item_factors)
        user_update = np.zeros_like(self.user_factors)
        item_bias_update = np.zeros_like(self.item_bias)
        user_bias_update = np.zeros_like(self.user_bias)
        np.add.at(item_update, item_idx, grad_items)
        np.add.at(user_update, user_idx, grad_users)
        np.add.at(item_bias_update, item_idx, grad_item_bias)
        np.add.at(user_bias_update, user_idx, grad_user_bias)

        # Average per entity so popular items do not take huge steps (which
        # destabilises the squared-distance objective).
        item_counts = np.maximum(np.bincount(item_idx, minlength=len(self.item_bias)), 1)
        user_counts = np.maximum(np.bincount(user_idx, minlength=len(self.user_bias)), 1)
        item_update /= item_counts[:, None]
        user_update /= user_counts[:, None]
        item_bias_update /= item_counts
        user_bias_update /= user_counts

        self.item_factors -= learning_rate * item_update
        self.user_factors -= learning_rate * user_update
        self.item_bias -= learning_rate * item_bias_update
        self.user_bias -= learning_rate * user_bias_update
