"""Shared machinery for factor models trained by mini-batch gradient descent.

Both factor models (the baseline SVD model and the paper's Euclidean
embedding) share the same training skeleton: initialise parameters, iterate
epochs of shuffled mini-batches, apply vectorised gradient updates
(``numpy.add.at`` scatter-adds), track the training error and optionally
stop early.  Subclasses only implement prediction and the per-batch
gradient computation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import NotFittedError, PerceptualSpaceError
from repro.perceptual.ratings import RatingDataset
from repro.perceptual.space import PerceptualSpace
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class FactorModelConfig:
    """Hyper-parameters shared by all factor models.

    The defaults follow the paper where applicable: regularisation
    λ = 0.02 "worked well across many different data sets"; the paper uses
    d = 100 but notes the exact choice "does not significantly influence
    the properties of the space as long as d is large enough" — the library
    defaults to a smaller d so the scaled-down experiments stay fast.
    """

    n_factors: int = 32
    n_epochs: int = 30
    learning_rate: float = 0.05
    regularization: float = 0.02
    batch_size: int = 8192
    learning_rate_decay: float = 0.95
    init_scale: float = 0.1
    early_stopping_tolerance: float = 1e-5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_factors <= 0:
            raise PerceptualSpaceError("n_factors must be positive")
        if self.n_epochs <= 0:
            raise PerceptualSpaceError("n_epochs must be positive")
        if self.learning_rate <= 0:
            raise PerceptualSpaceError("learning_rate must be positive")
        if self.regularization < 0:
            raise PerceptualSpaceError("regularization must be non-negative")
        if self.batch_size <= 0:
            raise PerceptualSpaceError("batch_size must be positive")
        if not 0 < self.learning_rate_decay <= 1:
            raise PerceptualSpaceError("learning_rate_decay must be in (0, 1]")


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics collected during training."""

    epoch_rmse: list[float] = field(default_factory=list)
    converged_after: int | None = None


class BaseFactorModel(abc.ABC):
    """Template for factor models trained with mini-batch gradient descent."""

    def __init__(self, config: FactorModelConfig | None = None) -> None:
        self.config = config or FactorModelConfig()
        self.item_factors: np.ndarray | None = None
        self.user_factors: np.ndarray | None = None
        self.history = TrainingHistory()
        self._dataset: RatingDataset | None = None

    # -- abstract pieces -----------------------------------------------------------

    @abc.abstractmethod
    def _initialise(self, dataset: RatingDataset, rng: np.random.Generator) -> None:
        """Allocate and initialise all model parameters."""

    @abc.abstractmethod
    def _predict_batch(self, item_idx: np.ndarray, user_idx: np.ndarray) -> np.ndarray:
        """Predict ratings for the given (item, user) index pairs."""

    @abc.abstractmethod
    def _update_batch(
        self,
        item_idx: np.ndarray,
        user_idx: np.ndarray,
        scores: np.ndarray,
        learning_rate: float,
    ) -> None:
        """Apply one gradient step for the given mini-batch."""

    # -- training ---------------------------------------------------------------------

    def fit(self, dataset: RatingDataset) -> "BaseFactorModel":
        """Fit the model to *dataset* and return self."""
        rng = spawn_rng(self.config.seed, type(self).__name__, dataset.n_ratings)
        self._dataset = dataset
        self._initialise(dataset, rng)
        self.history = TrainingHistory()

        n = dataset.n_ratings
        learning_rate = self.config.learning_rate
        previous_rmse = np.inf

        for epoch in range(self.config.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                self._update_batch(
                    dataset.item_index[batch],
                    dataset.user_index[batch],
                    dataset.scores[batch],
                    learning_rate,
                )
            rmse = self.training_rmse(dataset)
            self.history.epoch_rmse.append(rmse)
            if abs(previous_rmse - rmse) < self.config.early_stopping_tolerance:
                self.history.converged_after = epoch + 1
                break
            previous_rmse = rmse
            learning_rate *= self.config.learning_rate_decay
        return self

    # -- prediction -------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.item_factors is None or self.user_factors is None:
            raise NotFittedError(self)

    def predict(self, item_ids: Sequence[int], user_ids: Sequence[int]) -> np.ndarray:
        """Predict scores for external ``(item_id, user_id)`` pairs."""
        self._require_fitted()
        assert self._dataset is not None
        item_idx = np.array([self._dataset.item_position(i) for i in item_ids])
        user_idx = np.array([self._dataset.user_position(u) for u in user_ids])
        return self._predict_batch(item_idx, user_idx)

    def training_rmse(self, dataset: RatingDataset | None = None) -> float:
        """Root-mean-square error over the (training) dataset."""
        self._require_fitted()
        data = dataset or self._dataset
        assert data is not None
        predictions = self._predict_batch(data.item_index, data.user_index)
        return float(np.sqrt(np.mean((data.scores - predictions) ** 2)))

    # -- space extraction ------------------------------------------------------------------

    def to_space(self) -> PerceptualSpace:
        """Package the learned item coordinates as a :class:`PerceptualSpace`."""
        self._require_fitted()
        assert self._dataset is not None and self.item_factors is not None
        return PerceptualSpace(
            item_ids=self._dataset.item_ids.tolist(),
            coordinates=self.item_factors.copy(),
            metadata={
                "model": type(self).__name__,
                "n_factors": self.config.n_factors,
                "regularization": self.config.regularization,
                "training_rmse": self.history.epoch_rmse[-1] if self.history.epoch_rmse else None,
            },
        )
