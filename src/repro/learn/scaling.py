"""Feature standardisation.

Perceptual-space coordinates have roughly comparable scales across
dimensions, but the LSI metadata space and hand-crafted features do not, so
the classifiers standardise their inputs by default.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError


class StandardScaler:
    """Standardise features to zero mean and unit variance."""

    def __init__(self, *, with_mean: bool = True, with_std: bool = True) -> None:
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and standard deviation from *data*."""
        data = np.asarray(data, dtype=np.float64)
        self.mean_ = data.mean(axis=0) if self.with_mean else np.zeros(data.shape[1])
        if self.with_std:
            scale = data.std(axis=0)
            scale[scale == 0.0] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(data.shape[1])
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation to *data*."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError(self)
        data = np.asarray(data, dtype=np.float64)
        return (data - self.mean_) / self.scale_

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Fit to *data* and return the transformed array."""
        return self.fit(data).transform(data)
