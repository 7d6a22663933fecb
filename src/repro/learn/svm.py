"""Binary soft-margin Support Vector Classifier trained with SMO.

This is the classifier the paper uses to extract binary perceptual
attributes (like ``is_comedy``) from the perceptual space (Section 4.2):
an SVM with an RBF kernel trained on a small crowd-sourced gold sample.
Training sets in all experiments are tiny (tens to around a thousand
points), so the classic Sequential Minimal Optimization algorithm in pure
Python/numpy is fast enough: the scalar SMO steps run on Python floats,
and only the O(n) error-cache update after each step runs in numpy.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from repro.errors import LearningError, NotFittedError
from repro.learn.kernels import Kernel, RBFKernel, resolve_kernel
from repro.learn.scaling import StandardScaler
from repro.utils.rng import RandomState, spawn_rng


class SVC:
    """Soft-margin kernel SVM for binary classification.

    Parameters
    ----------
    C:
        Soft-margin penalty.
    kernel:
        Kernel name (``"linear"``, ``"rbf"``, ``"poly"``) or a
        :class:`~repro.learn.kernels.Kernel` instance.
    gamma:
        RBF bandwidth (``"scale"`` resolves to ``1 / (d * Var(X))``).
    tol:
        KKT violation tolerance.
    max_passes:
        Number of consecutive full passes without any alpha update before
        SMO stops.
    max_iterations:
        Hard cap on optimisation sweeps (safety bound).
    class_weight:
        ``None`` or ``"balanced"``; balanced scales C inversely with class
        frequencies, which stabilises the heavily imbalanced genres.
    standardize:
        Whether to standardise features before training.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        *,
        gamma: Union[float, str] = "scale",
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iterations: int = 200,
        class_weight: str | None = None,
        standardize: bool = True,
        seed: RandomState = None,
    ) -> None:
        if C <= 0:
            raise LearningError("C must be positive")
        if class_weight not in (None, "balanced"):
            raise LearningError(f"unsupported class_weight {class_weight!r}")
        self.C = float(C)
        self._kernel_spec = kernel
        self._gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_iterations = max_iterations
        self.class_weight = class_weight
        self.standardize = standardize
        self._seed = seed

        self.kernel: Kernel | None = None
        self._scaler: StandardScaler | None = None
        self._support_vectors: np.ndarray | None = None
        self._support_alpha_y: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_support_: int = 0
        self.n_iterations_: int = 0

    # -- fitting ---------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: Sequence[bool] | np.ndarray) -> "SVC":
        """Fit the classifier on features *X* and boolean/±1 labels *y*."""
        X = np.asarray(X, dtype=np.float64)
        labels = self._to_signed(np.asarray(y))
        if X.ndim != 2:
            raise LearningError("X must be a 2-d array")
        if len(labels) != X.shape[0]:
            raise LearningError("X and y must have the same number of rows")
        if len(np.unique(labels)) < 2:
            raise LearningError("training data must contain both classes")

        if self.standardize:
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        else:
            self._scaler = None

        self.kernel = self._resolve_fitted_kernel(X)
        gram = self.kernel(X, X)

        n = X.shape[0]
        # Scalar steps read Python lists: a numpy element read boxes a scalar
        # that costs more than the arithmetic.  Same operations, same order.
        K = gram.tolist()
        rows = list(gram)
        signs = labels.tolist()
        C = self._per_sample_C(labels).tolist()
        alphas = [0.0] * n
        bias = 0.0
        partners = _partner_draws(spawn_rng(self._seed, "svc", n), n)

        # Error cache: errors[k] = f(x_k) - y_k, updated incrementally after
        # every alpha change so each SMO step stays O(n).
        errors = -labels.astype(np.float64)

        passes = 0
        iterations = 0
        while passes < self.max_passes and iterations < self.max_iterations:
            alphas_changed = 0
            for i in range(n):
                error_i = errors.item(i)
                y_i = signs[i]
                alpha_i_old = alphas[i]
                if not (
                    (y_i * error_i < -self.tol and alpha_i_old < C[i])
                    or (y_i * error_i > self.tol and alpha_i_old > 0)
                ):
                    continue
                j = next(partners)
                if j >= i:
                    j += 1
                error_j = errors.item(j)
                y_j = signs[j]

                alpha_j_old = alphas[j]
                if y_i != y_j:
                    low = max(0.0, alpha_j_old - alpha_i_old)
                    high = min(C[j], C[j] + alpha_j_old - alpha_i_old)
                else:
                    low = max(0.0, alpha_i_old + alpha_j_old - C[i])
                    high = min(C[j], alpha_i_old + alpha_j_old)
                if low >= high:
                    continue

                K_ij, K_ii, K_jj = K[i][j], K[i][i], K[j][j]
                eta = 2.0 * K_ij - K_ii - K_jj
                if eta >= 0:
                    continue

                alpha_j = min(max(alpha_j_old - y_j * (error_i - error_j) / eta, low), high)
                if abs(alpha_j - alpha_j_old) < 1e-7:
                    continue
                alpha_i = alpha_i_old + y_i * y_j * (alpha_j_old - alpha_j)
                alphas[i], alphas[j] = alpha_i, alpha_j

                delta_i = y_i * (alpha_i - alpha_i_old)
                delta_j = y_j * (alpha_j - alpha_j_old)
                b1 = bias - error_i - delta_i * K_ii - delta_j * K_ij
                b2 = bias - error_j - delta_i * K_ij - delta_j * K_jj
                if 0 < alpha_i < C[i]:
                    new_bias = b1
                elif 0 < alpha_j < C[j]:
                    new_bias = b2
                else:
                    new_bias = (b1 + b2) / 2.0

                errors += delta_i * rows[i] + delta_j * rows[j] + (new_bias - bias)
                bias = new_bias
                alphas_changed += 1
            iterations += 1
            if alphas_changed == 0:
                passes += 1
            else:
                passes = 0

        alpha = np.array(alphas)
        support = alpha > 1e-8
        self._support_vectors = X[support]
        self._support_alpha_y = (alpha * labels)[support]
        self.intercept_ = float(bias)
        self.n_support_ = int(support.sum())
        self.n_iterations_ = iterations
        if self.n_support_ == 0:
            # Degenerate but possible on trivially separable tiny samples:
            # fall back to predicting the majority class via the intercept.
            majority = 1.0 if labels.mean() >= 0 else -1.0
            self._support_vectors = X[:1]
            self._support_alpha_y = np.zeros(1)
            self.intercept_ = majority
            self.n_support_ = 1
        return self

    # -- prediction -------------------------------------------------------------------

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score for each row of *X*."""
        if self._support_vectors is None or self.kernel is None:
            raise NotFittedError(self)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if self._scaler is not None:
            X = self._scaler.transform(X)
        gram = self.kernel(X, self._support_vectors)
        return gram @ self._support_alpha_y + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Boolean predictions for each row of *X*."""
        return self.decision_function(X) >= 0.0

    def score(self, X: np.ndarray, y: Sequence[bool] | np.ndarray) -> float:
        """Plain accuracy of the classifier on ``(X, y)``."""
        predictions = self.predict(X)
        truth = np.asarray(y).astype(bool)
        return float(np.mean(predictions == truth))

    # -- helpers ------------------------------------------------------------------------

    def _resolve_fitted_kernel(self, X: np.ndarray) -> Kernel:
        kernel = resolve_kernel(self._kernel_spec, gamma=self._gamma)
        if isinstance(kernel, RBFKernel) and isinstance(kernel.gamma, str):
            return RBFKernel(gamma=kernel.resolve_gamma(X))
        return kernel

    def _per_sample_C(self, labels: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.full(len(labels), self.C)
        n = len(labels)
        n_positive = int(np.sum(labels > 0))
        n_negative = n - n_positive
        weights = np.where(
            labels > 0,
            n / (2.0 * max(n_positive, 1)),
            n / (2.0 * max(n_negative, 1)),
        )
        return self.C * weights

    @staticmethod
    def _to_signed(y: np.ndarray) -> np.ndarray:
        if y.dtype == bool:
            return np.where(y, 1.0, -1.0)
        values = np.unique(y)
        if set(values.tolist()) <= {-1, 1}:
            return y.astype(np.float64)
        if set(values.tolist()) <= {0, 1}:
            return np.where(y > 0, 1.0, -1.0)
        raise LearningError(
            "labels must be boolean, {0, 1} or {-1, +1}; "
            f"got values {values.tolist()[:5]}"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SVC(C={self.C}, kernel={self._kernel_spec!r}, "
            f"class_weight={self.class_weight!r}, n_support={self.n_support_})"
        )


def _partner_draws(rng: np.random.Generator, n: int) -> Iterator[int]:
    """SMO partner offsets, drawn ``n`` at a time: the stream of scalar draws."""
    while True:
        yield from rng.integers(0, n - 1, size=n).tolist()
