"""Binary soft-margin Support Vector Classifier trained with SMO.

This is the classifier the paper uses to extract binary perceptual
attributes (like ``is_comedy``) from the perceptual space (Section 4.2):
an SVM with an RBF kernel trained on a small crowd-sourced gold sample.

The dual is solved by Sequential Minimal Optimization with LIBSVM's
second-order working-set selection (Fan, Chen & Lin, "Working Set
Selection Using Second Order Information for Training SVM", JMLR 2005):
each step pairs the maximal violator ``i`` with the partner ``j`` of
largest second-order gain and solves the two-variable subproblem
analytically.  The solver stops when the duality gap ``m(α) − M(α)`` (the
largest KKT violation among the alphas that can still grow along their
label, minus the smallest among those that can shrink) falls below
``tol``, so every fit ends at the optimum, up to ``tol``.  It draws no
random numbers: the same inputs give the same bits.  Training
sets in all experiments are tiny (tens to around a thousand points), so
the gradient lives in one numpy vector that each step updates with two
kernel rows.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import LearningError, NotFittedError
from repro.learn.kernels import Kernel, RBFKernel, resolve_kernel
from repro.learn.scaling import StandardScaler

# Curvature floor for a pair with K_ii + K_jj - 2 K_ij <= 0 (LIBSVM's TAU).
_TAU = 1e-12


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
        Duality-gap tolerance: SMO stops once ``m(α) − M(α) < tol``.
    max_iterations:
        Safety cap on SMO steps; a converged fit stops well before it.
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
        max_iterations: int = 100_000,
        class_weight: str | None = None,
        standardize: bool = True,
    ) -> None:
        if C <= 0:
            raise LearningError("C must be positive")
        if tol <= 0:
            raise LearningError("tol must be positive")
        if max_iterations < 1:
            raise LearningError("max_iterations must be at least 1")
        if class_weight not in (None, "balanced"):
            raise LearningError(f"unsupported class_weight {class_weight!r}")
        self.C = float(C)
        self._kernel_spec = kernel
        self._gamma = gamma
        self.tol = tol
        self.max_iterations = max_iterations
        self.class_weight = class_weight
        self.standardize = standardize

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

        signs = labels.tolist()
        C = self._per_sample_C(labels)
        # Moving alpha_t along +y_t ends at up_bound[t], along -y_t at low_bound[t].
        up_bound = np.where(labels > 0, C, 0.0).tolist()
        low_bound = np.where(labels > 0, 0.0, C).tolist()
        alphas = [0.0] * len(signs)
        rows = list(gram)
        diag = np.diag(gram)
        # curvature[i, j] = K_ii + K_jj - 2 K_ij: the second derivative of the
        # dual objective along a step on the pair (i, j).
        curvature = np.maximum(diag[:, None] + diag[None, :] - 2.0 * gram, _TAU)
        # violation[t] = -y_t * dual_gradient[t] = y_t - sum_s alpha_s y_s K_st.
        # A step of length t moves alpha_i along +y_i and alpha_j along -y_j,
        # which keeps sum(alpha * y) = 0 and lowers violation by t (K_i - K_j).
        violation = labels.copy()
        # I_up (alpha_t can still move along +y_t) and I_low (along -y_t).
        up = labels > 0
        low = labels < 0

        steps = 0
        while True:
            up_violation = np.where(up, violation, -np.inf)
            i = int(up_violation.argmax())
            g_max = up_violation.item(i)
            low_violation = np.where(low, violation, np.inf)
            g_min = low_violation.item(int(low_violation.argmin()))
            if g_max - g_min < self.tol or steps == self.max_iterations:
                break

            # Second-order working-set selection (Fan, Chen & Lin 2005): the
            # partner j in I_low whose step gains the most, b^2 / a.
            slack = np.maximum(g_max - low_violation, 0.0)
            gain = slack * slack / curvature[i]
            j = int(gain.argmax())

            # Analytic two-variable step, clipped to the box of both alphas; a
            # step that uses up a room lands exactly on that bound.
            room_i = abs(up_bound[i] - alphas[i])
            room_j = abs(alphas[j] - low_bound[j])
            t = min(slack.item(j) / curvature.item(i, j), room_i, room_j)
            alphas[i] = up_bound[i] if t == room_i else alphas[i] + signs[i] * t
            alphas[j] = low_bound[j] if t == room_j else alphas[j] - signs[j] * t
            violation -= t * (rows[i] - rows[j])
            for k in (i, j):
                up[k] = alphas[k] != up_bound[k]
                low[k] = alphas[k] != low_bound[k]
            steps += 1

        alpha = np.array(alphas)
        free = (alpha > 0.0) & (alpha < C)
        # The intercept as LIBSVM sets it: the mean over free SVs, which all
        # satisfy their margin with equality, else the middle of [M, m].
        if free.any():
            bias = float(violation[free].mean())
        else:
            bias = (g_max + g_min) / 2.0

        support = alpha > 0.0
        self._support_vectors = X[support]
        self._support_alpha_y = (alpha * labels)[support]
        self.intercept_ = bias
        self.n_support_ = int(support.sum())
        self.n_iterations_ = steps
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

