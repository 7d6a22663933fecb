"""Transductive SVM (label-switching heuristic).

Section 5 of the paper reports that transductive SVMs achieve almost the
same classification accuracy as the plain SVM on the schema-expansion task
while being orders of magnitude slower (minutes instead of seconds).  The
implementation here follows the classic Joachims-style label-switching
scheme: train on the labelled gold sample, impute labels for the unlabelled
database items, then alternate between retraining on the combined set and
switching the most conflicting unlabelled label pairs.

Every retraining is a full :class:`~repro.learn.svm.SVC` fit: SMO with
second-order working-set selection that runs until its duality gap is below
``tol`` and draws no random numbers, so the label switches, and with them
the whole transductive fit, are a deterministic function of the data.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import LearningError, NotFittedError
from repro.learn.kernels import Kernel
from repro.learn.svm import SVC


class TransductiveSVC:
    """Semi-supervised binary classifier built on top of :class:`SVC`."""

    def __init__(
        self,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        *,
        gamma: Union[float, str] = "scale",
        n_outer_iterations: int = 5,
        n_switch_rounds: int = 20,
        positive_fraction: float | None = None,
        class_weight: str | None = "balanced",
    ) -> None:
        if C <= 0:
            raise LearningError("C must be positive")
        if n_outer_iterations <= 0 or n_switch_rounds < 0:
            raise LearningError("iteration counts must be positive")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.n_outer_iterations = n_outer_iterations
        self.n_switch_rounds = n_switch_rounds
        self.positive_fraction = positive_fraction
        self.class_weight = class_weight

        self._model: SVC | None = None
        self.n_label_switches_: int = 0

    def fit(
        self,
        X_labeled: np.ndarray,
        y_labeled: Sequence[bool] | np.ndarray,
        X_unlabeled: np.ndarray,
    ) -> "TransductiveSVC":
        """Fit on a labelled gold sample plus the unlabelled database items."""
        X_labeled = np.asarray(X_labeled, dtype=np.float64)
        X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
        y_labeled = np.asarray(y_labeled).astype(bool)
        if X_labeled.ndim != 2 or X_unlabeled.ndim != 2:
            raise LearningError("feature matrices must be 2-d")
        if X_labeled.shape[1] != X_unlabeled.shape[1]:
            raise LearningError("labelled and unlabelled features must share dimensionality")

        base = self._make_svc(self.C)
        base.fit(X_labeled, y_labeled)

        if X_unlabeled.shape[0] == 0:
            self._model = base
            return self

        # Initial imputation, optionally constrained to an expected positive rate.
        scores = base.decision_function(X_unlabeled)
        if self.positive_fraction is None:
            imputed = scores >= 0.0
        else:
            n_positive = int(round(self.positive_fraction * len(scores)))
            n_positive = min(max(n_positive, 1), len(scores) - 1)
            threshold = np.sort(scores)[::-1][n_positive - 1]
            imputed = scores >= threshold

        self.n_label_switches_ = 0

        model = base
        for _ in range(self.n_outer_iterations):
            X_combined = np.vstack([X_labeled, X_unlabeled])
            y_combined = np.concatenate([y_labeled, imputed])
            model = self._make_svc(self.C)
            if len(np.unique(y_combined)) < 2:
                break
            model.fit(X_combined, y_combined)

            scores = model.decision_function(X_unlabeled)
            for _round in range(self.n_switch_rounds):
                switched = self._switch_most_conflicting(imputed, scores)
                if not switched:
                    break
                self.n_label_switches_ += 1

        self._model = model
        return self

    @staticmethod
    def _switch_most_conflicting(imputed: np.ndarray, scores: np.ndarray) -> bool:
        """Switch one positive/negative pair whose labels conflict with the scores."""
        positive_conflicts = np.where(imputed & (scores < 0))[0]
        negative_conflicts = np.where(~imputed & (scores > 0))[0]
        if len(positive_conflicts) == 0 or len(negative_conflicts) == 0:
            return False
        worst_positive = positive_conflicts[np.argmin(scores[positive_conflicts])]
        worst_negative = negative_conflicts[np.argmax(scores[negative_conflicts])]
        imputed[worst_positive] = False
        imputed[worst_negative] = True
        return True

    def _make_svc(self, C: float) -> SVC:
        return SVC(
            C=C,
            kernel=self.kernel,
            gamma=self.gamma,
            class_weight=self.class_weight,
        )

    # -- prediction ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Boolean predictions for each row of *X*."""
        if self._model is None:
            raise NotFittedError(self)
        return self._model.predict(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Decision scores from the final retrained model."""
        if self._model is None:
            raise NotFittedError(self)
        return self._model.decision_function(X)
