"""Extraction of perceptual attributes from a perceptual space.

Implements Section 3.4: a small gold sample of judgments trains a
classification (binary attributes) or regression (numeric attributes)
model over the items' perceptual-space coordinates; the model then supplies
the attribute value for every other item in the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InsufficientTrainingDataError, LearningError
from repro.learn.svm import SVC
from repro.learn.svr import SVR
from repro.perceptual.space import PerceptualSpace


@dataclass
class ExtractionResult:
    """Outcome of extracting one attribute for a set of items."""

    attribute: str
    values: dict[int, object]
    training_size: int
    model_kind: str
    decision_scores: dict[int, float] = field(default_factory=dict)

    def coverage(self, item_ids: Iterable[int]) -> float:
        """Fraction of *item_ids* for which a value was produced."""
        ids = list(item_ids)
        if not ids:
            return 1.0
        return sum(1 for item_id in ids if item_id in self.values) / len(ids)


class PerceptualAttributeExtractor:
    """Trains and applies the attribute-extraction model of Section 3.4.

    Parameters
    ----------
    space:
        The perceptual space whose coordinates serve as features.
    C, gamma, class_weight:
        Hyper-parameters forwarded to the underlying SVM; the paper found a
        non-linear RBF kernel useful, which is the default here.
    min_training_size:
        Minimum number of labelled items (with both classes present for
        classification) required before training.
    """

    def __init__(
        self,
        space: PerceptualSpace,
        *,
        C: float = 2.0,
        gamma: float | str = "scale",
        class_weight: str | None = "balanced",
        min_training_size: int = 6,
    ) -> None:
        self.space = space
        self.C = C
        self.gamma = gamma
        self.class_weight = class_weight
        self.min_training_size = min_training_size

    # -- binary attributes -----------------------------------------------------------

    def train_classifier(self, labels: Mapping[int, bool]) -> SVC:
        """Train an SVM classifier from ``item_id -> bool`` gold labels.

        Items absent from the perceptual space are ignored (they cannot be
        used as features); the remaining sample must contain both classes.
        """
        usable = {
            int(item_id): bool(label)
            for item_id, label in labels.items()
            if int(item_id) in self.space
        }
        if len(usable) < self.min_training_size:
            raise InsufficientTrainingDataError(self.min_training_size, len(usable))
        values = list(usable.values())
        if all(values) or not any(values):
            raise InsufficientTrainingDataError(self.min_training_size, len(usable))
        item_ids = sorted(usable)
        X = self.space.vectors(item_ids)
        y = np.array([usable[item_id] for item_id in item_ids])
        classifier = SVC(
            C=self.C,
            kernel="rbf",
            gamma=self.gamma,
            class_weight=self.class_weight,
        )
        classifier.fit(X, y)
        return classifier

    def extract_boolean(
        self,
        attribute: str,
        gold_labels: Mapping[int, bool],
        *,
        target_items: Sequence[int] | None = None,
    ) -> ExtractionResult:
        """Extract a boolean attribute for *target_items* (default: all items)."""
        classifier = self.train_classifier(gold_labels)
        item_ids = [
            int(i) for i in (target_items if target_items is not None else self.space.item_ids)
            if int(i) in self.space
        ]
        if not item_ids:
            raise LearningError("no target items are present in the perceptual space")
        X = self.space.vectors(item_ids)
        scores = classifier.decision_function(X)
        predictions = scores >= 0.0
        return ExtractionResult(
            attribute=attribute,
            values={item_id: bool(pred) for item_id, pred in zip(item_ids, predictions)},
            training_size=len([i for i in gold_labels if int(i) in self.space]),
            model_kind="svc-rbf",
            decision_scores={item_id: float(s) for item_id, s in zip(item_ids, scores)},
        )

    # -- numeric attributes ------------------------------------------------------------

    def train_regressor(self, targets: Mapping[int, float]) -> SVR:
        """Train an SVR model from ``item_id -> numeric judgment`` gold data."""
        usable = {
            int(item_id): float(value)
            for item_id, value in targets.items()
            if int(item_id) in self.space
        }
        if len(usable) < self.min_training_size:
            raise InsufficientTrainingDataError(self.min_training_size, len(usable))
        item_ids = sorted(usable)
        X = self.space.vectors(item_ids)
        y = np.array([usable[item_id] for item_id in item_ids])
        regressor = SVR(C=self.C, kernel="rbf", gamma=self.gamma)
        regressor.fit(X, y)
        return regressor

    def extract_numeric(
        self,
        attribute: str,
        gold_targets: Mapping[int, float],
        *,
        target_items: Sequence[int] | None = None,
        value_range: tuple[float, float] | None = None,
    ) -> ExtractionResult:
        """Extract a numeric attribute (e.g. a 1–10 humor score)."""
        regressor = self.train_regressor(gold_targets)
        item_ids = [
            int(i) for i in (target_items if target_items is not None else self.space.item_ids)
            if int(i) in self.space
        ]
        if not item_ids:
            raise LearningError("no target items are present in the perceptual space")
        X = self.space.vectors(item_ids)
        predictions = regressor.predict(X)
        if value_range is not None:
            predictions = np.clip(predictions, value_range[0], value_range[1])
        return ExtractionResult(
            attribute=attribute,
            values={item_id: float(p) for item_id, p in zip(item_ids, predictions)},
            training_size=len([i for i in gold_targets if int(i) in self.space]),
            model_kind="svr-rbf",
        )
