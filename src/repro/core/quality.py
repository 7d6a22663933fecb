"""Automatic identification of questionable HIT responses (Section 4.4).

Given crowd-provided labels for (many) items, train the extraction model on
the perceptual-space coordinates of *all* labelled items and flag every item
whose given label contradicts the model's prediction — e.g. "a movie
labeled as Action by the crowd but surrounded by non-Action movies in the
perceptual space most likely is not an Action movie."  Flagged items can
then be re-crowd-sourced at a fraction of the cost of re-checking everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import InsufficientTrainingDataError
from repro.learn.metrics import precision_recall
from repro.learn.svm import SVC
from repro.perceptual.space import PerceptualSpace


@dataclass(frozen=True)
class QualityFlag:
    """One flagged (questionable) crowd response."""

    item_id: int
    given_label: bool
    predicted_label: bool
    decision_score: float


@dataclass
class QualityScanResult:
    """Outcome of scanning a crowd-labelled column for questionable responses."""

    attribute: str
    flags: list[QualityFlag]
    n_items_scanned: int
    predictions: dict[int, bool] = field(default_factory=dict)

    @property
    def flagged_ids(self) -> set[int]:
        """Identifiers of all flagged items."""
        return {flag.item_id for flag in self.flags}

    @property
    def flagged_fraction(self) -> float:
        """Fraction of scanned items that were flagged."""
        if self.n_items_scanned == 0:
            return 0.0
        return len(self.flags) / self.n_items_scanned

    def score_against(self, corrupted_ids: set[int]) -> tuple[float, float]:
        """Precision/recall of the flags w.r.t. a known set of wrong labels."""
        all_ids = sorted(self.predictions)
        truth = np.array([item_id in corrupted_ids for item_id in all_ids])
        flagged = np.array([item_id in self.flagged_ids for item_id in all_ids])
        return precision_recall(truth, flagged)


class QuestionableResponseDetector:
    """Flags crowd labels that contradict the perceptual-space structure."""

    def __init__(
        self,
        space: PerceptualSpace,
        *,
        C: float = 0.3,
        gamma: float | str = "scale",
        class_weight: str | None = "balanced",
    ) -> None:
        # The default C is deliberately small: the detector must *not* be
        # able to fit the wrong labels it is supposed to expose, so the SVM
        # is regularised towards the smooth structure of the space.
        self.space = space
        self.C = C
        self.gamma = gamma
        self.class_weight = class_weight

    def scan(self, attribute: str, crowd_labels: Mapping[int, bool]) -> QualityScanResult:
        """Train on all crowd labels and flag the ones the model disagrees with."""
        usable = {
            int(item_id): bool(label)
            for item_id, label in crowd_labels.items()
            if int(item_id) in self.space
        }
        if len(usable) < 10:
            raise InsufficientTrainingDataError(10, len(usable))
        labels = list(usable.values())
        if all(labels) or not any(labels):
            raise InsufficientTrainingDataError(10, len(usable))

        item_ids = sorted(usable)
        X = self.space.vectors(item_ids)
        y = np.array([usable[item_id] for item_id in item_ids])
        model = SVC(
            C=self.C,
            kernel="rbf",
            gamma=self.gamma,
            class_weight=self.class_weight,
        )
        model.fit(X, y)
        scores = model.decision_function(X)
        predictions = scores >= 0.0

        flags = [
            QualityFlag(
                item_id=item_id,
                given_label=bool(usable[item_id]),
                predicted_label=bool(predicted),
                decision_score=float(score),
            )
            for item_id, predicted, score in zip(item_ids, predictions, scores)
            if bool(predicted) != usable[item_id]
        ]
        return QualityScanResult(
            attribute=attribute,
            flags=flags,
            n_items_scanned=len(item_ids),
            predictions={item_id: bool(p) for item_id, p in zip(item_ids, predictions)},
        )

    def repair(
        self,
        attribute: str,
        crowd_labels: Mapping[int, bool],
        verified_labels: Mapping[int, bool],
    ) -> dict[int, bool]:
        """Apply re-verified labels for flagged items to the crowd labels.

        *verified_labels* typically comes from re-crowd-sourcing only the
        flagged items with stricter quality control.
        """
        scan = self.scan(attribute, crowd_labels)
        repaired = {int(k): bool(v) for k, v in crowd_labels.items()}
        for flag in scan.flags:
            if flag.item_id in verified_labels:
                repaired[flag.item_id] = bool(verified_labels[flag.item_id])
        return repaired
