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

from repro.core.prediction import PerceptualPredictor
from repro.errors import InsufficientTrainingDataError
from repro.learn.metrics import precision_recall
from repro.perceptual.space import PerceptualSpace


@dataclass(frozen=True)
class QualityFlag:
    """One flagged (questionable) crowd response."""

    item_id: int
    given_label: bool
    predicted_label: bool


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

    #: Fewest usable labels a scan trains on.
    MIN_LABELS = 10

    def __init__(self, space: PerceptualSpace) -> None:
        # C is deliberately small: the detector must *not* be able to fit
        # the wrong labels it is supposed to expose, so the SVM is
        # regularised towards the smooth structure of the space.
        self.predictor = PerceptualPredictor(space, C=0.3, min_training_size=self.MIN_LABELS)

    def scan(self, attribute: str, crowd_labels: Mapping[int, bool]) -> QualityScanResult:
        """Train on all crowd labels and flag the ones the model disagrees with."""
        labels = {int(item_id): bool(label) for item_id, label in crowd_labels.items()}
        rows = [(item_id, {"item_id": item_id}) for item_id in sorted(labels)]
        batch = self.predictor.fit_predict(
            attribute, [(item_id, row, labels[item_id]) for item_id, row in rows], rows
        )
        # Too few labels in the space, or only one class: nothing trained.
        if not batch.values:
            raise InsufficientTrainingDataError(self.MIN_LABELS, batch.training_size)
        flags = [
            QualityFlag(item_id=item_id, given_label=labels[item_id], predicted_label=predicted)
            for item_id, predicted in batch.values.items()
            if predicted != labels[item_id]
        ]
        return QualityScanResult(
            attribute=attribute,
            flags=flags,
            n_items_scanned=len(batch.values),
            predictions=batch.values,
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
