"""Aggregating conflicting worker judgments into a single answer.

The paper uses plain majority voting that ignores "don't know" answers;
ties and items without any informative judgment remain *unclassified*.
A confidence-weighted variant is provided as well, since the related-work
section points at extensions of the majority scheme.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.crowd.hit import Answer, Judgment
from repro.crowd.worker_quality import ACCURACY_CEILING, ACCURACY_FLOOR


@dataclass(frozen=True)
class VoteOutcome:
    """Aggregated verdict for one item."""

    item_id: int
    label: bool | None
    positive_votes: int
    negative_votes: int
    dont_know_votes: int

    @property
    def classified(self) -> bool:
        """True if a clear majority produced a label."""
        return self.label is not None


def group_judgments(judgments: Iterable[Judgment]) -> dict[int, list[Judgment]]:
    """Group judgments by item id."""
    grouped: dict[int, list[Judgment]] = defaultdict(list)
    for judgment in judgments:
        grouped[judgment.item_id].append(judgment)
    return dict(grouped)


class MajorityVote:
    """Majority vote ignoring "don't know" answers; ties stay unclassified."""

    def __init__(self, *, minimum_votes: int = 1) -> None:
        if minimum_votes < 1:
            raise ValueError("minimum_votes must be at least 1")
        self.minimum_votes = minimum_votes

    def aggregate_item(self, item_id: int, judgments: Sequence[Judgment]) -> VoteOutcome:
        """Aggregate the judgments of a single item."""
        counts = Counter(judgment.answer for judgment in judgments)
        positive = counts.get(Answer.POSITIVE, 0)
        negative = counts.get(Answer.NEGATIVE, 0)
        dont_know = counts.get(Answer.DONT_KNOW, 0)
        label: bool | None
        if positive + negative < self.minimum_votes:
            label = None
        elif positive > negative:
            label = True
        elif negative > positive:
            label = False
        else:
            label = None
        return VoteOutcome(
            item_id=item_id,
            label=label,
            positive_votes=positive,
            negative_votes=negative,
            dont_know_votes=dont_know,
        )

    def aggregate(self, judgments: Iterable[Judgment]) -> dict[int, VoteOutcome]:
        """Aggregate all judgments, returning one outcome per item."""
        return {
            item_id: self.aggregate_item(item_id, item_judgments)
            for item_id, item_judgments in group_judgments(judgments).items()
        }

    def labels(self, judgments: Iterable[Judgment]) -> dict[int, bool]:
        """Return only the items that received a clear majority label."""
        return {
            item_id: outcome.label
            for item_id, outcome in self.aggregate(judgments).items()
            if outcome.label is not None
        }


@dataclass(frozen=True)
class WeightedOutcome(VoteOutcome):
    """A :class:`VoteOutcome` carrying a per-item posterior confidence.

    ``confidence`` is the posterior probability of the chosen label under
    the weighted-vote model (0.5 at a perfect tie, 0.0 when the quorum was
    not met) — the quantity adaptive assignment sizing and cell-provenance
    confidence are driven by.
    """

    confidence: float = 0.0


class AccuracyWeightedVote:
    """Majority vote weighting each worker by their estimated accuracy.

    Each informative judgment contributes its worker's log-odds
    ``log(p / (1 - p))`` (positive votes add, negative votes subtract),
    where ``p`` is the worker's accuracy estimate clamped into
    ``(ACCURACY_FLOOR, ACCURACY_CEILING)``.  Under the standard
    independent-error model the sign of the summed score is the maximum
    a-posteriori label and ``1 / (1 + e^-|score|)`` its posterior
    probability — the ``confidence`` of the :class:`WeightedOutcome`.

    When every worker carries the same accuracy estimate (the cold-start
    case of a fresh :class:`~repro.crowd.worker_quality.WorkerQualityTracker`)
    all weights are equal and the outcome label is exactly the flat
    :class:`MajorityVote` label.

    Quorum semantics match :class:`MajorityVote`: only *informative* votes
    (positive or negative) count toward ``minimum_votes`` — a pile of
    "don't know" answers never satisfies the quorum.

    *accuracy* may be a ``worker_id -> accuracy`` mapping, a callable, or
    any object with an ``accuracy_of(worker_id)`` method (e.g. a
    :class:`~repro.crowd.worker_quality.WorkerQualityTracker`).
    """

    def __init__(
        self,
        accuracy: Mapping[int, float] | Callable[[int], float] | Any = None,
        *,
        default_accuracy: float = 0.7,
        minimum_votes: int = 1,
    ) -> None:
        if minimum_votes < 1:
            raise ValueError("minimum_votes must be at least 1")
        if not 0.0 < default_accuracy < 1.0:
            raise ValueError("default_accuracy must be in (0, 1)")
        self.minimum_votes = minimum_votes
        self.default_accuracy = default_accuracy
        if accuracy is None:
            self._accuracy_fn: Callable[[int], float] = lambda _worker: default_accuracy
        elif callable(getattr(accuracy, "accuracy_of", None)):
            self._accuracy_fn = accuracy.accuracy_of
        elif isinstance(accuracy, Mapping):
            mapping = dict(accuracy)
            self._accuracy_fn = lambda worker: mapping.get(worker, default_accuracy)
        elif callable(accuracy):
            self._accuracy_fn = accuracy
        else:
            raise TypeError(
                "accuracy must be a mapping, a callable, or expose accuracy_of()"
            )

    def accuracy_of(self, worker_id: int) -> float:
        """The (clamped) accuracy estimate used to weight *worker_id*."""
        return min(ACCURACY_CEILING, max(ACCURACY_FLOOR, self._accuracy_fn(worker_id)))

    def weight_of(self, worker_id: int) -> float:
        """Log-odds voting weight of *worker_id* (always positive)."""
        accuracy = self.accuracy_of(worker_id)
        return math.log(accuracy / (1.0 - accuracy))

    def aggregate_item(self, item_id: int, judgments: Sequence[Judgment]) -> WeightedOutcome:
        """Aggregate one item's judgments into a label plus confidence."""
        score = 0.0
        positive = negative = dont_know = 0
        for judgment in judgments:
            if judgment.answer is Answer.POSITIVE:
                positive += 1
                score += self.weight_of(judgment.worker_id)
            elif judgment.answer is Answer.NEGATIVE:
                negative += 1
                score -= self.weight_of(judgment.worker_id)
            else:
                dont_know += 1
        label: bool | None
        if positive + negative < self.minimum_votes:
            label, confidence = None, 0.0
        elif abs(score) < 1e-9:
            # Dead tie.  The epsilon matters: summing equal-and-opposite
            # float weights can leave a residue of ~1e-16 per vote, and a
            # tie must stay unclassified like MajorityVote's.
            label, confidence = None, 0.5
        elif score > 0:
            label, confidence = True, 1.0 / (1.0 + math.exp(-score))
        else:
            label, confidence = False, 1.0 / (1.0 + math.exp(score))
        return WeightedOutcome(
            item_id=item_id,
            label=label,
            positive_votes=positive,
            negative_votes=negative,
            dont_know_votes=dont_know,
            confidence=confidence,
        )

    def aggregate(self, judgments: Iterable[Judgment]) -> dict[int, WeightedOutcome]:
        """Aggregate all judgments, returning one outcome per item."""
        return {
            item_id: self.aggregate_item(item_id, item_judgments)
            for item_id, item_judgments in group_judgments(judgments).items()
        }

    def labels(self, judgments: Iterable[Judgment]) -> dict[int, bool]:
        """Return only the items that received a weighted-majority label."""
        return {
            item_id: outcome.label
            for item_id, outcome in self.aggregate(judgments).items()
            if outcome.label is not None
        }


@dataclass
class AccuracyReport:
    """Comparison of aggregated crowd labels against a ground truth."""

    n_items: int
    n_classified: int
    n_correct: int
    per_item: dict[int, bool] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of items that received any label."""
        return self.n_classified / self.n_items if self.n_items else 0.0

    @property
    def accuracy_on_classified(self) -> float:
        """Fraction of labelled items whose label matches the ground truth."""
        return self.n_correct / self.n_classified if self.n_classified else 0.0


def score_against_truth(
    outcomes: Mapping[int, VoteOutcome], truth: Mapping[int, bool]
) -> AccuracyReport:
    """Score aggregated outcomes against ground-truth labels.

    Items present in *truth* but missing from *outcomes* count as
    unclassified; items classified but absent from *truth* are ignored.
    """
    n_items = len(truth)
    n_classified = 0
    n_correct = 0
    per_item: dict[int, bool] = {}
    for item_id, true_label in truth.items():
        outcome = outcomes.get(item_id)
        if outcome is None or outcome.label is None:
            continue
        n_classified += 1
        correct = outcome.label == true_label
        per_item[item_id] = correct
        if correct:
            n_correct += 1
    return AccuracyReport(
        n_items=n_items,
        n_classified=n_classified,
        n_correct=n_correct,
        per_item=per_item,
    )
