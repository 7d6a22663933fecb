"""Experiments 4–6: boosting direct crowd-sourcing with perceptual spaces.

Figures 3 and 4 of the paper: while a crowd-sourcing run (Experiments 1–3)
is in progress, the movies that currently have a clear majority label are
periodically used to (re)train the perceptual-space extractor, which then
classifies *all* movies — including those no worker knows.  The series
report the number of correctly classified movies over (relative) time
(Figure 3) and over money spent (Figure 4), for the crowd-only baseline and
the boosted classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.prediction import PerceptualPredictor
from repro.crowd.aggregation import MajorityVote, score_against_truth
from repro.crowd.platform import CrowdRunResult
from repro.experiments.context import MovieExperimentContext
from repro.experiments.crowd_quality import CrowdQualityOutcome


@dataclass(frozen=True)
class BoostingPoint:
    """One checkpoint of a boosting run."""

    minutes: float
    relative_time: float
    cost: float
    training_size: int
    crowd_correct: int
    boosted_correct: int
    boosted_coverage: int


@dataclass
class BoostingSeries:
    """Figure 3 / Figure 4 series for one experiment."""

    experiment: str
    base_experiment: str
    n_items: int
    points: list[BoostingPoint] = field(default_factory=list)

    @property
    def final_point(self) -> BoostingPoint:
        """The last checkpoint (end of the crowd-sourcing run)."""
        if not self.points:
            raise ValueError("series has no checkpoints")
        return self.points[-1]

    def correct_over_time(self) -> list[tuple[float, int, int]]:
        """(relative time, crowd correct, boosted correct) tuples — Figure 3."""
        return [(p.relative_time, p.crowd_correct, p.boosted_correct) for p in self.points]

    def correct_over_money(self) -> list[tuple[float, int, int]]:
        """(dollars spent, crowd correct, boosted correct) tuples — Figure 4."""
        return [(p.cost, p.crowd_correct, p.boosted_correct) for p in self.points]


def _boost_run(
    label: str,
    base_label: str,
    run: CrowdRunResult,
    truth: dict[int, bool],
    context: MovieExperimentContext,
    *,
    retrain_every_minutes: float,
    extractor_C: float,
) -> BoostingSeries:
    item_ids = sorted(truth)
    truth_array = np.array([truth[i] for i in item_ids])
    targets = [(i, {"item_id": i}) for i in item_ids]
    # The training labels come from noisy majority votes, so the model is
    # regularised more strongly than in the clean small-sample experiments.
    predictor = PerceptualPredictor(context.space, C=extractor_C)
    series = BoostingSeries(
        experiment=label, base_experiment=base_label, n_items=len(item_ids)
    )

    total_minutes = max(run.completion_minutes, retrain_every_minutes)
    checkpoints = np.arange(retrain_every_minutes, total_minutes + retrain_every_minutes, retrain_every_minutes)
    vote = MajorityVote()

    for minutes in checkpoints:
        minutes = float(min(minutes, total_minutes))
        judgments = run.judgments_until(minutes)
        outcomes = vote.aggregate(judgments)
        crowd_report = score_against_truth(outcomes, truth)
        training_labels = {
            item_id: outcome.label
            for item_id, outcome in outcomes.items()
            if outcome.label is not None
        }

        train = [(i, {"item_id": i}, training_labels[i]) for i in sorted(training_labels)]
        boosted = predictor.fit_predict("boosted", train, targets).values
        boosted_correct = 0
        if boosted:  # an untrained model boosts nothing
            predictions = np.array([boosted.get(item_id, False) for item_id in item_ids])
            boosted_correct = int(np.sum(predictions == truth_array))

        series.points.append(
            BoostingPoint(
                minutes=minutes,
                relative_time=minutes / total_minutes,
                cost=run.cost_until(minutes),
                training_size=len(training_labels),
                crowd_correct=crowd_report.n_correct,
                boosted_correct=boosted_correct,
                boosted_coverage=len(boosted),
            )
        )
        if minutes >= total_minutes:
            break
    return series


def run_boosting_experiments(
    context: MovieExperimentContext,
    crowd_outcome: CrowdQualityOutcome,
    *,
    retrain_every_minutes: float = 5.0,
    extractor_C: float = 0.75,
) -> list[BoostingSeries]:
    """Run Experiments 4–6 on top of the Experiments 1–3 judgment streams."""
    mapping = [
        ("Exp. 4: boost of Exp. 1", "exp1"),
        ("Exp. 5: boost of Exp. 2", "exp2"),
        ("Exp. 6: boost of Exp. 3", "exp3"),
    ]
    series = []
    for label, key in mapping:
        run = crowd_outcome.runs.get(key)
        if run is None:
            continue
        series.append(
            _boost_run(
                label,
                key,
                run,
                crowd_outcome.truth,
                context,
                retrain_every_minutes=retrain_every_minutes,
                extractor_C=extractor_C,
            )
        )
    return series
