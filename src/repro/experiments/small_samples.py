"""Automatic schema expansion from small samples (Table 3).

For each genre and each training-set size n ∈ {10, 20, 40} (n positive and
n negative examples drawn from the reference data), an SVM is trained on
the item coordinates and used to label every remaining movie.  The g-mean
against the reference labels is reported for

* the perceptual space (the paper's approach),
* the LSI metadata space (the baseline that overfits and fails), and
* the three individual expert databases against the majority reference.

Each (genre, n) cell is averaged over several random training samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.prediction import PerceptualPredictor
from repro.errors import LearningError
from repro.experiments.context import MovieExperimentContext, expert_reference_gmeans
from repro.learn.metrics import g_mean
from repro.learn.model_selection import sample_balanced_training_set
from repro.perceptual.space import PerceptualSpace
from repro.utils.rng import RandomState, derive_seed


@dataclass
class SmallSampleRow:
    """One row of Table 3: one genre's g-means for every space and n."""

    genre: str
    random_baseline: float
    perceptual: dict[int, float] = field(default_factory=dict)
    perceptual_std: dict[int, float] = field(default_factory=dict)
    metadata: dict[int, float] = field(default_factory=dict)
    metadata_std: dict[int, float] = field(default_factory=dict)
    reference: dict[str, float] = field(default_factory=dict)


def evaluate_space_gmean(
    space: PerceptualSpace,
    labels: dict[int, bool],
    n_per_class: int,
    *,
    n_repetitions: int,
    seed: RandomState,
    extractor_C: float = 2.0,
) -> tuple[float, float]:
    """Mean and std of the g-mean over repeated random training samples."""
    usable_labels = {i: l for i, l in labels.items() if i in space}
    evaluation_ids = sorted(usable_labels)
    truth = np.array([usable_labels[i] for i in evaluation_ids])
    targets = [(i, {"item_id": i}) for i in evaluation_ids]
    predictor = PerceptualPredictor(space, C=extractor_C)
    scores = []
    for repetition in range(n_repetitions):
        rep_seed = derive_seed(seed, "small-sample", n_per_class, repetition)
        try:
            positives, negatives = sample_balanced_training_set(
                usable_labels, n_per_class, seed=rep_seed
            )
        except LearningError:
            continue
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})
        train = [(i, {"item_id": i}, gold[i]) for i in sorted(gold)]
        batch = predictor.fit_predict("attribute", train, targets)
        if not batch.values:  # too few or one-class samples
            continue
        predictions = np.array([batch.values[i] for i in evaluation_ids])
        scores.append(g_mean(truth, predictions))
    if not scores:
        return float("nan"), float("nan")
    return float(np.mean(scores)), float(np.std(scores))


def run_small_sample_experiment(
    context: MovieExperimentContext,
    *,
    n_values: Sequence[int] = (10, 20, 40),
    n_repetitions: int = 5,
    genres: Sequence[str] | None = None,
    seed: RandomState = 11,
) -> list[SmallSampleRow]:
    """Produce the rows of Table 3 (one per genre, plus a final "Mean" row)."""
    genre_names = list(genres) if genres is not None else context.genres
    rows: list[SmallSampleRow] = []
    for genre in genre_names:
        labels = context.reference_labels(genre)
        row = SmallSampleRow(genre=genre, random_baseline=0.5)
        for n in n_values:
            mean_p, std_p = evaluate_space_gmean(
                context.space, labels, n,
                n_repetitions=n_repetitions, seed=derive_seed(seed, genre, "perceptual"),
            )
            mean_m, std_m = evaluate_space_gmean(
                context.metadata_space, labels, n,
                n_repetitions=n_repetitions, seed=derive_seed(seed, genre, "metadata"),
            )
            row.perceptual[n] = mean_p
            row.perceptual_std[n] = std_p
            row.metadata[n] = mean_m
            row.metadata_std[n] = std_m
        row.reference = expert_reference_gmeans(context.experts, context.reference, genre)
        rows.append(row)

    rows.append(_mean_row(rows, n_values))
    return rows


def _mean_row(rows: list[SmallSampleRow], n_values: Sequence[int]) -> SmallSampleRow:
    mean_row = SmallSampleRow(genre="Mean", random_baseline=0.5)
    for n in n_values:
        mean_row.perceptual[n] = float(np.nanmean([row.perceptual[n] for row in rows]))
        mean_row.perceptual_std[n] = float(np.nanmean([row.perceptual_std[n] for row in rows]))
        mean_row.metadata[n] = float(np.nanmean([row.metadata[n] for row in rows]))
        mean_row.metadata_std[n] = float(np.nanmean([row.metadata_std[n] for row in rows]))
    reference_names = rows[0].reference.keys() if rows else []
    mean_row.reference = {
        name: float(np.mean([row.reference[name] for row in rows])) for name in reference_names
    }
    return mean_row
