"""Automatic identification of questionable HIT responses (Table 4).

Starting from the reference labels, x % of all labels are swapped to
simulate wrong crowd responses.  The detector trains an SVM on the
perceptual-space coordinates of *all* labelled items and flags every item
whose label contradicts the model's prediction.  Precision and recall of
the flags with respect to the known swapped set are reported for the
perceptual space and the metadata space, for x ∈ {5, 10, 20} %.

The comparison is *paired*: for each repetition the same corrupted label
set is scanned with every space, so precision/recall differences reflect
the spaces themselves rather than which labels happened to be swapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.quality import QuestionableResponseDetector
from repro.errors import LearningError
from repro.experiments.context import MovieExperimentContext
from repro.perceptual.space import PerceptualSpace
from repro.utils.rng import RandomState, derive_seed, spawn_rng


@dataclass
class QuestionableRow:
    """One row of Table 4: precision/recall pairs per noise level and space."""

    genre: str
    perceptual: dict[int, tuple[float, float]] = field(default_factory=dict)
    metadata: dict[int, tuple[float, float]] = field(default_factory=dict)


def corrupt_labels(
    labels: dict[int, bool], fraction: float, *, seed: RandomState
) -> tuple[dict[int, bool], set[int]]:
    """Swap the labels of a random *fraction* of items; return (labels, swapped ids)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = spawn_rng(seed, "corrupt", fraction)
    item_ids = sorted(labels)
    n_swapped = max(1, int(round(fraction * len(item_ids))))
    swapped = {int(i) for i in rng.choice(item_ids, size=n_swapped, replace=False)}
    corrupted = {i: (not l if i in swapped else l) for i, l in labels.items()}
    return corrupted, swapped


def _scan_spaces(
    spaces: Mapping[str, PerceptualSpace],
    labels: dict[int, bool],
    fraction: float,
    *,
    n_repetitions: int,
    seed: RandomState,
) -> dict[str, tuple[float, float]]:
    """Mean precision/recall per space over repeated *paired* corruptions.

    Every space scans the identical corrupted label set in each repetition,
    restricted to the items present in all spaces, so the scores are
    directly comparable.
    """
    usable = {
        i: l for i, l in labels.items() if all(i in space for space in spaces.values())
    }
    precisions: dict[str, list[float]] = {name: [] for name in spaces}
    recalls: dict[str, list[float]] = {name: [] for name in spaces}
    for repetition in range(n_repetitions):
        rep_seed = derive_seed(seed, fraction, repetition)
        corrupted, swapped = corrupt_labels(usable, fraction, seed=rep_seed)
        scores: dict[str, tuple[float, float]] = {}
        try:
            for name, space in spaces.items():
                detector = QuestionableResponseDetector(space)
                scan = detector.scan("attribute", corrupted)
                scores[name] = scan.score_against(swapped)
        except LearningError:
            # Keep the comparison paired: if any space cannot train on this
            # corruption, the whole repetition is dropped for every space.
            continue
        for name, (precision, recall) in scores.items():
            precisions[name].append(precision)
            recalls[name].append(recall)
    return {
        name: (
            (float(np.mean(precisions[name])), float(np.mean(recalls[name])))
            if precisions[name]
            else (float("nan"), float("nan"))
        )
        for name in spaces
    }


def run_questionable_experiment(
    context: MovieExperimentContext,
    *,
    noise_levels: Sequence[float] = (0.05, 0.10, 0.20),
    n_repetitions: int = 3,
    genres: Sequence[str] | None = None,
    seed: RandomState = 29,
) -> list[QuestionableRow]:
    """Produce the rows of Table 4 (one per genre, plus a final "Mean" row)."""
    genre_names = list(genres) if genres is not None else context.genres
    rows: list[QuestionableRow] = []
    for genre in genre_names:
        labels = context.reference_labels(genre)
        row = QuestionableRow(genre=genre)
        spaces = {"perceptual": context.space, "metadata": context.metadata_space}
        for fraction in noise_levels:
            key = int(round(fraction * 100))
            scores = _scan_spaces(
                spaces, labels, fraction,
                n_repetitions=n_repetitions, seed=derive_seed(seed, genre),
            )
            row.perceptual[key] = scores["perceptual"]
            row.metadata[key] = scores["metadata"]
        rows.append(row)

    mean_row = QuestionableRow(genre="Mean")
    for fraction in noise_levels:
        key = int(round(fraction * 100))
        mean_row.perceptual[key] = (
            float(np.nanmean([row.perceptual[key][0] for row in rows])),
            float(np.nanmean([row.perceptual[key][1] for row in rows])),
        )
        mean_row.metadata[key] = (
            float(np.nanmean([row.metadata[key][0] for row in rows])),
            float(np.nanmean([row.metadata[key][1] for row in rows])),
        )
    rows.append(mean_row)
    return rows
