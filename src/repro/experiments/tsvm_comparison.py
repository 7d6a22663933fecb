"""Semi-supervised learning comparison (Section 5).

The paper repeats the small-sample schema-expansion experiment with a
transductive SVM and finds almost identical accuracy at a dramatically
higher runtime (seconds vs. tens of minutes with SVMlight).  This
experiment reproduces the comparison: plain SVC vs. the label-switching
TSVM on the same gold samples, reporting g-mean and wall-clock runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.prediction import PerceptualPredictor
from repro.experiments.context import MovieExperimentContext
from repro.learn.metrics import g_mean
from repro.learn.model_selection import sample_balanced_training_set
from repro.learn.tsvm import TransductiveSVC
from repro.utils.rng import RandomState, derive_seed


@dataclass(frozen=True)
class TSVMComparisonRow:
    """g-mean and runtime of SVM vs. TSVM for one genre."""

    genre: str
    n_per_class: int
    svm_gmean: float
    svm_seconds: float
    tsvm_gmean: float
    tsvm_seconds: float

    @property
    def slowdown(self) -> float:
        """How many times slower the TSVM is than the plain SVM."""
        if self.svm_seconds <= 0:
            return float("inf")
        return self.tsvm_seconds / self.svm_seconds


def run_tsvm_comparison(
    context: MovieExperimentContext,
    *,
    genres: Sequence[str] | None = None,
    n_per_class: int = 20,
    seed: RandomState = 47,
) -> list[TSVMComparisonRow]:
    """Compare SVC and TSVM on the schema-expansion task for each genre."""
    genre_names = list(genres) if genres is not None else context.genres[:2]
    rows: list[TSVMComparisonRow] = []
    for genre in genre_names:
        labels = {i: l for i, l in context.reference_labels(genre).items() if i in context.space}
        evaluation_ids = sorted(labels)
        truth = np.array([labels[i] for i in evaluation_ids])
        rep_seed = derive_seed(seed, genre)
        positives, negatives = sample_balanced_training_set(labels, n_per_class, seed=rep_seed)
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})

        # Plain SVM through the Section 3.4 model.
        start = time.perf_counter()
        batch = PerceptualPredictor(context.space).fit_predict(
            genre,
            [(i, {"item_id": i}, gold[i]) for i in sorted(gold)],
            [(i, {"item_id": i}) for i in evaluation_ids],
        )
        svm_seconds = time.perf_counter() - start
        svm_predictions = np.array([batch.values[i] for i in evaluation_ids])
        svm_score = g_mean(truth, svm_predictions)

        # Transductive SVM over the same features plus the unlabelled items.
        labeled_ids = sorted(gold)
        unlabeled_ids = [i for i in evaluation_ids if i not in gold]
        X_labeled = context.space.vectors(labeled_ids)
        y_labeled = np.array([gold[i] for i in labeled_ids])
        X_unlabeled = context.space.vectors(unlabeled_ids)

        start = time.perf_counter()
        tsvm = TransductiveSVC(positive_fraction=float(np.mean(list(gold.values()))))
        tsvm.fit(X_labeled, y_labeled, X_unlabeled)
        tsvm_predictions_all = tsvm.predict(context.space.vectors(evaluation_ids))
        tsvm_seconds = time.perf_counter() - start
        tsvm_score = g_mean(truth, tsvm_predictions_all)

        rows.append(
            TSVMComparisonRow(
                genre=genre,
                n_per_class=n_per_class,
                svm_gmean=svm_score,
                svm_seconds=svm_seconds,
                tsvm_gmean=tsvm_score,
                tsvm_seconds=tsvm_seconds,
            )
        )
    return rows
