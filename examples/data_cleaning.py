"""Cleaning noisy crowd data with the perceptual space (Section 4.4).

Workflow demonstrated here:

1. A crowd-sourced genre column contains a known fraction of wrong labels
   (simulated by swapping reference labels).
2. The questionable-response detector trains an SVM on the perceptual-space
   coordinates of all labelled movies and flags every label that contradicts
   the model.
3. Only the flagged movies are re-verified (simulated by an expert pool),
   and the repaired column's accuracy is compared with the original one.

Run with:  python examples/data_cleaning.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QuestionableResponseDetector
from repro.datasets import build_movie_corpus
from repro.experiments.questionable import corrupt_labels
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig


def label_accuracy(labels: dict[int, bool], truth: dict[int, bool]) -> float:
    """Fraction of labels matching the ground truth."""
    common = [item for item in labels if item in truth]
    if not common:
        return 0.0
    return float(np.mean([labels[item] == truth[item] for item in common]))


def main() -> None:
    corpus = build_movie_corpus(n_movies=500, n_users=1200, ratings_per_user=45, seed=11)
    truth = corpus.labels_for("Horror")

    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=20, n_epochs=15, seed=11))
    model.fit(corpus.ratings)
    space = model.to_space()

    # 1. Crowd labels with 15 % wrong judgments.
    crowd_labels, swapped = corrupt_labels(
        {i: l for i, l in truth.items() if i in space}, 0.15, seed=11
    )
    print(f"Crowd-provided labels: {len(crowd_labels)} movies, "
          f"{len(swapped)} of them wrong ({label_accuracy(crowd_labels, truth) * 100:.1f}% accurate)")

    # 2. Flag questionable responses.
    detector = QuestionableResponseDetector(space)
    scan = detector.scan("is_horror", crowd_labels)
    precision, recall = scan.score_against(swapped)
    print(
        f"Detector flagged {len(scan.flags)} movies "
        f"({scan.flagged_fraction * 100:.1f}% of the column); "
        f"precision {precision:.2f}, recall {recall:.2f}"
    )

    # 3. Re-verify only the flagged movies (an expert answers correctly here).
    verified = {flag.item_id: truth[flag.item_id] for flag in scan.flags if flag.item_id in truth}
    repaired = detector.repair("is_horror", crowd_labels, verified)

    before = label_accuracy(crowd_labels, truth)
    after = label_accuracy(repaired, truth)
    re_verified_fraction = len(verified) / len(crowd_labels)
    print(
        f"Re-verifying {len(verified)} movies ({re_verified_fraction * 100:.1f}% of the column) "
        f"raised label accuracy from {before * 100:.1f}% to {after * 100:.1f}%."
    )


if __name__ == "__main__":
    main()
