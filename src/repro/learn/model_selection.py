"""Training-set sampling for the schema-expansion experiments.

:func:`sample_balanced_training_set` draws the "n positive and n negative
training examples" of the paper's Table 3 / Tables 5–6 experiments.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import LearningError
from repro.utils.rng import RandomState, ensure_rng


def sample_balanced_training_set(
    labels: Mapping[int, bool],
    n_per_class: int,
    *,
    seed: RandomState = None,
    exclude: Sequence[int] = (),
) -> tuple[list[int], list[int]]:
    """Draw *n_per_class* positive and negative item ids from *labels*.

    Returns ``(positive_ids, negative_ids)``.  Raises if either class has
    fewer than *n_per_class* members after exclusions, mirroring the
    controlled experiment of Section 4.3.
    """
    if n_per_class <= 0:
        raise LearningError("n_per_class must be positive")
    excluded = {int(i) for i in exclude}
    positives = [item for item, label in labels.items() if label and item not in excluded]
    negatives = [item for item, label in labels.items() if not label and item not in excluded]
    if len(positives) < n_per_class:
        raise LearningError(
            f"need {n_per_class} positive examples but only {len(positives)} are available"
        )
    if len(negatives) < n_per_class:
        raise LearningError(
            f"need {n_per_class} negative examples but only {len(negatives)} are available"
        )
    rng = ensure_rng(seed)
    positive_ids = [int(i) for i in rng.choice(sorted(positives), size=n_per_class, replace=False)]
    negative_ids = [int(i) for i in rng.choice(sorted(negatives), size=n_per_class, replace=False)]
    return positive_ids, negative_ids
