"""Evaluation metrics used throughout the paper's evaluation section.

The central measure is the **g-mean** (geometric mean of sensitivity and
specificity), chosen because genre labels are heavily imbalanced: a naive
classifier labelling everything negative reaches high plain accuracy but a
g-mean of zero (Section 4.3).  Precision/recall back Table 4 and plain
accuracy backs Table 1 / Figures 3–4.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import LearningError


def _as_bool_arrays(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth).astype(bool)
    predictions = np.asarray(predictions).astype(bool)
    if truth.shape != predictions.shape:
        raise LearningError(
            f"truth and predictions have different shapes: {truth.shape} vs {predictions.shape}"
        )
    if truth.size == 0:
        raise LearningError("cannot compute metrics on empty inputs")
    return truth, predictions


def confusion_matrix(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> dict[str, int]:
    """Return true/false positive/negative counts."""
    truth, predictions = _as_bool_arrays(truth, predictions)
    return {
        "tp": int(np.sum(truth & predictions)),
        "fp": int(np.sum(~truth & predictions)),
        "fn": int(np.sum(truth & ~predictions)),
        "tn": int(np.sum(~truth & ~predictions)),
    }


def accuracy(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> float:
    """Fraction of predictions matching the truth."""
    truth, predictions = _as_bool_arrays(truth, predictions)
    return float(np.mean(truth == predictions))


def sensitivity_specificity(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> tuple[float, float]:
    """Sensitivity (recall on positives) and specificity (recall on negatives).

    If a class is absent from the truth, its recall is defined as 1.0 (there
    was nothing to get wrong), matching the common g-mean convention.
    """
    counts = confusion_matrix(truth, predictions)
    positives = counts["tp"] + counts["fn"]
    negatives = counts["tn"] + counts["fp"]
    sensitivity = counts["tp"] / positives if positives else 1.0
    specificity = counts["tn"] / negatives if negatives else 1.0
    return float(sensitivity), float(specificity)


def g_mean(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> float:
    """Geometric mean of sensitivity and specificity."""
    sensitivity, specificity = sensitivity_specificity(truth, predictions)
    return float(np.sqrt(sensitivity * specificity))


def precision_recall(
    truth: Sequence[bool] | np.ndarray, predictions: Sequence[bool] | np.ndarray
) -> tuple[float, float]:
    """Precision and recall of the positive class.

    Precision is defined as 0.0 when nothing was predicted positive, and
    recall as 0.0 when no true positives exist, which keeps the Table 4
    aggregation well-defined.
    """
    counts = confusion_matrix(truth, predictions)
    predicted_positive = counts["tp"] + counts["fp"]
    actual_positive = counts["tp"] + counts["fn"]
    precision = counts["tp"] / predicted_positive if predicted_positive else 0.0
    recall = counts["tp"] / actual_positive if actual_positive else 0.0
    return float(precision), float(recall)
