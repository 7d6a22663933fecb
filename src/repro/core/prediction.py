"""Perceptual-space predictor for the query engine's hybrid acquisition.

This is the bridge between the database's
:class:`~repro.db.acquisition.AttributePredictor` protocol and the paper's
Section 3.4 models: the item coordinates of a
:class:`~repro.perceptual.space.PerceptualSpace` serve as features, an
:class:`~repro.learn.svr.SVR` extracts numeric judgments, an
:class:`~repro.learn.svm.SVC` extracts boolean ones, and — when the crowd
sample is scarce — the :class:`~repro.learn.tsvm.TransductiveSVC` exploits
the unlabelled target rows as well (Section 5's semi-supervised variant).

The predictor is stateless between calls: ``fit_predict`` trains a fresh
model per attribute per query, mirroring how the paper retrains the
extraction model whenever new crowd answers arrive.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.db.acquisition import PredictionBatch
from repro.db.types import is_missing
from repro.learn.svm import SVC
from repro.learn.svr import SVR
from repro.learn.tsvm import TransductiveSVC
from repro.perceptual.space import PerceptualSpace
from repro.utils.rng import RandomState

__all__ = ["PerceptualPredictor"]


class PerceptualPredictor:
    """Predict crowd-sourced attribute values from perceptual coordinates.

    Parameters
    ----------
    space:
        The perceptual space whose item coordinates serve as features.
    key_column:
        Row column mapping database rows to the space's item ids (the same
        convention as :class:`~repro.crowd.sources.SimulatedCrowdValueSource`).
    C, gamma:
        SVM/SVR hyper-parameters (RBF kernel, as the paper recommends).
    min_training_size:
        Minimum usable training examples before a model is fitted; below
        it (or with a single class) an empty batch is returned and the
        cells stay MISSING.
    tsvm_threshold:
        When a *boolean* attribute has fewer labelled examples than this,
        the transductive SVM is trained on the labelled sample plus the
        unlabelled target rows instead of the plain SVC (the paper's
        scarce-label fallback).  0 disables the fallback.
    value_range:
        Optional ``(low, high)`` clip range for numeric predictions.
    seed:
        Unused: every model here trains deterministically.  Accepted so
        existing callers keep working.
    """

    def __init__(
        self,
        space: PerceptualSpace,
        *,
        key_column: str = "item_id",
        C: float = 2.0,
        gamma: float | str = "scale",
        min_training_size: int = 6,
        tsvm_threshold: int = 0,
        value_range: tuple[float, float] | None = None,
        seed: RandomState = None,
    ) -> None:
        self.space = space
        self.key_column = key_column
        self.C = C
        self.gamma = gamma
        self.min_training_size = min_training_size
        self.tsvm_threshold = tsvm_threshold
        self.value_range = value_range

    # -- protocol --------------------------------------------------------------

    def fit_predict(
        self,
        attribute: str,
        train: Sequence[tuple[int, dict[str, Any], Any]],
        targets: Sequence[tuple[int, dict[str, Any]]],
    ) -> PredictionBatch:
        """Train on the known values and predict the missing ones.

        Rows whose *key_column* does not map into the perceptual space can
        neither train nor be predicted; uncovered targets stay MISSING.
        """
        usable_train = [
            (rowid, item_id, value)
            for rowid, row, value in train
            if (item_id := self._item_of(row)) is not None
        ]
        usable_targets = [
            (rowid, item_id)
            for rowid, row in targets
            if (item_id := self._item_of(row)) is not None
        ]
        if len(usable_train) < self.min_training_size or not usable_targets:
            return PredictionBatch(training_size=len(usable_train))

        X_train = self.space.vectors([item_id for _, item_id, _ in usable_train])
        X_targets = self.space.vectors([item_id for _, item_id in usable_targets])
        target_rowids = [rowid for rowid, _ in usable_targets]
        values = [value for _, _, value in usable_train]

        if all(isinstance(value, (bool, np.bool_)) for value in values):
            return self._predict_boolean(
                X_train, np.array(values, dtype=bool), X_targets, target_rowids
            )
        return self._predict_numeric(
            X_train,
            np.array([float(value) for value in values], dtype=np.float64),
            X_targets,
            target_rowids,
        )

    # -- model selection --------------------------------------------------------

    def _predict_boolean(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_targets: np.ndarray,
        target_rowids: list[int],
    ) -> PredictionBatch:
        if bool(y_train.all()) or not bool(y_train.any()):
            # One-class gold samples cannot train a discriminative model.
            return PredictionBatch(training_size=len(y_train))
        if 0 < len(y_train) < self.tsvm_threshold:
            model: SVC | TransductiveSVC = TransductiveSVC(C=self.C, kernel="rbf", gamma=self.gamma)
            model.fit(X_train, y_train, X_targets)
            model_kind = "tsvm-rbf"
        else:
            model = SVC(
                C=self.C,
                kernel="rbf",
                gamma=self.gamma,
                class_weight="balanced",
            )
            model.fit(X_train, y_train)
            model_kind = "svc-rbf"
        scores = model.decision_function(X_targets)
        predictions = scores >= 0.0
        # Squash |decision| through a sigmoid: confident far from the
        # boundary, 0.5 on it.
        confidences = {
            rowid: 1.0 / (1.0 + math.exp(-abs(float(score))))
            for rowid, score in zip(target_rowids, scores)
        }
        train_predictions = model.decision_function(X_train) >= 0.0
        rmse = float(np.sqrt(np.mean((train_predictions != y_train).astype(float))))
        return PredictionBatch(
            values={rowid: bool(p) for rowid, p in zip(target_rowids, predictions)},
            confidences=confidences,
            model_kind=model_kind,
            rmse=rmse,
            training_size=len(y_train),
        )

    def _predict_numeric(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_targets: np.ndarray,
        target_rowids: list[int],
    ) -> PredictionBatch:
        model = SVR(C=self.C, kernel="rbf", gamma=self.gamma)
        model.fit(X_train, y_train)
        predictions = model.predict(X_targets)
        if self.value_range is not None:
            predictions = np.clip(predictions, self.value_range[0], self.value_range[1])
        residuals = model.predict(X_train) - y_train
        rmse = float(np.sqrt(np.mean(residuals**2)))
        spread = float(np.std(y_train)) or 1.0
        # Confidence decays with the model's training error relative to the
        # target spread: a regressor no better than the mean scores ~0.5.
        confidence = 1.0 / (1.0 + rmse / spread)
        return PredictionBatch(
            values={rowid: float(p) for rowid, p in zip(target_rowids, predictions)},
            confidences={rowid: confidence for rowid in target_rowids},
            model_kind="svr-rbf",
            rmse=rmse,
            training_size=len(y_train),
        )

    # -- helpers ---------------------------------------------------------------

    def _item_of(self, row: dict[str, Any]) -> int | None:
        key = row.get(self.key_column)
        if key is None or is_missing(key):
            return None
        item_id = int(key)
        return item_id if item_id in self.space else None
