"""Tests for the perceptual-space attribute predictor (SVC / TSVM / SVR)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prediction import PerceptualPredictor
from repro.db.types import MISSING
from repro.perceptual.space import PerceptualSpace


@pytest.fixture(scope="module")
def space() -> PerceptualSpace:
    """Two well-separated clusters: items 1-20 near (-2, 0), items 21-40 near (+2, 0)."""
    rng = np.random.default_rng(0)
    coordinates = rng.normal(0.0, 0.3, (40, 2))
    coordinates[:20, 0] -= 2.0
    coordinates[20:, 0] += 2.0
    return PerceptualSpace(list(range(1, 41)), coordinates)


def rows(item_ids):
    """``(rowid, row)`` pairs whose key column is the item id (rowid = 100 + item)."""
    return [(100 + item_id, {"item_id": item_id}) for item_id in item_ids]


def labelled(item_ids, value_of):
    return [(rowid, row, value_of(row["item_id"])) for rowid, row in rows(item_ids)]


TRAIN_ITEMS = [1, 2, 3, 4, 5, 21, 22, 23, 24, 25]
TARGET_ITEMS = [10, 11, 30, 31]


class TestBooleanAttributes:
    def test_svc_separates_the_clusters(self, space):
        predictor = PerceptualPredictor(space)
        batch = predictor.fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: item > 20), rows(TARGET_ITEMS)
        )
        assert batch.model_kind == "svc-rbf"
        assert batch.values == {110: False, 111: False, 130: True, 131: True}
        assert batch.training_size == len(TRAIN_ITEMS)
        assert batch.rmse == 0.0

    def test_confidences_lie_between_a_coin_flip_and_certainty(self, space):
        batch = PerceptualPredictor(space).fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: item > 20), rows(TARGET_ITEMS)
        )
        assert set(batch.confidences) == set(batch.values)
        assert all(0.5 <= confidence < 1.0 for confidence in batch.confidences.values())

    def test_scarce_labels_fall_back_to_the_transductive_svm(self, space):
        predictor = PerceptualPredictor(space, tsvm_threshold=len(TRAIN_ITEMS) + 1)
        batch = predictor.fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: item > 20), rows(TARGET_ITEMS)
        )
        assert batch.model_kind == "tsvm-rbf"
        assert batch.values == {110: False, 111: False, 130: True, 131: True}

    def test_one_class_sample_predicts_nothing(self, space):
        batch = PerceptualPredictor(space).fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: True), rows(TARGET_ITEMS)
        )
        assert batch.values == {}
        assert batch.model_kind == "none"
        assert batch.training_size == len(TRAIN_ITEMS)


class TestNumericAttributes:
    def test_svr_tracks_a_linear_trend(self, space):
        position = {item: float(space.vector(item)[0]) for item in range(1, 41)}
        batch = PerceptualPredictor(space, C=10.0).fit_predict(
            "score",
            labelled(TRAIN_ITEMS, lambda item: 3.0 + position[item]),
            rows(TARGET_ITEMS),
        )
        assert batch.model_kind == "svr-rbf"
        assert batch.values[110] < 3.0 < batch.values[130]
        assert all(isinstance(value, float) for value in batch.values.values())
        assert batch.rmse is not None and batch.rmse < 1.0

    def test_one_confidence_for_every_target(self, space):
        batch = PerceptualPredictor(space).fit_predict(
            "score", labelled(TRAIN_ITEMS, lambda item: float(item)), rows(TARGET_ITEMS)
        )
        assert len(set(batch.confidences.values())) == 1
        assert 0.0 < next(iter(batch.confidences.values())) <= 1.0

    def test_value_range_clips_predictions(self, space):
        batch = PerceptualPredictor(space, value_range=(2.0, 2.5)).fit_predict(
            "score",
            labelled(TRAIN_ITEMS, lambda item: 1.0 if item <= 20 else 5.0),
            rows(TARGET_ITEMS),
        )
        assert all(2.0 <= value <= 2.5 for value in batch.values.values())
        assert batch.values[110] == 2.0 and batch.values[130] == 2.5


class TestCoverage:
    def test_too_few_training_rows_predicts_nothing(self, space):
        predictor = PerceptualPredictor(space, min_training_size=len(TRAIN_ITEMS) + 1)
        batch = predictor.fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: item > 20), rows(TARGET_ITEMS)
        )
        assert batch.values == {}
        assert batch.training_size == len(TRAIN_ITEMS)

    def test_rows_outside_the_space_neither_train_nor_get_predictions(self, space):
        train = labelled(TRAIN_ITEMS, lambda item: item > 20)
        train += [(900, {"item_id": 999}, True), (901, {"item_id": MISSING}, False)]
        targets = rows(TARGET_ITEMS) + [(902, {"item_id": 999}), (903, {"item_id": None})]
        batch = PerceptualPredictor(space).fit_predict("is_right", train, targets)
        assert batch.training_size == len(TRAIN_ITEMS)
        assert set(batch.values) == {110, 111, 130, 131}

    def test_no_coverable_target_predicts_nothing(self, space):
        batch = PerceptualPredictor(space).fit_predict(
            "is_right", labelled(TRAIN_ITEMS, lambda item: item > 20), [(1, {"item_id": 999})]
        )
        assert batch.values == {}

    def test_custom_key_column(self, space):
        train = [
            (rowid, {"movie": row["item_id"]}, value)
            for rowid, row, value in labelled(TRAIN_ITEMS, lambda item: item > 20)
        ]
        targets = [(rowid, {"movie": row["item_id"]}) for rowid, row in rows(TARGET_ITEMS)]
        batch = PerceptualPredictor(space, key_column="movie").fit_predict(
            "is_right", train, targets
        )
        assert batch.values == {110: False, 111: False, 130: True, 131: True}
