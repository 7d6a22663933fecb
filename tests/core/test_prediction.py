"""Tests for the perceptual-space attribute predictor (SVC / SVR), Section 3.4."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prediction import PerceptualPredictor
from repro.db.types import MISSING
from repro.learn.metrics import g_mean
from repro.learn.model_selection import sample_balanced_training_set
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


def item_rows(item_ids):
    """``(item_id, row)`` targets: the row id is the item id."""
    return [(item_id, {"item_id": item_id}) for item_id in item_ids]


def item_labels(gold):
    """``(item_id, row, value)`` training rows, sorted by item id."""
    return [(item_id, row, gold[item_id]) for item_id, row in item_rows(sorted(gold))]


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
    @pytest.mark.parametrize("value_of", [lambda item: item > 20, float], ids=["bool", "float"])
    def test_too_few_training_rows_predicts_nothing(self, space, value_of):
        predictor = PerceptualPredictor(space, min_training_size=len(TRAIN_ITEMS) + 1)
        batch = predictor.fit_predict("x", labelled(TRAIN_ITEMS, value_of), rows(TARGET_ITEMS))
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



class TestOnClusteredSpaces:
    """Rows keyed by item id, trained in item-id order, as the experiments call it."""

    def test_regression_recovers_a_gradient(self):
        rng = np.random.default_rng(0)
        coordinates = np.vstack([rng.normal(2.0, 0.6, (60, 6)), rng.normal(0.0, 0.6, (140, 6))])
        space = PerceptualSpace(list(range(1, 201)), coordinates)
        # Numeric target proportional to the first coordinate.
        truth = {i: float(space.vector(i)[0]) for i in space.item_ids}
        gold = {i: truth[i] for i in space.item_ids[::7]}
        batch = PerceptualPredictor(space).fit_predict(
            "score", item_labels(gold), item_rows(space.item_ids)
        )
        predictions = np.array([batch.values[i] for i in space.item_ids])
        target = np.array([truth[i] for i in space.item_ids])
        assert np.corrcoef(predictions, target)[0, 1] > 0.8

    def test_movie_space_comedy_extraction(self, small_corpus, small_space):
        labels = small_corpus.labels_for("Comedy")
        positives, negatives = sample_balanced_training_set(labels, 25, seed=3)
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})
        batch = PerceptualPredictor(small_space).fit_predict(
            "is_comedy", item_labels(gold), item_rows(small_space.item_ids)
        )
        ids = [i for i in labels if i in batch.values]
        truth = np.array([labels[i] for i in ids])
        predictions = np.array([batch.values[i] for i in ids])
        assert g_mean(truth, predictions) > 0.6
