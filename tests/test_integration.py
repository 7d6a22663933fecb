"""End-to-end integration tests: the full paper workflow on one small corpus."""

from __future__ import annotations

import numpy as np

from repro.core import PerceptualPredictor, QuestionableResponseDetector
from repro.crowd import CrowdPlatform, SimulatedCrowdValueSource, WorkerPool
from repro.db import ColumnType, Connection, Dispatch
from repro.experiments.questionable import corrupt_labels
from repro.learn.metrics import g_mean
from repro.perceptual.space import PerceptualSpace


def expanding_connection() -> Connection:
    """A connection whose expansion handler only adds the column."""
    db = Connection()

    def expand(table: str, column: str) -> bool:
        db.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    db.set_expansion_handler(expand)
    return db


def movies_connection(corpus) -> Connection:
    """The factual movie table on an expanding connection."""
    db = expanding_connection()
    db.run_statement(
        "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT NOT NULL, year INTEGER)"
    )
    db.insert_rows(
        "movies",
        [{"item_id": r["item_id"], "name": r["name"], "year": r["year"]} for r in corpus.items],
    )
    return db


def comedy_source(
    truth, seed: int, *, trusted: bool = False, judgments_per_item: int = 3
) -> SimulatedCrowdValueSource:
    pool = WorkerPool.build(n_honest=25, n_spammers=20, n_experts=10, seed=seed)
    return SimulatedCrowdValueSource(
        CrowdPlatform(seed=seed),
        pool.only_trusted() if trusted else pool,
        truth={"is_comedy": truth},
        judgments_per_item=judgments_per_item,
        seed=seed,
    )


class TestEndToEndSchemaExpansion:
    def test_figure2_workflow(self, small_corpus, small_space):
        """The full Figure-2 workflow: query -> crowd sample -> prediction -> answer."""
        truth = small_corpus.labels_for("Comedy")
        db = movies_connection(small_corpus)
        source = comedy_source(truth, 31, trusted=True)
        db.set_value_source(source)
        db.set_predictor(PerceptualPredictor(small_space))

        result = db.run_statement(
            "SELECT name FROM movies WHERE is_comedy = true ORDER BY year DESC LIMIT 10"
        )
        assert 0 < len(result) <= 10
        assert db.missing_count("movies", "is_comedy") == 0
        counts = db.provenance_counts("movies", "is_comedy")
        assert 0 < counts["crowd"] < counts["predicted"]
        assert source.total_cost < 5.0

        # Quality of the expanded column against the ground truth.
        values = db.column_values("movies", "is_comedy")
        keys = db.column_values("movies", "item_id")
        predictions, labels = [], []
        for rowid, value in values.items():
            item = int(keys[rowid])
            predictions.append(bool(value))
            labels.append(truth[item])
        assert g_mean(np.array(labels), np.array(predictions)) > 0.55

    def test_perceptual_space_cheaper_than_direct_crowd(self, small_corpus, small_space):
        """Hybrid expansion costs under half of crowd-only and covers every row."""
        truth = small_corpus.labels_for("Comedy")
        query = "SELECT count(*) FROM movies WHERE is_comedy = ?"

        crowd_db = movies_connection(small_corpus)
        crowd = comedy_source(truth, 37, judgments_per_item=10)
        crowd_db.set_value_source(crowd)
        crowd_db.execute(query, (True,)).fetchone()

        hybrid_db = movies_connection(small_corpus)
        hybrid = comedy_source(truth, 37, trusted=True)
        hybrid_db.set_value_source(hybrid)
        hybrid_db.set_predictor(PerceptualPredictor(small_space))
        hybrid_db.execute(query, (True,)).fetchone()

        assert hybrid.total_cost < crowd.total_cost / 2
        assert hybrid_db.missing_count("movies", "is_comedy") == 0
        assert crowd_db.provenance_counts("movies", "is_comedy").get("predicted", 0) == 0
        assert crowd_db.missing_count("movies", "is_comedy") < len(truth)

    def test_items_outside_the_space_go_back_to_the_crowd(self):
        """Rows the predictor cannot place stay MISSING, then the crowd gets them.

        The space covers items 1-60; the table also holds items 61-70.  The
        first query's crowd sample may include a few of them, the predictor
        fills every covered row and leaves the rest MISSING; the next query
        offers exactly those cells to CrowdFill as candidates.
        """
        rng = np.random.default_rng(4)
        space = PerceptualSpace(
            list(range(1, 61)),
            np.vstack([rng.normal(2.0, 0.5, size=(20, 4)), rng.normal(0.0, 0.5, size=(40, 4))]),
        )

        class RecordingSource:
            def __init__(self) -> None:
                self.batches: list[set[int]] = []

            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                self.batches.append({row["item_id"] for _rowid, row in items})
                return Dispatch({rowid: row["item_id"] <= 20 for rowid, row in items})

        db = expanding_connection()
        db.run_statement("CREATE TABLE items (item_id INTEGER PRIMARY KEY)")
        db.insert_rows("items", [{"item_id": i} for i in range(1, 71)])
        source = RecordingSource()
        db.set_value_source(source)
        db.set_predictor(PerceptualPredictor(space))

        db.execute("SELECT count(*) FROM items WHERE is_positive = ?", (True,)).fetchone()
        asked_first = set().union(*source.batches)
        values = db.column_values("items", "is_positive")
        keys = db.column_values("items", "item_id")
        missing = {keys[rowid] for rowid, value in values.items() if not isinstance(value, bool)}
        assert missing and missing == set(range(61, 71)) - asked_first
        assert db.provenance_counts("items", "is_positive")["predicted"] == 60 - len(
            asked_first & set(range(1, 61))
        )

        source.batches.clear()
        db.execute("SELECT count(*) FROM items WHERE is_positive = ?", (True,)).fetchone()
        assert source.batches == [missing]
        assert db.missing_count("items", "is_positive") == 0

    def test_data_cleaning_workflow(self, small_corpus, small_space):
        """Section 4.4: flag questionable labels, re-verify, quality improves."""
        truth = {
            i: l for i, l in small_corpus.labels_for("Comedy").items() if i in small_space
        }
        corrupted, _swapped = corrupt_labels(truth, 0.2, seed=5)
        detector = QuestionableResponseDetector(small_space)
        repaired = detector.repair("is_comedy", corrupted, verified_labels=truth)
        before = np.mean([corrupted[i] == truth[i] for i in truth])
        after = np.mean([repaired[i] == truth[i] for i in truth])
        assert after > before

    def test_public_api_importable(self):
        import repro

        assert repro.__version__
        assert hasattr(repro, "connect")
        assert hasattr(repro, "AcquisitionPolicy")
        assert hasattr(repro, "EuclideanEmbeddingModel")
