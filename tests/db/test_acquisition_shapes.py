"""Characterization of the five acquisition shapes, end to end.

Each shape runs on a fresh connection and pins what a user can observe:
the EXPLAIN text, the EXPLAIN ANALYZE counters (wall time stripped), the
platform dispatches of the catalog's acquisition runtime, the session's
spend and the ``PRAGMA column_provenance`` rows.  A refactor of how a
statement's acquisition decision reaches the operators must leave every
one of these unchanged.
"""

from __future__ import annotations

import re
from typing import Any, Sequence

from repro.crowd.platform import CrowdPlatform
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db import Connection
from repro.db.acquisition import AcquisitionPolicy, Dispatch, PredictionBatch

_TIME = re.compile(r" time=[0-9.]+ms")


class PricedSource:
    """ValueSource double: answers ``item_id / 10`` at one cent per cell."""

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []
        #: ``(crowd_batch_size, gold_fraction)`` of the policy each dispatch was passed.
        self.policies: list[tuple[int, float]] = []

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: Any,
        tracker: Any,
    ) -> Dispatch:
        self.batch_sizes.append(len(items))
        self.policies.append((policy.crowd_batch_size, policy.gold_fraction))
        return Dispatch(
            {rowid: row["item_id"] / 10 for rowid, row in items},
            cost=0.01 * len(items),
        )


class MeanPredictor:
    """AttributePredictor double: the training mean at a fixed confidence."""

    def fit_predict(self, attribute, train, targets):
        if not train:
            return PredictionBatch()
        mean = sum(float(value) for _rowid, _row, value in train) / len(train)
        return PredictionBatch(
            values={rowid: round(mean, 6) for rowid, _row in targets},
            confidences={rowid: 0.7 for rowid, _row in targets},
            model_kind="mean",
            rmse=0.25,
            training_size=len(train),
        )


def bird_source() -> SimulatedCrowdValueSource:
    return SimulatedCrowdValueSource(
        CrowdPlatform(seed=11),
        WorkerPool.build(n_honest=5, seed=3),
        truth={},
        seed=7,
        universe={"birds": [f"species-{i:02d}" for i in range(20)]},
        answers_per_batch=25,
        payment_per_hit=0.05,
    )


def movies(conn: Connection, n: int = 30) -> Connection:
    conn.execute("CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO movies (item_id, name) VALUES (?, ?)",
        [(i, f"movie-{i}") for i in range(1, n + 1)],
    )
    conn.add_perceptual_column("movies", "humor")
    return conn


def observed(conn: Connection, column: str, explain: str, analyze: str) -> dict[str, Any]:
    return {
        "explain": explain.splitlines(),
        "analyze": _TIME.sub("", analyze).splitlines(),
        "dispatches": conn.acquisition_runtime().total_dispatches,
        "cost_spent": round(conn.session.cost_spent, 6),
        "provenance": conn.execute(f"PRAGMA column_provenance = '{column}'").fetchall(),
    }


def run_select(conn: Connection, sql: str, column: str) -> dict[str, Any]:
    explain = conn.explain(sql)
    return observed(conn, column, explain, conn.explain_analyze(sql))


SELECT_HUMOR = "SELECT item_id, humor FROM movies WHERE humor > 0 ORDER BY item_id"


def crowd_only_select() -> dict[str, Any]:
    conn = movies(Connection())
    conn.set_policy(AcquisitionPolicy(crowd_batch_size=8, max_cost=0.2))
    source = PricedSource()
    conn.set_value_source(source)
    return {**run_select(conn, SELECT_HUMOR, "movies.humor"), "batches": source.batch_sizes}


def hybrid_select() -> dict[str, Any]:
    conn = movies(Connection())
    conn.set_policy(
        AcquisitionPolicy(
            crowd_batch_size=4,
            sample_fraction=0.25,
            min_sample=2,
            min_confidence=0.9,
            max_cost=1.0,
        )
    )
    source = PricedSource()
    conn.set_value_source(source)
    conn.set_predictor(MeanPredictor())
    first = run_select(conn, SELECT_HUMOR, "movies.humor")
    # The predicted cells' 0.7 confidence is below min_confidence: the
    # second run re-acquires a sample of them.
    second = run_select(conn, SELECT_HUMOR, "movies.humor")
    return {"first": first, "second": second, "batches": source.batch_sizes}


def predict_only_select() -> dict[str, Any]:
    conn = movies(Connection())
    conn.execute("UPDATE movies SET humor = 0.5 WHERE item_id <= 6")
    conn.set_predictor(MeanPredictor())
    return run_select(conn, SELECT_HUMOR, "movies.humor")


def select_from_crowd() -> dict[str, Any]:
    conn = Connection()
    conn.set_value_source(bird_source())
    conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
    sql = "SELECT value FROM CROWD 'birds' WITH COMPLETENESS >= 0.9 AND BUDGET <= 0.5"
    return run_select(conn, sql, "birds.name")


def insert_from_crowd() -> dict[str, Any]:
    conn = Connection()
    conn.set_policy(AcquisitionPolicy(max_cost=0.5))
    conn.set_value_source(bird_source())
    conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
    conn.execute("INSERT INTO birds (bird_id, name) VALUES (1, 'species-03')")
    cursor = conn.execute(
        "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.8"
    )
    outcome = observed(conn, "birds.name", "", "")
    del outcome["explain"], outcome["analyze"]
    return {**outcome, "rowcount": cursor.rowcount, "enumeration": cursor.result.enumeration}


def test_crowd_only_select():
    assert crowd_only_select() == CROWD_ONLY


def test_hybrid_select():
    assert hybrid_select() == HYBRID


def test_predict_only_select():
    assert predict_only_select() == PREDICT_ONLY


def test_select_from_crowd():
    assert select_from_crowd() == FROM_CROWD


def test_insert_from_crowd():
    assert insert_from_crowd() == INSERT_FROM_CROWD


def test_streaming_cursor_keeps_its_batch_size():
    conn = movies(Connection(), n=20)
    conn.set_policy(AcquisitionPolicy(crowd_batch_size=5))
    source = PricedSource()
    conn.set_value_source(source)
    cursor = conn.cursor().execute("SELECT item_id, humor FROM movies")
    assert len(cursor.fetchmany(3)) == 3
    assert source.batch_sizes == [5]
    conn.execute("PRAGMA acquisition_crowd_batch_size = 100")
    conn.execute("PRAGMA acquisition_gold_fraction = 0.5")
    assert len(cursor.fetchall()) == 17
    assert source.batch_sizes == [5, 5, 5, 5]
    # The value source sees the policy the cursor was lowered with, before
    # and after the PRAGMAs, not the session's live one.
    assert source.policies == [(5, 0.1)] * 4
    assert "CrowdFill(batch_size=5)" in cursor.explain()
    # A statement lowered after the PRAGMA reads the new size.
    assert "CrowdFill(batch_size=100)" in conn.explain("SELECT humor FROM movies")


# ---------------------------------------------------------------------------
# What each shape showed when this test was written
# ---------------------------------------------------------------------------

CROWD_ONLY = {
    "explain": [
        "SeqScan movies AS movies",
        "CrowdFill(batch_size=8) movies.humor",
        "Filter humor > 0",
        "Project item_id, humor",
        "Sort item_id",
    ],
    "analyze": [
        "SeqScan movies AS movies  [rows=30 est=30]",
        "CrowdFill(batch_size=8) movies.humor  "
        "[rows=30 batches=3 filled=20/20 cache_hits=0 coalesced=0]",
        "Filter humor > 0  [rows=20]",
        "Project item_id, humor  [rows=20]",
        "Sort item_id  [rows=20]",
    ],
    "dispatches": 3,
    "cost_spent": 0.2,
    "provenance": [("crowd", 20), ("missing", 10)],
    "batches": [8, 8, 4],
}

HYBRID = {
    "first": {
        "explain": [
            "SeqScan movies AS movies",
            "CrowdFill(batch_size=4, sample=8) movies.humor",
            "PredictFill(sample_fraction=0.25, min_confidence=0.9) movies.humor",
            "Filter humor > 0",
            "Project item_id, humor",
            "Sort item_id",
        ],
        "analyze": [
            "SeqScan movies AS movies  [rows=30 est=30]",
            "CrowdFill(batch_size=4, sample=8) movies.humor  "
            "[rows=30 batches=2 filled=8/8 cache_hits=0 coalesced=0]",
            "PredictFill(sample_fraction=0.25, min_confidence=0.9) movies.humor  "
            "[rows=30 predicted=22 crowd_calls_saved=6 rmse=humor:0.250]",
            "Filter humor > 0  [rows=30]",
            "Project item_id, humor  [rows=30]",
            "Sort item_id  [rows=30]",
        ],
        "dispatches": 2,
        "cost_spent": 0.08,
        "provenance": [("crowd", 8), ("predicted", 22)],
    },
    "second": {
        "explain": [
            "SeqScan movies AS movies",
            "CrowdFill(batch_size=4, sample=6) movies.humor",
            "PredictFill(sample_fraction=0.25, min_confidence=0.9) movies.humor",
            "Filter humor > 0",
            "Project item_id, humor",
            "Sort item_id",
        ],
        "analyze": [
            "SeqScan movies AS movies  [rows=30 est=30]",
            "CrowdFill(batch_size=4, sample=6) movies.humor  "
            "[rows=30 batches=2 filled=6/6 cache_hits=0 coalesced=0]",
            "PredictFill(sample_fraction=0.25, min_confidence=0.9) movies.humor  "
            "[rows=30 predicted=0 crowd_calls_saved=0]",
            "Filter humor > 0  [rows=30]",
            "Project item_id, humor  [rows=30]",
            "Sort item_id  [rows=30]",
        ],
        "dispatches": 4,
        "cost_spent": 0.14,
        "provenance": [("crowd", 14), ("predicted", 16)],
    },
    "batches": [4, 4, 4, 2],
}

PREDICT_ONLY = {
    "explain": [
        "SeqScan movies AS movies",
        "PredictFill(sample_fraction=0.25) movies.humor",
        "Filter humor > 0",
        "Project item_id, humor",
        "Sort item_id",
    ],
    "analyze": [
        "SeqScan movies AS movies  [rows=30 est=30]",
        "PredictFill(sample_fraction=0.25) movies.humor  "
        "[rows=30 predicted=24 crowd_calls_saved=1 rmse=humor:0.250]",
        "Filter humor > 0  [rows=30]",
        "Project item_id, humor  [rows=30]",
        "Sort item_id  [rows=30]",
    ],
    "dispatches": 0,
    "cost_spent": 0.0,
    "provenance": [("stored", 6), ("predicted", 24)],
}

FROM_CROWD = {
    "explain": ["CrowdEnumerate(completeness>=0.9, budget<=0.5) 'birds'", "Project value"],
    "analyze": [
        "CrowdEnumerate(completeness>=0.9, budget<=0.5) 'birds'  "
        "[rows=19 batches=3 rows_enumerated=19 unique_seen=19 est_total=20.1 "
        "est_coverage=0.947 stopped_on=completeness cache_hits=0 coalesced=0 cost=0.1500]",
        "Project value  [rows=19]",
    ],
    "dispatches": 3,
    "cost_spent": 0.15,
    "provenance": [],
}

INSERT_FROM_CROWD = {
    "dispatches": 2,
    "cost_spent": 0.1,
    "provenance": [("stored", 1), ("crowd", 15)],
    "rowcount": 15,
    "enumeration": {
        "predicate": "birds",
        "rows_enumerated": 15,
        "unique_seen": 15,
        "est_total": 17.0455,
        "est_coverage": 0.88,
        "stopped_on": "completeness",
        "batches": 2,
        "sample_size": 50,
        "cache_hits": 0,
        "coalesced": 0,
        "cost": 0.1,
        "completeness_target": 0.8,
        "budget": None,
    },
}
