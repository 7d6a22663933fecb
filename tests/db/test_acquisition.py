"""Hybrid crowd+predict acquisition: sampling policy, lowering, provenance."""

from __future__ import annotations

import math
from typing import Any, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Connection, SessionContext
from repro.db.acquisition import (
    AcquisitionPolicy,
    Dispatch,
    PredictionBatch,
    choose_sample_size,
    plan_sample,
    select_sample,
)
from repro.db.sql.operators import CrowdFill, PredictFill
from repro.errors import ExecutionError

# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------


class CountingSource:
    """ValueSource that answers from a truth table and counts platform calls."""

    def __init__(self, truth: dict[int, Any], key_column: str = "item_id") -> None:
        self.truth = truth
        self.key_column = key_column
        self.calls: list[tuple[str, int]] = []
        self.requested_rowids: list[int] = []

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: Any,
        tracker: Any,
    ) -> Dispatch:
        self.calls.append((attribute, len(items)))
        self.requested_rowids.extend(rowid for rowid, _row in items)
        return Dispatch(
            {
                rowid: self.truth[row[self.key_column]]
                for rowid, row in items
                if row.get(self.key_column) in self.truth
            }
        )


class MeanPredictor:
    """AttributePredictor double: predicts the training mean, fixed confidence."""

    def __init__(self, confidence: float = 0.8) -> None:
        self.confidence = confidence
        self.fit_calls: list[tuple[str, int, int]] = []

    def fit_predict(self, attribute, train, targets):
        self.fit_calls.append((attribute, len(train), len(targets)))
        if not train:
            return PredictionBatch()
        mean = sum(float(value) for _r, _row, value in train) / len(train)
        return PredictionBatch(
            values={rowid: mean for rowid, _row in targets},
            confidences={rowid: self.confidence for rowid, _row in targets},
            model_kind="mean",
            rmse=0.1,
            training_size=len(train),
        )


def make_movies(n: int = 40) -> tuple[Catalog, Connection]:
    catalog = Catalog()
    conn = Connection(catalog)
    conn.execute("CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO movies (item_id, name) VALUES (?, ?)",
        [(i, f"movie-{i}") for i in range(1, n + 1)],
    )
    conn.add_perceptual_column("movies", "humor")
    return catalog, conn


POLICIES = st.builds(
    AcquisitionPolicy,
    sample_fraction=st.floats(0.01, 1.0, allow_nan=False),
    min_sample=st.integers(1, 50),
    min_confidence=st.floats(0.0, 1.0, allow_nan=False),
    cost_ratio=st.floats(0.0, 2.0, allow_nan=False),
    crowd_cost_per_value=st.floats(0.001, 1.0, allow_nan=False),
)


# ---------------------------------------------------------------------------
# Sampling policy properties
# ---------------------------------------------------------------------------


class TestSamplingPolicy:
    @given(
        n=st.integers(0, 5000),
        policy=POLICIES,
        budget=st.floats(0.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_never_exceeds_budget(self, n, policy, budget):
        size = choose_sample_size(n, policy, budget=budget)
        assert 0 <= size <= n
        assert size * policy.crowd_cost_per_value <= budget + 1e-9

    @given(
        n=st.integers(0, 5000),
        policy=POLICIES,
        low=st.floats(0.0, 50.0, allow_nan=False),
        extra=st.floats(0.0, 50.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_coverage_monotone_in_budget(self, n, policy, low, extra):
        smaller = choose_sample_size(n, policy, budget=low)
        larger = choose_sample_size(n, policy, budget=low + extra)
        assert smaller <= larger

    @given(n=st.integers(0, 5000), policy=POLICIES)
    @settings(max_examples=200, deadline=None)
    def test_unbudgeted_sample_bounded_by_candidates(self, n, policy):
        size = choose_sample_size(n, policy)
        assert 0 <= size <= n
        if n > policy.min_sample and policy.cost_ratio < 1.0:
            assert size >= min(n, policy.min_sample)

    @given(
        rowids=st.sets(st.integers(1, 10_000), max_size=300),
        size=st.integers(0, 350),
    )
    @settings(max_examples=200, deadline=None)
    def test_select_sample_is_deterministic_subset(self, rowids, size):
        first = select_sample(rowids, size)
        second = select_sample(rowids, size)
        assert first == second
        assert first <= set(rowids)
        assert len(first) == min(max(size, 0), len(rowids))

    def test_cost_ratio_one_degenerates_to_crowd_only(self):
        policy = AcquisitionPolicy(sample_fraction=0.1, min_sample=5, cost_ratio=1.0)
        assert choose_sample_size(1000, policy) == 1000

    def test_plan_without_source_leaves_all_to_predictor(self):
        plan = plan_sample("humor", range(100), AcquisitionPolicy(), can_acquire=False)
        assert plan.sample_size == 0
        assert plan.predicted_count == 100

    def test_crowd_calls_saved_matches_batch_arithmetic(self):
        plan = plan_sample(
            "humor", range(100), AcquisitionPolicy(sample_fraction=0.2, min_sample=5)
        )
        assert plan.sample_size == 20
        assert plan.crowd_calls_saved(10) == math.ceil(100 / 10) - math.ceil(20 / 10)

    def test_policy_validation(self):
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(sample_fraction=0.0)
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(min_sample=0)
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(min_confidence=1.5)
        with pytest.raises(ExecutionError):
            AcquisitionPolicy(crowd_cost_per_value=0.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"min_sample": 10, "max_sample": 9}, "max_sample must be >= min_sample"),
            ({"cost_ratio": -0.01}, "cost_ratio must be non-negative"),
            ({"crowd_batch_size": 0}, "crowd_batch_size must be positive"),
            ({"max_enum_batches": 0}, "max_enum_batches must be positive"),
            ({"gold_fraction": 1.5}, r"gold_fraction must be in \[0, 1\]"),
            ({"target_cell_confidence": -0.1}, r"target_cell_confidence must be in \[0, 1\]"),
            ({"min_assignments": 0}, "min_assignments must be at least 1"),
            ({"min_assignments": 5, "max_assignments": 4}, "max_assignments must be >= min"),
        ],
    )
    def test_policy_bounds(self, overrides, message):
        with pytest.raises(ExecutionError, match=message):
            AcquisitionPolicy(**overrides)

    def test_with_overrides_revalidates_and_keeps_the_original(self):
        policy = AcquisitionPolicy(min_assignments=2, max_assignments=4)
        assert policy.with_overrides(max_assignments=2).max_assignments == 2
        with pytest.raises(ExecutionError):
            policy.with_overrides(max_assignments=1)
        assert policy.max_assignments == 4

    def test_boundary_values_are_accepted(self):
        policy = AcquisitionPolicy(
            sample_fraction=1.0,
            min_sample=3,
            max_sample=3,
            min_confidence=1.0,
            cost_ratio=0.0,
            max_cost=0.0,
            completeness_target=0.0,
            gold_fraction=0.0,
            target_cell_confidence=1.0,
            min_assignments=1,
            max_assignments=1,
        )
        assert policy.max_sample == policy.min_sample == 3


# ---------------------------------------------------------------------------
# Planner lowering
# ---------------------------------------------------------------------------


def operator_types(cursor) -> list[type]:
    assert cursor.plan is not None
    return [type(op) for op in cursor.plan.walk()]


class TestLowering:
    def test_predictfill_only_with_predictor(self):
        _catalog, conn = make_movies()
        truth = {i: float(i % 7) for i in range(1, 41)}
        conn.set_value_source(CountingSource(truth))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        cursor = conn.execute("SELECT humor FROM movies")
        assert CrowdFill in operator_types(cursor)
        assert PredictFill not in operator_types(cursor)

    def test_predictfill_only_for_predictable_columns(self):
        _catalog, conn = make_movies()
        conn.set_value_source(CountingSource({}))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        conn.set_predictor(MeanPredictor())
        cursor = conn.execute("SELECT name FROM movies")
        assert CrowdFill not in operator_types(cursor)
        assert PredictFill not in operator_types(cursor)
        cursor = conn.execute("SELECT humor FROM movies")
        assert PredictFill in operator_types(cursor)

    def test_predictfill_skipped_when_sample_covers_everything(self):
        _catalog, conn = make_movies(n=8)
        truth = {i: 1.0 for i in range(1, 9)}
        conn.set_value_source(CountingSource(truth))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        # min_sample 10 > 8 candidates: crowd-only is the cost model's call.
        conn.set_predictor(MeanPredictor())
        cursor = conn.execute("SELECT humor FROM movies")
        assert CrowdFill in operator_types(cursor)
        assert PredictFill not in operator_types(cursor)

    def test_predict_only_session_lowers_predictfill_without_crowdfill(self):
        _catalog, conn = make_movies()
        conn.table("movies").fill_values("humor", {i: 5.0 for i in range(1, 11)})
        conn.set_predictor(MeanPredictor())
        cursor = conn.execute("SELECT humor FROM movies")
        assert CrowdFill not in operator_types(cursor)
        assert PredictFill in operator_types(cursor)
        cursor.fetchall()
        assert conn.missing_count("movies", "humor") == 0

    def test_explain_renders_two_stage_plan(self):
        _catalog, conn = make_movies()
        conn.set_value_source(CountingSource({}))
        conn.set_predictor(MeanPredictor())
        conn.set_policy(
            conn.policy.with_overrides(crowd_batch_size=10, sample_fraction=0.25, min_confidence=0.9)
        )
        text = conn.explain("SELECT humor FROM movies")
        assert "CrowdFill(batch_size=10, sample=10)" in text
        assert "PredictFill(sample_fraction=0.25, min_confidence=0.9)" in text


class TruthPredictor:
    """AttributePredictor double that predicts the truth table exactly."""

    def __init__(self, truth: dict[int, Any]) -> None:
        self.truth = truth

    def fit_predict(self, attribute, train, targets):
        return PredictionBatch(
            values={rowid: self.truth[row["item_id"]] for rowid, row in targets},
            confidences={rowid: 0.9 for rowid, _row in targets},
            model_kind="truth",
            rmse=0.0,
            training_size=len(train),
        )


class TestIndexOnPerceptualColumn:
    """An index never returns a MISSING cell, so an equality probe on a
    perceptual column must not hide the cells CrowdFill/PredictFill fill."""

    TRUTH = {i: float(i % 2) for i in range(1, 41)}

    def run(self, session: str, *, index: bool) -> tuple[list[tuple], int]:
        _catalog, conn = make_movies(n=40)
        source = CountingSource(self.TRUTH)
        if session in ("crowd", "hybrid"):
            conn.set_value_source(source)
            conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        if session in ("hybrid", "predict"):
            conn.set_predictor(TruthPredictor(self.TRUTH))
        if session == "predict":
            conn.table("movies").fill_values("humor", {i: self.TRUTH[i] for i in range(1, 11)})
        if index:
            conn.execute("CREATE INDEX ON movies (humor)")
        rows = conn.execute("SELECT item_id FROM movies WHERE humor = 1").fetchall()
        return sorted(rows), len(source.calls)

    @pytest.mark.parametrize("session", ["crowd", "hybrid", "predict"])
    def test_same_rows_and_dispatches_with_and_without_index(self, session):
        rows, dispatches = self.run(session, index=False)
        assert rows == [(i,) for i in range(1, 41, 2)]
        assert self.run(session, index=True) == (rows, dispatches)


# ---------------------------------------------------------------------------
# Execution: sampling, prediction, provenance, budget, re-acquisition
# ---------------------------------------------------------------------------


class TestHybridExecution:
    def test_hybrid_samples_then_predicts_rest(self):
        _catalog, conn = make_movies(n=40)
        truth = {i: float(i % 5) for i in range(1, 41)}
        source = CountingSource(truth)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        predictor = MeanPredictor()
        conn.set_predictor(predictor)
        conn.set_policy(conn.policy.with_overrides(sample_fraction=0.25))

        conn.execute("SELECT humor FROM movies").fetchall()
        # 40 candidates, fraction 0.25 -> 10 crowd rows -> 1 platform call.
        assert sum(n for _a, n in source.calls) == 10
        assert len(source.calls) == 1
        assert predictor.fit_calls == [("humor", 10, 30)]
        assert conn.missing_count("movies", "humor") == 0

    def test_provenance_and_confidence_written_back(self):
        _catalog, conn = make_movies(n=40)
        truth = {i: float(i % 5) for i in range(1, 41)}
        conn.set_value_source(CountingSource(truth))
        conn.set_predictor(MeanPredictor(confidence=0.7))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10, sample_fraction=0.25))
        conn.execute("SELECT humor FROM movies").fetchall()

        counts = conn.provenance_counts("movies", "humor")
        assert counts == {"crowd": 10, "predicted": 30}
        provenance = conn.value_provenance("movies", "humor")
        crowd = [p for p in provenance.values() if p.source == "crowd"]
        predicted = [p for p in provenance.values() if p.source == "predicted"]
        assert all(p.confidence == 1.0 for p in crowd)
        assert all(p.confidence == pytest.approx(0.7) for p in predicted)

    def test_direct_update_resets_provenance_to_stored(self):
        _catalog, conn = make_movies(n=40)
        conn.set_value_source(CountingSource({i: 1.0 for i in range(1, 41)}))
        conn.set_predictor(MeanPredictor())
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10, sample_fraction=0.25))
        conn.execute("SELECT humor FROM movies").fetchall()
        conn.execute("UPDATE movies SET humor = ? WHERE item_id = ?", (9.5, 1))
        storage = conn.table("movies")
        rowid = next(rowid for rowid, row in storage.scan() if row["item_id"] == 1)
        assert storage.provenance_of("humor", rowid).source == "stored"

    def test_low_confidence_cells_are_reacquired_by_later_queries(self):
        _catalog, conn = make_movies(n=30)
        truth = {i: float(i % 3) for i in range(1, 31)}
        source = CountingSource(truth)
        conn.set_value_source(source)
        conn.set_predictor(MeanPredictor(confidence=0.4))
        conn.set_policy(
            conn.policy.with_overrides(crowd_batch_size=30, sample_fraction=0.34, min_confidence=0.6)
        )
        conn.execute("SELECT humor FROM movies").fetchall()
        first_counts = conn.provenance_counts("movies", "humor")
        # ceil(0.34 * 30) = 11 crowd answers, 19 low-confidence predictions.
        assert first_counts == {"crowd": 11, "predicted": 19}

        # Re-acquisition: full-sample policy turns every low-confidence
        # predicted cell back into a crowd answer on the next query.
        conn.set_predictor(MeanPredictor(confidence=0.4))
        conn.set_policy(conn.policy.with_overrides(sample_fraction=1.0, min_confidence=0.6))
        conn.execute("SELECT humor FROM movies").fetchall()
        assert conn.provenance_counts("movies", "humor") == {"crowd": 30}

    def test_budget_caps_the_crowd_sample(self):
        catalog = Catalog()
        session = SessionContext(
            predictor=MeanPredictor(),
            policy=AcquisitionPolicy(
                max_cost=0.05, sample_fraction=1.0, min_sample=1, crowd_cost_per_value=0.01
            ),
        )
        conn = Connection(catalog, session=session)
        conn.execute("CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO movies (item_id, name) VALUES (?, ?)",
            [(i, f"movie-{i}") for i in range(1, 41)],
        )
        conn.add_perceptual_column("movies", "humor")
        source = CountingSource({i: 2.0 for i in range(1, 41)})
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=50))
        conn.execute("SELECT humor FROM movies").fetchall()
        # $0.05 at $0.01/value affords 5 crowd answers; the rest is predicted.
        assert sum(n for _a, n in source.calls) == 5
        assert conn.missing_count("movies", "humor") == 0

    def test_predictor_never_trains_on_its_own_predictions(self):
        _catalog, conn = make_movies(n=40)
        truth = {i: float(i % 5) for i in range(1, 61)}
        conn.set_value_source(CountingSource(truth))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        predictor = MeanPredictor()
        conn.set_predictor(predictor)
        conn.set_policy(conn.policy.with_overrides(sample_fraction=0.25))
        conn.execute("SELECT humor FROM movies").fetchall()
        assert predictor.fit_calls == [("humor", 10, 30)]

        # New rows arrive; the next query's training set must contain the
        # 10 crowd answers but none of the 30 previously predicted cells.
        conn.executemany(
            "INSERT INTO movies (item_id, name) VALUES (?, ?)",
            [(i, f"movie-{i}") for i in range(41, 61)],
        )
        conn.execute("SELECT humor FROM movies").fetchall()
        # Training set: the 10 crowd answers of query 1 plus the 10-row
        # sample of the new rows — never the 30 predicted cells.
        assert predictor.fit_calls[-1] == ("humor", 20, 10)

    def test_budget_is_apportioned_across_attributes(self):
        catalog = Catalog()
        session = SessionContext(
            predictor=MeanPredictor(),
            policy=AcquisitionPolicy(
                max_cost=0.10, sample_fraction=1.0, min_sample=1, crowd_cost_per_value=0.01
            ),
        )
        conn = Connection(catalog, session=session)
        conn.execute("CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO movies (item_id, name) VALUES (?, ?)",
            [(i, f"movie-{i}") for i in range(1, 41)],
        )
        conn.add_perceptual_column("movies", "humor")
        conn.add_perceptual_column("movies", "suspense")
        source = CountingSource({i: 2.0 for i in range(1, 41)})
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=50))
        conn.execute("SELECT humor, suspense FROM movies").fetchall()
        # $0.10 at $0.01/value affords 10 crowd answers *total*, not per
        # attribute: the plan splits them instead of double-spending.
        assert sum(n for _a, n in source.calls) == 10

    def test_explain_analyze_reports_prediction_stats(self):
        _catalog, conn = make_movies(n=40)
        truth = {i: float(i % 5) for i in range(1, 41)}
        conn.set_value_source(CountingSource(truth))
        conn.set_predictor(MeanPredictor())
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10, sample_fraction=0.25))
        text = conn.explain_analyze("SELECT humor FROM movies")
        assert "CrowdFill(batch_size=10, sample=10)" in text
        assert "batches=1" in text
        assert "predicted=30" in text
        assert "crowd_calls_saved=3" in text
        assert "rmse=humor:0.100" in text

    def test_unpredictable_cells_stay_missing(self):
        _catalog, conn = make_movies(n=20)

        class NoPredictor:
            def fit_predict(self, attribute, train, targets):
                return PredictionBatch(training_size=len(train))

        conn.set_value_source(CountingSource({i: 1.0 for i in range(1, 21)}))
        conn.set_predictor(NoPredictor())
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=5, sample_fraction=0.5))
        conn.execute("SELECT humor FROM movies").fetchall()
        assert conn.missing_count("movies", "humor") == 10
