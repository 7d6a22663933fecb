"""Tests for the physical operator algebra: lowering, joins, CrowdFill, EXPLAIN."""

from __future__ import annotations

import time
from typing import Any, Iterator, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import AcquisitionPolicy, Catalog, Connection, Dispatch, connect
from repro.db.sql.operators import (
    CrowdFill,
    HashJoin,
    IndexRangeScan,
    Limit,
    NestedLoopJoin,
    Operator,
    SeqScan,
    Sort,
)
from repro.db.storage import BATCH_ROWS
from repro.db.types import MISSING, sort_rank
from repro.errors import ExecutionError


class CountingSource:
    """ValueSource that records every batch call and answers a constant."""

    def __init__(self, value: Any = 1.0) -> None:
        self.value = value
        self.calls: list[tuple[str, int]] = []

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: Any,
        tracker: Any,
    ) -> Dispatch:
        self.calls.append((attribute, len(items)))
        return Dispatch({rowid: self.value for rowid, _row in items})


def make_joined_catalog() -> Catalog:
    catalog = Catalog()
    setup = Connection(catalog)
    setup.execute(
        "CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
    )
    setup.execute(
        "INSERT INTO movies VALUES (1, 'Rocky', 1976), (2, 'Psycho', 1960), "
        "(3, 'Airplane!', 1980), (4, 'Vertigo', 1958)"
    )
    setup.execute("CREATE TABLE ratings (movie_id INTEGER, user_id INTEGER, score REAL)")
    setup.execute(
        "INSERT INTO ratings VALUES (1, 100, 5), (1, 101, 4), (2, 100, 5), (9, 103, 1)"
    )
    return catalog


def operators_of(cursor) -> list[type]:
    assert cursor.plan is not None
    return [type(op) for op in cursor.plan.walk()]


class TestJoinLowering:
    def test_qualified_equi_join_uses_hash_join(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert HashJoin in operators_of(cursor)
        assert NestedLoopJoin not in operators_of(cursor)

    def test_reversed_equality_also_uses_hash_join(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON r.movie_id = m.movie_id"
        )
        assert HashJoin in operators_of(cursor)

    def test_non_equi_condition_falls_back_to_nested_loop(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id < r.movie_id"
        )
        assert NestedLoopJoin in operators_of(cursor)
        assert HashJoin not in operators_of(cursor)

    def test_cross_join_uses_nested_loop(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT count(*) FROM movies CROSS JOIN ratings")
        assert NestedLoopJoin in operators_of(cursor)

    def test_hash_joins_can_be_disabled(self):
        conn = Connection(make_joined_catalog(), hash_joins=False)
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert NestedLoopJoin in operators_of(cursor)
        assert HashJoin not in operators_of(cursor)

    def test_equi_join_over_crowd_column_uses_hash_join(self):
        conn = Connection(make_joined_catalog())
        conn.add_perceptual_column("movies", "is_comedy")
        source = CountingSource(True)
        conn.set_value_source(source)
        cursor = conn.execute(
            "SELECT m.name, m.is_comedy FROM movies m "
            "JOIN ratings r ON m.movie_id = r.movie_id"
        )
        rows = cursor.fetchall()
        assert sorted(rows) == [("Psycho", True), ("Rocky", True), ("Rocky", True)]
        assert CrowdFill in operators_of(cursor)
        assert HashJoin in operators_of(cursor)
        assert NestedLoopJoin not in operators_of(cursor)
        assert source.calls == [("is_comedy", 4)]

    def test_point_lookup_uses_point_index_range_scan(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT name FROM movies WHERE movie_id = ?", (2,))
        assert cursor.fetchall() == [("Psycho",)]
        assert IndexRangeScan in operators_of(cursor)
        assert "IndexLookup movies AS movies ON movie_id" in cursor.explain()


class TestJoinEquivalence:
    """The hash path must produce exactly the nested-loop results."""

    QUERIES = [
        "SELECT m.name, r.score FROM movies m JOIN ratings r "
        "ON m.movie_id = r.movie_id ORDER BY m.movie_id, r.user_id",
        "SELECT m.name, r.score FROM movies m LEFT JOIN ratings r "
        "ON m.movie_id = r.movie_id ORDER BY m.movie_id, r.user_id",
        "SELECT r.movie_id, count(*) AS n FROM ratings r JOIN movies m "
        "ON r.movie_id = m.movie_id GROUP BY r.movie_id ORDER BY n DESC, r.movie_id",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_hash_and_nested_loop_agree(self, sql):
        catalog = make_joined_catalog()
        hash_rows = Connection(catalog).execute(sql).fetchall()
        nl_rows = Connection(catalog, hash_joins=False).execute(sql).fetchall()
        assert hash_rows == nl_rows

    def test_null_join_keys_never_match(self):
        catalog = Catalog()
        setup = Connection(catalog)
        setup.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER)")
        setup.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER)")
        setup.execute("INSERT INTO a VALUES (1, 10), (2, NULL)")
        setup.execute("INSERT INTO b VALUES (1, 10), (2, NULL)")
        sql = "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k"
        for connection in (Connection(catalog), Connection(catalog, hash_joins=False)):
            assert connection.execute(sql).fetchall() == [(1, 1)]

    def test_left_join_null_row_for_unmatched(self):
        catalog = make_joined_catalog()
        sql = (
            "SELECT m.name, r.score FROM movies m LEFT JOIN ratings r "
            "ON m.movie_id = r.movie_id WHERE m.movie_id = 4"
        )
        for connection in (Connection(catalog), Connection(catalog, hash_joins=False)):
            assert connection.execute(sql).fetchall() == [("Vertigo", None)]


class TestPhysicalExplain:
    def test_join_filter_limit_tree(self):
        conn = Connection(make_joined_catalog())
        text = conn.explain(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id "
            "WHERE m.year > 1960 LIMIT 2"
        )
        lines = text.splitlines()
        assert "SeqScan" in lines[0]
        assert any("HashJoin" in line for line in lines)
        assert any("Filter" in line for line in lines)
        assert any("Project" in line for line in lines)
        assert any("Limit 2" in line for line in lines)
        # the build side of the join is indented beneath the join operator
        join_index = next(i for i, line in enumerate(lines) if "HashJoin" in line)
        assert lines[join_index + 1].startswith("  ")

    def test_explain_statement_renders_physical_tree(self):
        conn = Connection(make_joined_catalog())
        result = conn.execute("EXPLAIN SELECT name FROM movies WHERE year > 1960").result
        text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan movies" in text
        assert "Filter" in text
        assert "Project name" in text

    def test_explain_analyze_reports_row_counts(self):
        conn = Connection(make_joined_catalog())
        text = conn.explain_analyze("SELECT name FROM movies WHERE year > 1960")
        assert "rows=" in text
        filter_line = next(line for line in text.splitlines() if "Filter" in line)
        assert "rows=2" in filter_line  # Rocky (1976) and Airplane! (1980)

    def test_crowd_fill_appears_with_value_source(self):
        conn = Connection(make_joined_catalog())
        conn.add_perceptual_column("movies", "is_funny")
        conn.set_value_source(CountingSource(True))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=7))
        text = conn.explain(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id "
            "WHERE m.is_funny = true LIMIT 2"
        )
        assert "CrowdFill(batch_size=7) movies.is_funny" in text
        assert "HashJoin" in text
        assert "Limit 2" in text

    def test_crowd_fill_absent_without_source(self):
        conn = Connection(make_joined_catalog())
        conn.add_perceptual_column("movies", "is_funny")
        assert "CrowdFill" not in conn.explain(
            "SELECT name FROM movies WHERE is_funny = true"
        )


class TestCrowdFillBatching:
    def _connection(self, n_rows: int) -> Connection:
        conn = connect()
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY)")
        conn.executemany(
            "INSERT INTO items (item_id) VALUES (?)", [(i,) for i in range(1, n_rows + 1)]
        )
        conn.add_perceptual_column("items", "appeal")
        return conn

    def test_n_missing_rows_produce_ceil_n_over_b_calls(self):
        conn = self._connection(10)
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=3))
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 10
        # 10 missing rows, batch_size 3 -> ceil(10/3) = 4 coalesced calls
        assert [size for _attr, size in source.calls] == [3, 3, 3, 1]

    def test_batch_of_exact_multiple(self):
        conn = self._connection(6)
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=3))
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert [size for _attr, size in source.calls] == [3, 3]

    def test_write_back_persists_values(self):
        conn = self._connection(8)
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=4))
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert len(source.calls) == 2
        assert len(conn.table("items").missing_rowids("appeal")) == 0
        # everything persisted: the second query needs no crowd work
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert len(source.calls) == 2

    def test_without_write_back_values_stay_missing(self):
        conn = self._connection(4)
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=4, crowd_write_back=False))
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 4
        assert len(conn.table("items").missing_rowids("appeal")) == 4
        # The cells stay MISSING in storage, but the repeat query is served
        # from the runtime's cross-query AnswerCache: same answer, zero
        # additional platform calls.
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 4
        assert len(source.calls) == 1
        assert conn.acquisition_runtime().cache.stats().hits == 4

    def test_partial_answers_leave_rest_missing(self):
        class PartialSource:
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                return Dispatch({rowid: 1.0 for rowid, _row in items if rowid % 2 == 0})

        conn = self._connection(6)
        conn.set_value_source(PartialSource())
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        (count,) = conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert count == 3
        assert len(conn.table("items").missing_rowids("appeal")) == 3

    def test_crowd_fill_stats_in_explain_analyze(self):
        conn = self._connection(10)
        conn.set_value_source(CountingSource(0.9))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=5))
        text = conn.explain_analyze("SELECT count(*) FROM items WHERE appeal > 0.5")
        crowd_line = next(line for line in text.splitlines() if "CrowdFill" in line)
        assert "batch_size=5" in crowd_line
        assert "batches=2" in crowd_line
        assert "filled=10/10" in crowd_line

    def test_expansion_query_batches_after_column_is_added(self):
        """The full paper loop: unknown column -> expansion -> batched fill."""
        conn = self._connection(9)
        source = CountingSource(True)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=4))

        def handler(table: str, column: str) -> bool:
            conn.add_perceptual_column(table, column)
            return True

        conn.set_expansion_handler(handler)
        (count,) = conn.execute("SELECT count(*) FROM items WHERE cult = ?", (True,)).fetchone()
        assert count == 9
        # 9 missing rows, batch_size 4 -> ceil(9/4) = 3 platform calls
        assert [size for _attr, size in source.calls] == [4, 4, 1]

    def test_invalid_batch_size_rejected_at_configuration_time(self):
        conn = self._connection(2)
        with pytest.raises(ExecutionError):
            conn.set_policy(conn.policy.with_overrides(crowd_batch_size=0))
        with pytest.raises(ExecutionError):
            conn.execute("PRAGMA acquisition_crowd_batch_size = 0")
        assert conn.policy.crowd_batch_size == AcquisitionPolicy().crowd_batch_size

    def test_fully_populated_column_streams_without_buffering(self):
        """Regression: CrowdFill must not hold up rows that need no filling."""
        conn = self._connection(3 * BATCH_ROWS)
        conn.table("items").fill_values(
            "appeal", {rowid: 0.9 for rowid in conn.table("items").rowids()}
        )
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        cursor = conn.execute("SELECT item_id FROM items WHERE appeal > 0.5 LIMIT 5")
        assert len(cursor.fetchall()) == 5
        scan = next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))
        # LIMIT still terminates the scan early: after its first batch.
        assert scan.rows_scanned == BATCH_ROWS
        assert source.calls == []  # nothing was missing, nothing dispatched

    def test_crowd_fill_targets_only_referenced_tables(self):
        """Regression: a same-named perceptual column on a joined table the
        query never reads must not receive crowd dispatches."""
        conn = connect()
        conn.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        conn.execute("CREATE TABLE reviews (review_id INTEGER PRIMARY KEY, movie_id INTEGER)")
        conn.execute("INSERT INTO movies VALUES (1, 'Rocky'), (2, 'Psycho')")
        conn.execute("INSERT INTO reviews VALUES (10, 1), (11, 2)")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.add_perceptual_column("reviews", "is_comedy")
        source = CountingSource(True)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
        conn.execute(
            "SELECT m.name FROM movies m JOIN reviews r ON m.movie_id = r.movie_id "
            "WHERE m.is_comedy = ?",
            (True,),
        ).fetchall()
        assert source.calls == [("is_comedy", 2)]  # one batch, movies only
        assert len(conn.table("reviews").missing_rowids("is_comedy")) == 2

    def test_budget_exhausted_session_stops_dispatching(self):
        from repro.db import SessionContext

        conn = self._connection(6)
        conn.set_policy(conn.policy.with_overrides(max_cost=1.0))
        conn.session.cost_spent = 1.0
        assert isinstance(conn.session, SessionContext)
        source = CountingSource(0.9)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=2))
        (count,) = conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert count == 0  # nothing dispatched, cells stay MISSING
        assert source.calls == []

    def test_cost_aware_source_charges_session(self):
        class CostedSource(CountingSource):
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                dispatch = super().request_values_with_quality(
                    attribute, items, policy=policy, tracker=tracker
                )
                return Dispatch(dispatch.values, cost=0.25)

        conn = self._connection(8)
        conn.set_value_source(CostedSource(0.9))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=4))
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert conn.session.cost_spent == pytest.approx(0.5)  # two batches


class TestSortKeys:
    """Sort keys are ``(unknown, sort_rank(value))`` tuples, precomputed per row."""

    def test_numeric_ranks_are_equal_across_types(self):
        assert sort_rank(1) == sort_rank(1.0)
        assert hash(sort_rank(1)) == hash(sort_rank(1.0))
        assert sort_rank(True) == sort_rank(1)
        assert hash(sort_rank(True)) == hash(sort_rank(1))

    def test_unknowns_share_rank_and_hash(self):
        assert sort_rank(None) == sort_rank(MISSING)
        assert hash(sort_rank(None)) == hash(sort_rank(MISSING))

    def test_usable_in_sets(self):
        assert len({sort_rank(1), sort_rank(1.0), sort_rank("a")}) == 2

    def test_nulls_last_regression_both_directions(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(1, 10), (2, None), (3, 5), (4, None), (5, 20)],
        )
        ascending = [r[0] for r in conn.execute("SELECT id FROM t ORDER BY v").fetchall()]
        descending = [r[0] for r in conn.execute("SELECT id FROM t ORDER BY v DESC").fetchall()]
        # NULLS LAST regardless of direction; known keys properly ordered
        assert ascending[:3] == [3, 1, 5]
        assert set(ascending[3:]) == {2, 4}
        assert descending[:3] == [5, 1, 3]
        assert set(descending[3:]) == {2, 4}


class TestScanCounters:
    def test_seq_scan_counts_pulled_rows(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT name FROM movies")
        cursor.fetchall()
        scan = next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))
        assert scan.rows_scanned == 4

    def test_crowd_fill_operator_exposed_in_plan(self):
        conn = connect()
        conn.execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        conn.add_perceptual_column("t", "appeal")
        conn.set_value_source(CountingSource(0.5))
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=2))
        cursor = conn.execute("SELECT appeal FROM t")
        cursor.fetchall()
        fill = next(op for op in cursor.plan.walk() if isinstance(op, CrowdFill))
        assert fill.batches_dispatched == 1
        assert fill.values_filled == 2


class TestCompileOnce:
    """Expressions compile at lowering, once per statement, never per row."""

    QUERY = (
        "SELECT grp, count(*), sum(v) + 1 AS total FROM t "
        "WHERE v >= 0 AND name LIKE 'n%' GROUP BY grp HAVING count(*) > 0 "
        "ORDER BY total DESC, grp"
    )

    @staticmethod
    def _compiles_for(rows: int, monkeypatch) -> int:
        import repro.db.sql.executor as executor_module
        import repro.db.sql.expressions as expressions_module
        import repro.db.sql.operators as operators_module

        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER, name TEXT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [(i, i // 10, i % 7, f"n{i}") for i in range(rows)],
        )
        calls = 0
        original = expressions_module.compile_expression

        def counting(expr, *args):
            nonlocal calls
            calls += 1
            return original(expr, *args)

        for module in (expressions_module, operators_module, executor_module):
            monkeypatch.setattr(module, "compile_expression", counting)
        result = conn.execute(TestCompileOnce.QUERY).fetchall()
        conn.execute("UPDATE t SET v = v + 1 WHERE grp < 3")
        monkeypatch.undo()
        assert len(result) == rows // 10
        return calls

    def test_compile_count_is_independent_of_row_count(self, monkeypatch):
        small = self._compiles_for(500, monkeypatch)
        large = self._compiles_for(5000, monkeypatch)
        assert small > 0
        assert small == large


class TestMixedTypeOrdering:
    """Multi-key mixed ASC/DESC ORDER BY over NULL, MISSING, bool, int,
    float and text: the output order is pinned to the values captured
    before sort keys were precomputed."""

    MIXED = (
        "CASE WHEN id % 7 = 0 THEN NULL WHEN id % 7 = 1 THEN p "
        "WHEN id % 7 = 2 THEN id % 2 = 0 WHEN id % 7 = 3 THEN id % 4 "
        "WHEN id % 7 = 4 THEN id * 0.25 ELSE name END"
    )

    @staticmethod
    def _connection() -> Connection:
        conn = connect()
        conn.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT, p REAL PERCEPTUAL)"
        )
        for i in range(1, 29):
            name = f"n{(i * 7) % 11}"
            if i % 5 == 0:  # p left MISSING
                conn.execute("INSERT INTO t (id, grp, name) VALUES (?, ?, ?)", (i, i % 3, name))
            else:
                p = i * 0.25 if i % 3 else None
                conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, i % 3, name, p))
        return conn

    @pytest.mark.parametrize(
        "order, expected",
        [
            (
                "grp DESC, mixed, id DESC",
                [23, 17, 2, 8, 11, 5, 26, 20, 14, 1, 16, 4, 10, 22,
                 25, 19, 13, 28, 7, 24, 9, 3, 18, 27, 12, 6, 21, 15],
            ),
            (
                "mixed DESC, grp, id",
                [6, 20, 12, 26, 13, 27, 5, 19, 25, 22, 18, 3, 11, 10,
                 8, 4, 16, 2, 17, 1, 9, 24, 23, 15, 21, 7, 28, 14],
            ),
            (
                "p DESC, grp DESC, id",
                [28, 26, 23, 22, 19, 17, 16, 14, 13, 11, 8, 7, 4, 2,
                 1, 5, 20, 10, 25, 3, 6, 9, 12, 15, 18, 21, 24, 27],
            ),
        ],
    )
    def test_order_is_pinned(self, order, expected):
        conn = self._connection()
        sql = f"SELECT id, grp, {self.MIXED} AS mixed, p FROM t ORDER BY {order}"
        assert [row[0] for row in conn.execute(sql).fetchall()] == expected


@st.composite
def _sort_rows(draw):
    """Rows ``(id, a, b, p)`` over tiny domains: many ties, NULLs, MISSING."""
    n = draw(st.integers(0, 25))
    small = st.one_of(st.none(), st.integers(0, 3))
    perceptual = st.one_of(st.just(MISSING), st.none(), st.floats(0, 2).map(round))
    return [(i, draw(small), draw(small), draw(perceptual)) for i in range(1, n + 1)]


_SORT_SHAPES = {
    "plain": ("SELECT id, a, b, p FROM t", ("a", "b", "p", "a + b", "id % 3")),
    "aggregate": (
        "SELECT a, count(*) AS n, sum(b) AS s FROM t GROUP BY a",
        ("a", "n", "s", "count(*)", "max(id) % 2"),
    ),
}


class TestTopNSort:
    """A Sort directly under a Limit keeps only limit + offset rows, and its
    output is exactly the full sort's ``[offset:offset + limit]``."""

    @staticmethod
    def _connection(rows) -> Connection:
        conn = connect()
        conn.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, p REAL PERCEPTUAL)"
        )
        for row in rows:
            if row[3] is MISSING:  # p left MISSING
                conn.execute("INSERT INTO t (id, a, b) VALUES (?, ?, ?)", row[:3])
            else:
                conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        return conn

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        _sort_rows(),
        st.sampled_from(sorted(_SORT_SHAPES)),
        st.data(),
        st.integers(0, 12),
        st.integers(0, 30),
    )
    def test_top_n_equals_slice_of_full_sort(self, rows, shape, data, limit, offset):
        select, key_choices = _SORT_SHAPES[shape]
        keys = data.draw(
            st.lists(st.tuples(st.sampled_from(key_choices), st.booleans()), min_size=1, max_size=3)
        )
        order = ", ".join(f"{key}{'' if ascending else ' DESC'}" for key, ascending in keys)
        conn = self._connection(rows)
        full_cursor = conn.execute(f"{select} ORDER BY {order}")
        full = full_cursor.fetchall()
        top_cursor = conn.execute(f"{select} ORDER BY {order} LIMIT {limit} OFFSET {offset}")
        top = top_cursor.fetchall()
        assert top == full[offset : offset + limit]
        full_sort = next(op for op in full_cursor.plan.walk() if isinstance(op, Sort))
        assert full_sort.keep is None
        root = top_cursor.plan
        assert isinstance(root, Limit) and isinstance(root.children[0], Sort)
        assert root.children[0].keep == limit + offset

    def test_offset_past_the_end_is_empty(self):
        conn = self._connection([(i, i % 3, None, None) for i in range(1, 8)])
        cursor = conn.execute("SELECT id FROM t ORDER BY a DESC, id LIMIT 4 OFFSET 7")
        assert cursor.fetchall() == []
        rows = conn.execute("SELECT id FROM t ORDER BY a DESC, id LIMIT 4 OFFSET 5").fetchall()
        assert rows == [(3,), (6,)]

    def test_limit_zero_pulls_nothing(self):
        conn = self._connection([(i, i, i, i) for i in range(1, 5)])
        cursor = conn.execute("SELECT id FROM t ORDER BY a LIMIT 0")
        assert cursor.fetchall() == []
        sort = next(op for op in cursor.plan.walk() if isinstance(op, Sort))
        assert sort.keep == 0 and sort.rows_out == 0

    def test_explain_is_unchanged_by_top_n(self):
        conn = self._connection([(1, 1, 1, 1)])
        plan = conn.explain("SELECT id FROM t ORDER BY a DESC LIMIT 3 OFFSET 1")
        assert plan.splitlines()[-2:] == ["Sort a DESC", "Limit 3 Offset 1"]


class _SlowCleanUp(Operator):
    """A source of ten rows whose clean-up takes 20 ms."""

    label = "SlowCleanUp"

    def _produce(self) -> Iterator[list[Any]]:
        try:
            yield list(range(10))
        finally:
            time.sleep(0.02)


class TestCleanUpTiming:
    def test_early_stop_bills_the_clean_up_to_the_child(self):
        child = _SlowCleanUp()
        limit = Limit(child, 1)
        assert list(limit) == [0]
        assert child.wall_seconds >= 0.02
        # The Limit's exclusive time is only its own pulls.
        assert limit.wall_seconds - child.wall_seconds < 0.02


class TestBatchPull:
    """Operators pass row batches: one timed pull per batch, not per row."""

    ROWS = 2000

    def test_timing_calls_track_batches_not_rows(self, tmp_path, monkeypatch):
        import sys
        from collections import Counter

        import repro.db.sql.operators as operators_module

        conn = connect(path=tmp_path / "db", synchronous="off", page_size=512)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, i % 10) for i in range(1, self.ROWS + 1)]
        )
        pages = sum(1 for _batch in conn.table("t").snapshot().batches())
        assert 10 <= pages <= self.ROWS // 10  # many pages, many rows on each

        calls: Counter[str] = Counter()
        clock = operators_module.perf_counter

        def counting() -> float:
            calls[type(sys._getframe(1).f_locals["self"]).__name__] += 1
            return clock()

        monkeypatch.setattr(operators_module, "perf_counter", counting)
        cursor = conn.execute("SELECT v, count(*) FROM t WHERE v < 5 GROUP BY v")
        assert sorted(cursor.fetchall()) == [(v, self.ROWS // 10) for v in range(5)]
        monkeypatch.undo()
        conn.close()

        scan = next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))
        assert scan.rows_scanned == self.ROWS
        # One clock read starts the pull loop, two bracket each batch and
        # one closes the loop.
        assert calls["SeqScan"] == 2 * pages + 2
        assert calls["Filter"] == 2 * pages + 2  # every page keeps some rows
        assert calls["Aggregate"] == 2 * 1 + 2
        assert set(calls) == {"SeqScan", "Bind", "Filter", "Aggregate"}
        assert calls["Bind"] == 2 * pages + 2

    def test_paged_fetchmany_pays_only_for_the_rows_it_fetches(self, tmp_path):
        class PerCellSource(CountingSource):
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                dispatch = super().request_values_with_quality(
                    attribute, items, policy=policy, tracker=tracker
                )
                return Dispatch(dispatch.values, cost=0.01 * len(items))

        batch = 5
        conn = connect(path=tmp_path / "db", synchronous="off")
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY)")
        conn.executemany("INSERT INTO items (item_id) VALUES (?)", [(i,) for i in range(1, 301)])
        source = PerCellSource(0.5)
        conn.set_value_source(source)
        # Without write-back the answered rows keep their places on the page.
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=batch, crowd_write_back=False))
        for k in (1, 3, 7, 12):
            column = f"appeal_{k}"  # a fresh, all-MISSING column per cursor
            conn.add_perceptual_column("items", column)
            first_page = next(conn.table("items").snapshot().batches())
            assert len(first_page) > 3 * batch  # one page holds several flushes
            calls, spent = len(source.calls), conn.session.cost_spent
            cursor = conn.cursor().execute(f"SELECT item_id, {column} FROM items")
            assert cursor.fetchmany(k) == [(i, 0.5) for i in range(1, k + 1)]
            assert source.calls[calls:] == [(column, batch)] * -(-k // batch)
            assert conn.session.cost_spent - spent == pytest.approx(0.01 * batch * -(-k // batch))
            cursor.close()
        conn.close()


    def test_rows_ahead_of_a_crowd_batch_go_out_before_it_dispatches(self):
        conn = connect()
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY)")
        conn.executemany(
            "INSERT INTO items (item_id) VALUES (?)", [(i,) for i in range(1, BATCH_ROWS + 1)]
        )
        conn.add_perceptual_column("items", "appeal")
        conn.table("items").fill_values("appeal", {1: 0.1, 2: 0.2, 3: 0.3})
        source = CountingSource(0.5)
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=5))
        cursor = conn.execute("SELECT item_id, appeal FROM items")
        assert cursor.fetchmany(3) == [(1, 0.1), (2, 0.2), (3, 0.3)]
        assert source.calls == []  # the scan batch's missing rows wait
        assert cursor.fetchone() == (4, 0.5)
        assert source.calls == [("appeal", 5)]


class TestIndexRangeScanDecoding:
    """An index walk captures its rows at open() and decodes them as pulled."""

    ROWS = 2000

    @pytest.fixture
    def accounts(self, tmp_path):
        conn = connect(path=tmp_path / "db", synchronous="off")
        conn.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, score INTEGER)")
        conn.executemany("INSERT INTO accounts VALUES (?, ?)", accounts_rows(self.ROWS))
        conn.execute("CREATE INDEX ON accounts (score)")
        yield conn
        conn.close()

    @staticmethod
    def _count_decodes(monkeypatch) -> list[int]:
        """Count every stored row the paged store decodes, one by one or a
        page run at a time (each is one ``json.loads`` in the pager)."""
        import json
        import types

        import repro.db.pager as pager_module

        decoded = [0]

        def loads(text):
            value = json.loads(text)
            decoded[0] += len(value) if isinstance(value, list) else 1
            return value

        monkeypatch.setattr(pager_module, "json", types.SimpleNamespace(loads=loads))
        return decoded

    def test_ordered_walk_under_limit_decodes_one_batch(self, accounts, monkeypatch):
        sql = "SELECT id, score FROM accounts ORDER BY score LIMIT 5"
        assert accounts.explain(sql).splitlines()[0].startswith(
            "IndexRangeScan accounts AS accounts ON score (ordered)"
        )
        decoded = self._count_decodes(monkeypatch)
        cursor = accounts.execute(sql)
        assert decoded[0] == 0  # open() captured the rows without decoding them
        rows = cursor.fetchall()
        by_score = sorted((score, id_) for id_, score in accounts_rows(self.ROWS))
        assert rows == [(id_, score) for score, id_ in by_score[:5]]
        assert decoded[0] <= BATCH_ROWS
        scan = next(op for op in cursor.plan.walk() if isinstance(op, IndexRangeScan))
        assert scan.rows_scanned == BATCH_ROWS

    def test_range_probe_decodes_only_the_batches_it_reads(self, accounts, monkeypatch):
        sql = (
            "SELECT id, score FROM accounts WHERE score >= ? AND score < ? "
            "ORDER BY score LIMIT 20"
        )
        decoded = self._count_decodes(monkeypatch)
        rows = accounts.execute(sql, (100, 100 + 3 * BATCH_ROWS)).fetchall()
        by_score = sorted((score, id_) for id_, score in accounts_rows(self.ROWS))
        assert rows == [(id_, score) for score, id_ in by_score[100:120]]
        assert decoded[0] <= BATCH_ROWS

    def test_rows_deleted_after_open_still_read_their_snapshot(self, accounts):
        cursor = accounts.execute("SELECT id FROM accounts WHERE score >= 0 AND score < 3")
        accounts.execute("DELETE FROM accounts WHERE score < 3")
        assert sorted(cursor.fetchall()) == sorted(
            (id_,) for id_, score in accounts_rows(self.ROWS) if score < 3
        )


def accounts_rows(n: int) -> list[tuple[int, int]]:
    """The ``(id, score)`` rows of :class:`TestIndexRangeScanDecoding`.

    The scores are a permutation of ``0..n-1``, so index order is not heap
    order.
    """
    return [(i, (i * 7919) % n) for i in range(1, n + 1)]
