"""Tests for the cost-based access-path choice and the stats PRAGMAs.

The planner picks SeqScan vs IndexRangeScan vs ordered index walks from
per-table statistics at lower() time (docs/storage.md documents the cost
model); these tests pin the decision boundaries, the EXPLAIN/EXPLAIN
ANALYZE surfaces and the PRAGMA plumbing around it.
"""

from __future__ import annotations

import pytest

from repro.db.connection import Connection, connect
from repro.errors import ExecutionError


def _make(n_rows: int, *, index: bool = True) -> Connection:
    db = Connection()
    db.run_statement("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.executemany(
        "INSERT INTO t (id, v) VALUES (?, ?)",
        [(i, (i * 7) % n_rows) for i in range(1, n_rows + 1)],
    )
    if index:
        db.run_statement("CREATE INDEX ON t (v)")
    return db


def _plan(db: Connection, sql: str) -> str:
    return "\n".join(row[0] for row in db.run_statement(f"EXPLAIN {sql}").rows)


class TestAccessPathChoice:
    def test_narrow_range_on_large_table_uses_index(self):
        db = _make(2000)
        plan = _plan(db, "SELECT id FROM t WHERE v BETWEEN 5 AND 10")
        assert "IndexRangeScan" in plan and "SeqScan" not in plan
        assert "Filter" in plan  # residual filter is always kept

    def test_tiny_table_keeps_seq_scan(self):
        db = _make(3)
        # N=3: log2(4) + est*2 >= 3, the index cannot pay for itself.
        assert "SeqScan" in _plan(db, "SELECT id FROM t WHERE v >= 1")

    def test_unindexed_column_keeps_seq_scan(self):
        db = _make(2000, index=False)
        assert "SeqScan" in _plan(db, "SELECT id FROM t WHERE v BETWEEN 5 AND 10")

    def test_equality_still_uses_index_lookup(self):
        db = _make(2000)
        plan = _plan(db, "SELECT id FROM t WHERE v = 5")
        assert "IndexLookup" in plan and "IndexRangeScan" not in plan

    def test_null_bound_rejects_the_index_path(self):
        db = _make(2000)
        # v < NULL is unknown-for-all; the range candidate must be dropped,
        # not treated as an open bound.
        plan = _plan(db, "SELECT id FROM t WHERE v < NULL")
        assert "SeqScan" in plan
        assert db.run_statement("SELECT id FROM t WHERE v < NULL").rows == []

    def test_ascending_order_by_composes_with_range(self):
        db = _make(2000)
        sql = "SELECT id, v FROM t WHERE v >= 1990 ORDER BY v"
        plan = _plan(db, sql)
        assert "IndexRangeScan" in plan and "(ordered)" in plan
        assert "Sort" not in plan
        values = [v for _, v in db.run_statement(sql).rows]
        assert values == sorted(values)

    def test_descending_order_with_bounds_keeps_sort(self):
        db = _make(2000)
        sql = "SELECT id, v FROM t WHERE v >= 1990 ORDER BY v DESC"
        plan = _plan(db, sql)
        assert "IndexRangeScan" in plan and "Sort" in plan
        values = [v for _, v in db.run_statement(sql).rows]
        assert values == sorted(values, reverse=True)

    def test_bare_descending_order_walks_the_index_backwards(self):
        db = _make(2000)
        sql = "SELECT id, v FROM t ORDER BY v DESC LIMIT 5"
        plan = _plan(db, sql)
        assert "IndexRangeScan" in plan and "(ordered desc)" in plan
        assert "Sort" not in plan

    def test_alias_shadowing_order_column_keeps_sort(self):
        db = _make(2000)
        # Output alias `v` is a different expression: index order on t.v
        # must NOT be used for ORDER BY v (which binds to the alias).
        plan = _plan(db, "SELECT id, v * -1 AS v FROM t ORDER BY v")
        assert "Sort" in plan

    def test_aggregate_query_keeps_sort(self):
        db = _make(2000)
        plan = _plan(db, "SELECT v, count(*) AS n FROM t GROUP BY v ORDER BY v")
        assert "Sort" in plan


class TestExplainAnalyzeEstimates:
    def test_estimates_reported_next_to_actuals(self):
        db = _make(2000)
        report = db.explain_analyze("SELECT id FROM t WHERE v BETWEEN 5 AND 10")
        assert "IndexRangeScan" in report
        assert "est=" in report and "rows=" in report

    def test_seq_scan_estimates_full_table(self):
        db = _make(100, index=False)
        report = db.explain_analyze("SELECT id FROM t")
        assert "est=100" in report


class TestStatsPragmas:
    def test_pragma_analyze_builds_histograms(self):
        db = _make(200)
        result = db.run_statement("PRAGMA analyze")
        assert result.columns == ["analyzed_tables"]
        assert result.rows == [(1,)]
        rows = {
            row[0]: row
            for row in db.run_statement("PRAGMA table_stats = 't'").rows
        }
        assert rows["v"][5] > 0  # histogram_buckets populated by ANALYZE

    def test_pragma_table_stats_requires_a_name(self):
        db = _make(10)
        with pytest.raises(ExecutionError):
            db.run_statement("PRAGMA table_stats")

    def test_pragma_analyze_single_table(self):
        db = _make(10)
        assert db.run_statement("PRAGMA analyze = 't'").rows == [(1,)]


class TestBufferPoolPragmas:
    def test_read_resize_and_stats(self, tmp_path):
        db = connect(path=tmp_path / "db", buffer_pool_pages=8)
        try:
            db.run_statement("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            assert db.run_statement("PRAGMA buffer_pool_pages").rows == [(8,)]
            db.run_statement("PRAGMA buffer_pool_pages = 4")
            assert db.run_statement("PRAGMA buffer_pool_pages").rows == [(4,)]
            stats = dict(db.run_statement("PRAGMA buffer_pool_stats").rows)
            assert stats["capacity_pages"] == 4
            assert "evictions" in stats and "pin_violations" in stats
            with pytest.raises(ExecutionError):
                db.run_statement("PRAGMA buffer_pool_pages = 'lots'")
        finally:
            db.close()

    def test_buffer_pool_pragmas_require_durability(self):
        db = Connection()
        with pytest.raises(ExecutionError):
            db.run_statement("PRAGMA buffer_pool_stats")

    def test_buffer_pool_kwarg_requires_path(self):
        with pytest.raises(ValueError):
            connect(buffer_pool_pages=4)
