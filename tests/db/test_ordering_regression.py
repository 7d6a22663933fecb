"""Regression: index-backed ORDER BY and Sort-operator ORDER BY agree.

The engine has two ways to order a result set — the ``Sort`` operator's
``_ComparableValue`` and an ordered secondary index walk that eliminates
the Sort.  Both now rank values through the single
:func:`repro.db.types.sort_rank` total order (numbers, then strings, then
other values, then NULL/MISSING last in *both* directions), so the plan
choice can never change the visible row order.  These tests pin that
equivalence on tables containing MISSING cells, the case where the two
code paths historically could diverge.
"""

from __future__ import annotations

import pytest

from repro.db.connection import Connection
from repro.db.indexes import OrderedIndex
from repro.db.types import sort_rank

_ROWS = (
    (1, 30, "'c'"),
    (2, 10, "'a'"),
    (3, "NULL", "'d'"),
    (4, 20, "'b'"),
    (5, "NULL", "'e'"),
    (6, 15, "NULL"),
)


def _load(with_index: bool) -> Connection:
    db = Connection()
    db.run_statement("CREATE TABLE t (id INTEGER PRIMARY KEY, score INTEGER, tag TEXT)")
    for rid, score, tag in _ROWS:
        db.run_statement(f"INSERT INTO t VALUES ({rid}, {score}, {tag})")
    if with_index:
        db.run_statement("CREATE INDEX ON t (score)")
    return db


def _plan(db: Connection, sql: str) -> str:
    return "\n".join(row[0] for row in db.run_statement(f"EXPLAIN {sql}").rows)


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
class TestIndexBackedOrderMatchesSortOperator:
    def test_plans_differ_but_rows_agree_with_missing_cells(self, direction):
        sql = f"SELECT id, score FROM t ORDER BY score {direction}"
        indexed, plain = _load(with_index=True), _load(with_index=False)
        # The two connections really take the two different code paths.
        assert "IndexRangeScan" in _plan(indexed, sql)
        assert "Sort" in _plan(plain, sql)
        assert "Sort" not in _plan(indexed, sql)
        assert indexed.run_statement(sql).rows == plain.run_statement(sql).rows

    def test_nulls_sort_last_in_both_plans(self, direction):
        sql = f"SELECT id, score FROM t ORDER BY score {direction}"
        for db in (_load(with_index=True), _load(with_index=False)):
            scores = [score for _, score in db.run_statement(sql).rows]
            assert scores[-2:] == [None, None]  # NULLS LAST either direction
            present = scores[:-2]
            assert present == sorted(present, reverse=(direction == "DESC"))

    def test_range_plus_order_agree(self, direction):
        sql = (
            "SELECT id, score FROM t WHERE score >= 12 "
            f"ORDER BY score {direction}"
        )
        indexed, plain = _load(with_index=True), _load(with_index=False)
        assert "IndexRangeScan" in _plan(indexed, sql)
        assert indexed.run_statement(sql).rows == plain.run_statement(sql).rows


class TestMissingPerceptualCellsOrder:
    def test_missing_cells_order_identically_under_both_plans(self):
        def build(with_index: bool) -> Connection:
            db = Connection()
            db.run_statement("CREATE TABLE m (id INTEGER PRIMARY KEY, humor REAL PERCEPTUAL)")
            for rid in range(1, 7):
                db.run_statement(f"INSERT INTO m (id) VALUES ({rid})")
            db.table("m").fill_values(
                "humor", {2: 0.9, 4: 0.1}, provenance="crowd", confidences={2: 1.0, 4: 1.0}
            )
            if with_index:
                db.run_statement("CREATE INDEX ON m (humor)")
            return db

        sql = "SELECT id, humor FROM m ORDER BY humor ASC"
        indexed, plain = build(True), build(False)
        assert "IndexRangeScan" in _plan(indexed, sql)
        assert "Sort" in _plan(plain, sql)
        rows_indexed = indexed.run_statement(sql).rows
        rows_plain = plain.run_statement(sql).rows
        assert rows_indexed == rows_plain
        # Known values first, the four MISSING cells after, rowid-ordered.
        assert [row[0] for row in rows_indexed][:2] == [4, 2]
        assert [row[0] for row in rows_indexed][2:] == [1, 3, 5, 6]



_NAN = float("nan")
_NAN_VALUES = (3.0, _NAN, 1.0, float("inf"), 2.0, _NAN, 0.5, None, float("-inf"), 4.0)


def _nan_table(with_index: bool) -> Connection:
    db = Connection()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
    db.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(_NAN_VALUES, 1)))
    if with_index:
        db.execute("CREATE INDEX iv ON t (v)")
    return db


def _comparable(rows: list[tuple]) -> list[tuple]:
    """Rows with NaN spelled ``"nan"`` (NaN is unequal even to itself)."""
    return [tuple("nan" if value != value else value for value in row) for row in rows]


def _by_rule(rows: list[tuple], descending: bool) -> list[tuple]:
    """The ORDER BY rule over a full list: every number, then every NaN,
    with NULLs last in both directions and ties in rowid order."""

    def key(row: tuple) -> tuple:
        return (1, 0.0) if row[1] != row[1] else (0, row[1])

    known = sorted((row for row in rows if row[1] is not None), key=key, reverse=descending)
    return known + [row for row in rows if row[1] is None]


def _index_is_consistent(db: Connection) -> bool:
    """The index holds exactly one entry per row, under the row's value."""
    storage = db.table("t")
    rebuilt = OrderedIndex("v")
    rebuilt.build((rowid, row["v"]) for rowid, row in storage.scan())
    return list(storage.index_on("v").ordered_rowids()) == list(rebuilt.ordered_rowids())


class TestNaNOrdering:
    @pytest.mark.parametrize("with_index", [True, False])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    @pytest.mark.parametrize("limit", [None, 1, 3, 8])
    def test_order_and_limit_follow_the_rule(self, with_index, direction, limit):
        db = _nan_table(with_index)
        sql = f"SELECT id, v FROM t ORDER BY v {direction}"
        if limit is not None:
            sql += f" LIMIT {limit}"
        rows = db.execute(sql).fetchall()
        expected = _by_rule(list(enumerate(_NAN_VALUES, 1)), direction == "DESC")
        assert _comparable(rows) == _comparable(expected[:limit])

    def test_nan_ranks_after_infinity_and_before_text(self):
        assert sort_rank(float("inf")) < sort_rank(_NAN) < sort_rank("")
        assert sort_rank(_NAN) == sort_rank(float("-nan"))

    def test_writes_to_nan_cells_keep_the_index_consistent(self):
        indexed, plain = _nan_table(True), _nan_table(False)
        for db in (indexed, plain):
            db.execute("UPDATE t SET v = 9.0 WHERE id = 2")
            db.execute("DELETE FROM t WHERE id = 6")
            db.execute("INSERT INTO t VALUES (11, ?)", (_NAN,))
            db.execute("UPDATE t SET v = ? WHERE id = 1", (_NAN,))
        assert _index_is_consistent(indexed)
        assert len(indexed.table("t").index_on("v")) == 9
        for direction in ("ASC", "DESC"):
            sql = f"SELECT id, v FROM t ORDER BY v {direction}"
            assert "Sort" not in _plan(indexed, sql)
            assert "Sort" in _plan(plain, sql)
            rows = indexed.execute(sql).fetchall()
            assert _comparable(rows) == _comparable(plain.execute(sql).fetchall())
            everything = plain.execute("SELECT id, v FROM t ORDER BY id").fetchall()
            assert _comparable(rows) == _comparable(_by_rule(everything, direction == "DESC"))
