"""Every entry point runs a statement down the same connection path.

``Cursor.execute``, ``Connection.run_statement``, ``execute_script`` and a
served ``repro.client`` connection must agree on columns, rows, rowcount
and error type for the same statements, including ``EXPLAIN``, the
session-scoped ``PRAGMA acquisition_*`` knobs and the query-driven
expansion retry.  ``executemany`` honours the session too, and
``explain_analyze`` rejects a non-SELECT before anything runs.
"""

from __future__ import annotations

from typing import Any

import pytest

import repro
import repro.client
from repro.db.connection import Connection, SessionContext
from repro.db.schema import AttributeKind, Column
from repro.db.types import MISSING, ColumnType
from repro.errors import ExecutionError
from repro.server import ReproServer, ServerConfig

SETUP = "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, name TEXT)"

#: ``(sql, params)`` run in order on a fresh database by every entry point.
CORPUS: list[tuple[str, tuple[Any, ...]]] = [
    ("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c')", ()),
    ("INSERT INTO t VALUES (?, ?, ?)", (4, 40, "d")),
    ("INSERT INTO t VALUES (?, ?, ?)", (4, 41, "dup")),
    ("UPDATE t SET v = ? WHERE id = ?", (21, 2)),
    ("UPDATE t SET v = v + 1 WHERE id > 2", ()),
    ("DELETE FROM t WHERE id = ?", (1,)),
    ("SELECT id, v, name FROM t ORDER BY id", ()),
    ("SELECT name FROM t WHERE v >= ? ORDER BY name", (25,)),
    ("SELECT count(*), sum(v) FROM t", ()),
    ("SELECT * FROM no_such_table", ()),
    ("EXPLAIN SELECT name FROM t WHERE id = 2", ()),
    ("EXPLAIN SELECT name FROM t WHERE v > ?", (5,)),
    ("CREATE INDEX ON t (v)", ()),
    ("EXPLAIN SELECT name FROM t WHERE v = 31", ()),
    ("PRAGMA acquisition_max_cost = 2.5", ()),
    ("PRAGMA acquisition_max_cost", ()),
    ("PRAGMA acquisition_crowd_batch_size = 7", ()),
    ("PRAGMA acquisition_crowd_batch_size", ()),
    ("PRAGMA acquisition_no_such_knob", ()),
    ("PRAGMA analyze", ()),
    ("PRAGMA table_stats = 't'", ()),
    ("SELECT id FROM t WHERE mood IS MISSING ORDER BY id", ()),
    ("SELECT count(mood) FROM t", ()),
    ("ALTER TABLE t ADD COLUMN extra INTEGER DEFAULT 5", ()),
    ("SELECT sum(extra) FROM t WHERE id <> ?", (3,)),
]

PARAMETER_FREE = [(sql, params) for sql, params in CORPUS if not params]


def expansion_handler(catalog):
    """Add any unknown column as a MISSING-filled perceptual REAL column."""

    def handler(table: str, column: str) -> bool:
        with catalog.lock:
            catalog.table(table).add_column(
                Column(
                    name=column,
                    type=ColumnType.REAL,
                    kind=AttributeKind.PERCEPTUAL,
                    nullable=True,
                    default=MISSING,
                ),
                fill_value=MISSING,
            )
        return True

    return handler


def local_connection() -> Connection:
    conn = repro.connect()
    conn.set_expansion_handler(expansion_handler(conn.catalog))
    conn.execute(SETUP)
    return conn


def outcome_of(run) -> tuple[Any, ...]:
    """``(columns, rows, rowcount, error type)`` of one execution."""
    try:
        columns, rows, rowcount = run()
    except Exception as error:  # the error *type* is part of the contract
        return ((), (), None, type(error))
    return (tuple(columns), tuple(tuple(row) for row in rows), rowcount, None)


def via_execute(corpus):
    conn = local_connection()

    def run(sql, params):
        cursor = conn.execute(sql, params)
        rows = cursor.fetchall()
        columns = [d[0] for d in cursor.description or ()]
        return columns, rows, cursor.rowcount

    return [outcome_of(lambda: run(sql, params)) for sql, params in corpus]


def via_run_statement(corpus):
    conn = local_connection()

    def run(sql, params):
        result = conn.run_statement(sql, params)
        return result.columns, result.rows, result.rowcount

    return [outcome_of(lambda: run(sql, params)) for sql, params in corpus]


def via_script(corpus):
    conn = local_connection()

    def run(sql):
        (result,) = conn.execute_script(sql)
        return result.columns, result.rows, result.rowcount

    return [outcome_of(lambda: run(sql)) for sql, _params in corpus]


def via_client(corpus):
    server_box: list[ReproServer] = []

    def factory(config):
        return SessionContext(expansion_handler=expansion_handler(server_box[0].catalog))

    with ReproServer(ServerConfig(port=0, fetch_size=2), session_factory=factory) as server:
        server_box.append(server)
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute(SETUP)

        def run(sql, params):
            cursor = conn.execute(sql, params)
            return cursor.columns, cursor.fetchall(), cursor.rowcount

        outcomes = [outcome_of(lambda: run(sql, params)) for sql, params in corpus]
        conn.close()
    return outcomes


class TestEntryPointsAgree:
    def test_execute_run_statement_and_client_agree(self):
        expected = via_execute(CORPUS)
        assert via_run_statement(CORPUS) == expected
        assert via_client(CORPUS) == expected

    def test_scripts_agree_on_parameter_free_statements(self):
        expected = via_execute(PARAMETER_FREE)
        assert via_script(PARAMETER_FREE) == expected
        assert via_run_statement(PARAMETER_FREE) == expected
        assert via_client(PARAMETER_FREE) == expected

    def test_corpus_exercises_errors_expansion_and_pragmas(self):
        outcomes = dict(zip((sql for sql, _ in CORPUS), via_execute(CORPUS)))
        assert outcomes["SELECT * FROM no_such_table"][3] is not None
        assert outcomes["PRAGMA acquisition_no_such_knob"][3] is ExecutionError
        assert outcomes["PRAGMA acquisition_max_cost"][1] == ((2.5,),)
        assert outcomes["SELECT id FROM t WHERE mood IS MISSING ORDER BY id"][1] == (
            (2,),
            (3,),
            (4,),
        )
        assert outcomes["INSERT INTO t VALUES (?, ?, ?)"][3] is not None  # duplicate key
        plan = outcomes["EXPLAIN SELECT name FROM t WHERE v = 31"][1]
        assert plan[0] == ("IndexLookup t AS t ON v",)

    def test_each_execute_is_one_statement_cache_lookup(self):
        conn = local_connection()
        for sql, params in CORPUS:
            before = conn.cache_stats()
            try:
                conn.execute(sql, params).fetchall()
            except Exception:
                pass
            after = conn.cache_stats()
            assert (after.hits + after.misses) - (before.hits + before.misses) == 1, sql


class TestExplainSharesThePreparedPlan:
    SQL = "SELECT name FROM t WHERE v > ? ORDER BY name"

    def test_sql_explain_text_equals_connection_explain(self):
        conn = local_connection()
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [(1, 10, "a"), (2, 20, "b")])
        for sql, params in ((self.SQL, (15,)), ("SELECT name FROM t WHERE v = 20", ())):
            rows = conn.run_statement(f"EXPLAIN {sql}", params).rows
            assert "\n".join(line for (line,) in rows) == conn.explain(sql, params)

    def test_repeated_explain_reuses_the_cached_plan_object(self):
        class NoPlanner:
            def plan_select(self, statement):
                raise AssertionError("the EXPLAIN statement was planned again")

        conn = local_connection()
        explain_sql = f"EXPLAIN {self.SQL}"
        conn.execute(explain_sql, (1,))
        prepared = conn.statement_cache.get(explain_sql)
        plan = prepared.plan_for(NoPlanner(), conn.catalog.version)
        conn.execute(explain_sql, (2,))
        assert conn.statement_cache.get(explain_sql) is prepared
        assert prepared.plan_for(NoPlanner(), conn.catalog.version) is plan


class TestExplainAnalyzeIsCheckedFirst:
    INSERT = "INSERT INTO t VALUES (2, 2, 'late')"

    def test_local_non_select_is_rejected_before_it_runs(self, tmp_path):
        conn = repro.connect(path=tmp_path / "db", checkpoint_interval=None)
        conn.execute(SETUP)
        conn.execute("INSERT INTO t VALUES (1, 1, 'x')")
        wal_records = conn.durability.stats()["wal_records"]
        with pytest.raises(ExecutionError, match="only supported for SELECT"):
            conn.explain_analyze(self.INSERT)
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)
        assert conn.durability.stats()["wal_records"] == wal_records
        conn.close()

    def test_served_non_select_is_rejected_before_it_runs(self, tmp_path):
        config = ServerConfig(port=0, path=tmp_path / "db", checkpoint_interval=None)
        with ReproServer(config) as server:
            conn = repro.client.connect(*server.address, tenant="t")
            conn.execute(SETUP)
            conn.execute("INSERT INTO t VALUES (1, 1, 'x')")
            wal_records = dict(conn.pragma("durability_stats"))["wal_records"]
            with pytest.raises(ExecutionError, match="only supported for SELECT"):
                conn.explain_analyze(self.INSERT)
            assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)
            assert dict(conn.pragma("durability_stats"))["wal_records"] == wal_records
            conn.close()


class TestExecutemanyHonoursTheSession:
    def test_acquisition_pragma_applies(self):
        conn = repro.connect()
        conn.executemany("PRAGMA acquisition_max_cost = 5", [()])
        assert conn.policy.max_cost == 5.0

    def test_insert_from_crowd_is_rejected_up_front(self):
        class UntouchedSource:
            def __getattr__(self, name):
                raise AssertionError(f"the value source was used ({name})")

        conn = repro.connect()
        conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
        conn.set_value_source(UntouchedSource())
        with pytest.raises(ExecutionError, match=r"executemany\(\) cannot execute INSERT"):
            conn.executemany(
                "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9",
                [()],
            )
        assert conn.execute("SELECT count(*) FROM birds").fetchone() == (0,)
