"""Tests for qmark parameters: parsing, and binding them as slot reads."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.db.catalog import Catalog
from repro.db.connection import Connection
from repro.db.sql import ast, parameters
from repro.db.sql.expressions import evaluate
from repro.db.sql.parameters import count_parameters
from repro.db.sql.parser import parse_statement
from repro.errors import ExecutionError, ParameterBindingError, SQLSyntaxError


@pytest.fixture
def conn() -> Connection:
    connection = repro.connect()
    connection.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c INTEGER, d TEXT)")
    connection.executemany(
        "INSERT INTO t (a, b, c, d) VALUES (?, ?, ?, ?)",
        [
            (1, "x", 1, "xa"),
            (2, "x", 5, "ya"),
            (3, "y", 9, "xb"),
            (4, None, 2, "xc"),
        ],
    )
    return connection


def rows(connection: Connection, sql: str, params: tuple = ()) -> list[tuple]:
    return connection.execute(sql, params).fetchall()


class TestParsing:
    def test_placeholders_numbered_left_to_right(self):
        statement = parse_statement(
            "SELECT ? FROM t WHERE a = ? AND b IN (?, ?) ORDER BY c"
        )
        assert count_parameters(statement) == 4
        assert statement.items[0].expression == ast.Parameter(0)

    def test_placeholders_in_insert_rows(self):
        statement = parse_statement("INSERT INTO t (a, b) VALUES (?, ?), (?, ?)")
        assert count_parameters(statement) == 4

    def test_placeholders_in_update(self):
        statement = parse_statement("UPDATE t SET a = ?, b = ? WHERE c = ?")
        assert count_parameters(statement) == 3

    def test_placeholders_in_case_and_between(self):
        statement = parse_statement(
            "SELECT CASE WHEN a BETWEEN ? AND ? THEN ? ELSE ? END FROM t"
        )
        assert count_parameters(statement) == 4

    def test_placeholder_not_allowed_as_limit(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t LIMIT ?")

    def test_string_literal_question_mark_is_not_counted(self):
        statement = parse_statement("SELECT a FROM t WHERE b = 'really?'")
        assert count_parameters(statement) == 0

    def test_string_literal_question_mark_stays_text(self, conn):
        conn.execute("INSERT INTO t (a, b) VALUES (?, 'really?')", (9,))
        assert rows(conn, "SELECT a FROM t WHERE b = 'really?'") == [(9,)]
        assert rows(conn, "SELECT a, ? FROM t WHERE b = 'really?'", ("?",)) == [(9, "?")]

    def test_script_statements_number_parameters_independently(self, conn):
        from repro.db.sql.parser import parse_script

        first_sql = "SELECT a FROM t WHERE b = ?"
        second_sql = "SELECT a FROM t WHERE c = ?"
        (_, first), (_, second) = parse_script(f"{first_sql}; {second_sql}")
        assert first.where.right == ast.Parameter(0)
        assert second.where.right == ast.Parameter(0)
        assert rows(conn, second_sql, (5,)) == [(2,)]


class TestBinding:
    def test_parameters_read_their_slots(self, conn):
        assert rows(conn, "SELECT a FROM t WHERE b = ? AND c > ?", ("x", 3)) == [(2,)]

    def test_arity_mismatch_raises_with_message(self, conn):
        sql = "SELECT a FROM t WHERE b = ?"
        with pytest.raises(ParameterBindingError, match=r"^statement takes 1 parameter, 0 given$"):
            conn.execute(sql, ())
        with pytest.raises(ParameterBindingError, match=r"^statement takes 1 parameter, 2 given$"):
            conn.execute(sql, (1, 2))
        with pytest.raises(ParameterBindingError, match=r"^statement takes 2 parameters, 1 given$"):
            conn.executemany("INSERT INTO t (a, b) VALUES (?, ?)", [(10,)])
        with pytest.raises(ParameterBindingError, match=r"^statement takes 1 parameter, 3 given$"):
            conn.explain(sql, (1, 2, 3))

    def test_statement_without_parameters_runs_unchanged(self, conn):
        sql = "SELECT a FROM t WHERE c > 4 ORDER BY a"
        assert rows(conn, sql) == [(2,), (3,)]
        prepared = conn._cache.get(sql)
        template = prepared.statement
        assert rows(conn, sql, ()) == [(2,), (3,)]
        assert conn._cache.get(sql).statement is template

    def test_compound_nodes_read_their_slots(self, conn):
        sql = (
            "SELECT coalesce(b, ?) FROM t "
            "WHERE (b IS NULL OR NOT c = ?) AND a NOT IN (?) AND d LIKE ? ORDER BY a"
        )
        assert rows(conn, sql, ("none", 1, 3, "x%")) == [("none",)]

    @pytest.mark.parametrize(
        ("sql", "params", "expected"),
        [
            ("SELECT a FROM t WHERE c IN (?, ?) ORDER BY a", (5, 9), [(2,), (3,)]),
            ("SELECT a FROM t WHERE c BETWEEN ? AND ? ORDER BY a", (2, 5), [(2,), (4,)]),
            ("SELECT a FROM t WHERE d LIKE ? ORDER BY a", ("x%",), [(1,), (3,), (4,)]),
            (
                "SELECT CASE WHEN c > ? THEN ? ELSE ? END FROM t ORDER BY a",
                (4, "big", "small"),
                [("small",), ("big",), ("big",), ("small",)],
            ),
            (
                "SELECT a FROM t WHERE length(d) = ? AND upper(d) = upper(?)",
                (2, "Ya"),
                [(2,)],
            ),
            ("SELECT round(?, ?) FROM t WHERE a = ?", (2.567, 1, 1), [(2.6,)]),
        ],
    )
    def test_placeholders_in_every_expression_form(self, conn, sql, params, expected):
        assert rows(conn, sql, params) == expected

    def test_out_of_range_parameter_index_raises(self):
        with pytest.raises(ParameterBindingError, match="no value bound for parameter 6"):
            evaluate(ast.Parameter(5), (1, 2))

    def test_unbound_parameter_fails_at_evaluation(self):
        with pytest.raises(ExecutionError, match="unbound parameter"):
            evaluate(ast.Parameter(0))

    def test_output_labels_come_from_the_template(self, conn):
        cursor = conn.execute("SELECT ? + 1", (41,))
        assert [column[0] for column in cursor.description] == ["?1 + 1"]
        assert cursor.fetchall() == [(42,)]
        cursor = conn.execute("SELECT c + ?, ? FROM t WHERE a = ?", (1, "k", 2))
        assert [column[0] for column in cursor.description] == ["c + ?1", "?2"]
        assert cursor.fetchall() == [(6, "k")]

    def test_distinct_parameters_never_compare_equal_in_group_by(self):
        from repro.db import connect
        from repro.errors import PlanningError

        conn = connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        # a + ?1 in the SELECT list is not the GROUP BY key a + ?2; with a
        # position-blind label both would render "a + ?" and validation
        # would silently pass with wrong results.
        with pytest.raises(PlanningError):
            conn.execute("SELECT a + ?, count(*) FROM t GROUP BY a + ?", (1, 100))

    def test_template_statement_is_reusable(self, conn):
        sql = "SELECT a FROM t WHERE c = ?"
        assert rows(conn, sql, (1,)) == [(1,)]
        assert rows(conn, sql, (9,)) == [(3,)]
        assert conn._cache.get(sql).statement.where.right == ast.Parameter(0)


class TestNoPlanRewrite:
    def test_engine_never_rewrites_the_template(self, conn, monkeypatch):
        def forbidden(node, params):
            raise AssertionError("the engine rewrote a statement template")

        monkeypatch.setattr(parameters, "_rebuild", forbidden)
        assert rows(conn, "SELECT b FROM t WHERE a = ?", (2,)) == [("x",)]
        assert conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (7, "w")).rowcount == 1
        assert conn.execute("UPDATE t SET b = ? WHERE a = ?", ("v", 7)).rowcount == 1
        assert rows(conn, "SELECT b FROM t WHERE a = ?", (7,)) == [("v",)]
        assert conn.execute("DELETE FROM t WHERE a = ?", (7,)).rowcount == 1
        assert conn.executemany(
            "INSERT INTO t (a, c) VALUES (?, ?)", [(20, 1), (21, 2)]
        ).rowcount == 2
        assert "Filter a = 20" in conn.explain("SELECT c FROM t WHERE a = ?", (20,))
        assert "Filter c >= 2" in conn.explain_analyze(
            "SELECT a FROM t WHERE c >= ?", (2,)
        )
        cursor = conn.cursor().execute("SELECT a FROM t WHERE c > ? ORDER BY a", (4,))
        assert cursor.fetchall() == [(2,), (3,)]


class TestReplayContract:
    """``bind_select_plan`` plus a parameterless ``Planner.lower`` still work."""

    def test_bound_plan_lowers_without_parameters(self, conn):
        from repro.db.sql.planner import Planner

        sql = "SELECT b FROM t WHERE a = ?"
        planner = Planner(conn.catalog)
        plan = planner.plan_select(parse_statement(sql))
        root = planner.lower(parameters.bind_select_plan(plan, (3,)))
        root.open()
        assert [row for row, _context in root] == rows(conn, sql, (3,)) == [("y",)]
        unbound = planner.lower(plan)
        with pytest.raises(ExecutionError, match="unbound parameter 1"):
            unbound.open()


class TestExplainWithParameters:
    @pytest.fixture
    def accounts(self) -> Connection:
        connection = repro.connect()
        connection.execute(
            "CREATE TABLE accounts (id INTEGER PRIMARY KEY, score INTEGER, owner TEXT)"
        )
        connection.execute("CREATE INDEX ON accounts (score)")
        connection.executemany(
            "INSERT INTO accounts (id, score, owner) VALUES (?, ?, ?)",
            [(i, i, f"owner-{i}") for i in range(1000)],
        )
        return connection

    RANGE_SQL = "SELECT id FROM accounts WHERE score >= ? AND score < ? ORDER BY score"

    def test_range_query_renders_values(self, accounts):
        assert accounts.explain(self.RANGE_SQL, (300, 600)) == (
            "IndexRangeScan accounts AS accounts ON score >= 300 AND score < 600 (ordered)\n"
            "Filter score >= 300 and score < 600\n"
            "Project id"
        )

    def test_range_query_without_values_renders_slots(self, accounts):
        assert accounts.explain(self.RANGE_SQL) == (
            "IndexRangeScan accounts AS accounts ON score (ordered)\n"
            "Filter score >= ?1 and score < ?2\n"
            "Project id"
        )

    def test_point_query_renders_values(self, accounts):
        assert accounts.explain("SELECT owner FROM accounts WHERE id = ?", (5,)) == (
            "IndexLookup accounts AS accounts ON id\n"
            "Filter id = 5\n"
            "Project owner"
        )

    def test_explain_analyze_renders_values(self, accounts):
        lines = accounts.explain_analyze(self.RANGE_SQL, (300, 600)).splitlines()
        assert lines[0].startswith(
            "IndexRangeScan accounts AS accounts ON score >= 300 AND score < 600 (ordered)"
            "  [rows=300 est="
        )
        assert lines[1].startswith("Filter score >= 300 and score < 600  [rows=300 ")
        lines = accounts.explain_analyze(
            "SELECT owner FROM accounts WHERE id = ?", (5,)
        ).splitlines()
        assert lines[0].startswith("IndexLookup accounts AS accounts ON id  [rows=1 ")
        assert lines[1].startswith("Filter id = 5  [rows=1 ")

    def test_string_values_render_quoted(self, accounts):
        plan = accounts.explain("SELECT id FROM accounts WHERE owner = ?", ("owner-7",))
        assert "Filter owner = 'owner-7'" in plan


class TestSlotIsolation:
    def test_streaming_cursors_on_one_cached_statement(self, conn):
        sql = "SELECT a FROM t WHERE c >= ? ORDER BY a"
        low = conn.cursor().execute(sql, (1,))
        high = conn.cursor().execute(sql, (5,))
        fetched_low, fetched_high = [], []
        for _ in range(4):
            fetched_low.append(low.fetchone())
            fetched_high.append(high.fetchone())
        assert fetched_low == [(1,), (2,), (3,), (4,)]
        assert fetched_high == [(2,), (3,), None, None]
        assert conn.cache_stats().hits >= 1

    def test_threads_on_a_shared_catalog(self):
        catalog = Catalog()
        setup = Connection(catalog=catalog)
        setup.execute("CREATE TABLE counters (owner INTEGER PRIMARY KEY, n INTEGER)")
        setup.executemany(
            "INSERT INTO counters (owner, n) VALUES (?, ?)", [(i, 0) for i in range(4)]
        )
        errors: list[BaseException] = []
        seen: dict[int, list[int]] = {}

        def worker(owner: int) -> None:
            connection = Connection(catalog=catalog)
            observed = []
            try:
                for step in range(1, 51):
                    connection.execute(
                        "UPDATE counters SET n = ? WHERE owner = ?", (owner * 1000 + step, owner)
                    )
                    (value,) = connection.execute(
                        "SELECT n FROM counters WHERE owner = ?", (owner,)
                    ).fetchone()
                    observed.append(value)
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)
            seen[owner] = observed

        threads = [threading.Thread(target=worker, args=(owner,)) for owner in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for owner in range(4):
            assert seen[owner] == [owner * 1000 + step for step in range(1, 51)]
