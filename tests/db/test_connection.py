"""Tests for the DB-API-style connection layer (connect/Connection/Cursor)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import AcquisitionPolicy, Catalog, Connection, Dispatch, SessionContext, connect
from repro.db.acquisition import PredictionBatch
from repro.db.types import ColumnType, MISSING
from repro.errors import (
    ExecutionError,
    ParameterBindingError,
    UnknownColumnError,
)


@pytest.fixture
def conn() -> Connection:
    connection = connect()
    cursor = connection.cursor()
    cursor.execute(
        "CREATE TABLE movies ("
        " movie_id INTEGER PRIMARY KEY,"
        " name TEXT NOT NULL,"
        " year INTEGER,"
        " rating REAL)"
    )
    cursor.executemany(
        "INSERT INTO movies (movie_id, name, year, rating) VALUES (?, ?, ?, ?)",
        [
            (1, "Rocky", 1976, 8.1),
            (2, "Psycho", 1960, 8.5),
            (3, "Airplane!", 1980, 7.7),
            (4, "Vertigo", 1958, 8.3),
            (5, "Dirty Dancing", 1987, 7.0),
        ],
    )
    return connection


class TestCursorBasics:
    def test_execute_returns_cursor_for_chaining(self, conn):
        row = conn.cursor().execute("SELECT name FROM movies WHERE movie_id = ?", (1,)).fetchone()
        assert row == ("Rocky",)

    def test_fetchone_exhaustion(self, conn):
        cursor = conn.execute("SELECT name FROM movies WHERE movie_id = ?", (2,))
        assert cursor.fetchone() == ("Psycho",)
        assert cursor.fetchone() is None

    def test_fetchmany_and_arraysize(self, conn):
        cursor = conn.execute("SELECT movie_id FROM movies ORDER BY movie_id")
        assert cursor.fetchmany(2) == [(1,), (2,)]
        cursor.arraysize = 2
        assert cursor.fetchmany() == [(3,), (4,)]
        assert cursor.fetchall() == [(5,)]

    def test_fetchmany_over_a_materialized_result(self, conn):
        # PRAGMA results are materialized rows, not a streaming SELECT.
        cursor = conn.execute("PRAGMA acquisition_policy")
        total = len(cursor.fetchall())
        cursor = conn.execute("PRAGMA acquisition_policy")
        cursor.arraysize = 3
        assert len(cursor.fetchmany()) == 3
        assert len(cursor.fetchmany(total)) == total - 3
        assert cursor.fetchmany() == []

    def test_explain_reports_the_last_select_with_counters(self, conn):
        cursor = conn.cursor()
        assert cursor.explain() is None
        cursor.execute("SELECT name FROM movies WHERE year > ?", (1975,))
        cursor.fetchall()
        plan = cursor.explain()
        assert "SeqScan" in plan and "rows=3" in plan
        cursor.execute("UPDATE movies SET rating = 1.0 WHERE movie_id = 1")
        assert cursor.explain() is None

    def test_iteration_protocol(self, conn):
        cursor = conn.execute("SELECT name FROM movies WHERE year > ? ORDER BY year", (1975,))
        assert [name for (name,) in cursor] == ["Rocky", "Airplane!", "Dirty Dancing"]

    def test_description_for_select(self, conn):
        cursor = conn.execute("SELECT name, year AS y FROM movies LIMIT 1")
        assert [d[0] for d in cursor.description] == ["name", "y"]
        assert all(len(d) == 7 for d in cursor.description)

    def test_description_none_for_dml(self, conn):
        cursor = conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (9, "Alien"))
        assert cursor.description is None

    def test_rowcount(self, conn):
        assert conn.execute("SELECT * FROM movies").rowcount == 5
        assert conn.execute("UPDATE movies SET rating = ? WHERE year < ?", (9.0, 1970)).rowcount == 2

    def test_closed_cursor_raises(self, conn):
        cursor = conn.cursor()
        cursor.close()
        with pytest.raises(ExecutionError):
            cursor.execute("SELECT 1")

    def test_fetch_before_execute_raises(self, conn):
        with pytest.raises(ExecutionError):
            conn.cursor().fetchall()

    def test_failed_execute_clears_previous_result(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT name FROM movies WHERE movie_id = ?", (1,))
        with pytest.raises(UnknownColumnError):
            cursor.execute("SELECT nope FROM movies")
        # The earlier query's rows must not leak out of the failed execute.
        with pytest.raises(ExecutionError):
            cursor.fetchall()

    def test_cursor_context_manager(self, conn):
        with conn.cursor() as cursor:
            assert cursor.execute("SELECT count(*) FROM movies").fetchone() == (5,)
        with pytest.raises(ExecutionError):
            cursor.execute("SELECT 1")


class TestParameterBinding:
    def test_parameters_in_where(self, conn):
        rows = conn.execute(
            "SELECT name FROM movies WHERE year BETWEEN ? AND ? ORDER BY year", (1960, 1980)
        ).fetchall()
        assert rows == [("Psycho",), ("Rocky",), ("Airplane!",)]

    def test_parameters_in_projection_and_in_list(self, conn):
        rows = conn.execute(
            "SELECT name, ? FROM movies WHERE movie_id IN (?, ?) ORDER BY movie_id",
            ("tag", 1, 3),
        ).fetchall()
        assert rows == [("Rocky", "tag"), ("Airplane!", "tag")]

    def test_question_mark_inside_string_literal_is_not_a_placeholder(self, conn):
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, 'Who? Me?')", (7,))
        rows = conn.execute("SELECT name FROM movies WHERE name = 'Who? Me?'").fetchall()
        assert rows == [("Who? Me?",)]

    def test_too_few_parameters(self, conn):
        with pytest.raises(ParameterBindingError, match="2 parameters, 1 given"):
            conn.execute("SELECT * FROM movies WHERE movie_id = ? AND year = ?", (1,))

    def test_too_many_parameters(self, conn):
        with pytest.raises(ParameterBindingError, match="1 parameter, 2 given"):
            conn.execute("SELECT * FROM movies WHERE movie_id = ?", (1, 2))

    def test_parameters_without_placeholders(self, conn):
        with pytest.raises(ParameterBindingError):
            conn.execute("SELECT * FROM movies", (1,))

    def test_string_parameters_rejected(self, conn):
        with pytest.raises(TypeError):
            conn.execute("SELECT * FROM movies WHERE name = ?", "Rocky")

    def test_none_binds_as_null(self, conn):
        conn.execute("UPDATE movies SET rating = ? WHERE movie_id = ?", (None, 1))
        assert conn.execute(
            "SELECT count(*) FROM movies WHERE rating IS NULL"
        ).fetchone() == (1,)

    def test_parameterized_point_lookup_uses_index(self, conn):
        plan = conn.explain("SELECT name FROM movies WHERE movie_id = ?")
        assert "IndexLookup" in plan

    def test_parameters_in_delete(self, conn):
        assert conn.execute("DELETE FROM movies WHERE year < ?", (1960,)).rowcount == 1


class TestExecutemany:
    def test_batch_insert(self, conn):
        cursor = conn.executemany(
            "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
            [(10, "Alien"), (11, "Brazil"), (12, "Clue")],
        )
        assert cursor.rowcount == 3
        assert conn.execute("SELECT count(*) FROM movies").fetchone() == (8,)

    def test_batch_update(self, conn):
        cursor = conn.executemany(
            "UPDATE movies SET rating = ? WHERE movie_id = ?",
            [(1.0, 1), (2.0, 2)],
        )
        assert cursor.rowcount == 2

    def test_empty_parameter_sequence(self, conn):
        assert conn.executemany("INSERT INTO movies (movie_id, name) VALUES (?, ?)", []).rowcount == 0

    def test_select_is_rejected(self, conn):
        with pytest.raises(ExecutionError, match="executemany"):
            conn.executemany("SELECT * FROM movies WHERE movie_id = ?", [(1,)])

    def test_statement_prepared_once(self, conn):
        before = conn.cache_stats()
        conn.executemany(
            "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
            [(20 + i, f"m{i}") for i in range(10)],
        )
        after = conn.cache_stats()
        # One prepare for the whole batch: a single miss, no per-tuple lookups.
        assert after.misses == before.misses + 1
        assert after.hits == before.hits


class TestStatementCache:
    def test_repeated_query_hits_cache(self, conn):
        sql = "SELECT name FROM movies WHERE movie_id = ?"
        for movie_id in (1, 2, 3):
            conn.execute(sql, (movie_id,))
        stats = conn.cache_stats()
        assert stats.hits >= 2
        assert sql in conn.statement_cache

    def test_distinct_sql_misses(self, conn):
        before = conn.cache_stats().misses
        conn.execute("SELECT name FROM movies WHERE movie_id = 1")
        conn.execute("SELECT name  FROM movies WHERE movie_id = 1")  # different text
        assert conn.cache_stats().misses == before + 2

    def test_ddl_invalidates_cached_plan(self, conn):
        sql = "SELECT * FROM movies WHERE movie_id = ?"
        first = conn.execute(sql, (1,))
        assert len(first.result.columns) == 4
        conn.execute("ALTER TABLE movies ADD COLUMN country TEXT")
        second = conn.execute(sql, (1,))
        assert len(second.result.columns) == 5
        assert second.result.columns[-1] == "country"

    def test_create_index_invalidates_cached_plan(self, conn):
        sql = "SELECT name FROM movies WHERE year = ?"
        conn.execute(sql, (1976,))
        assert "SeqScan" in conn.explain(sql)
        conn.execute("CREATE INDEX ON movies (year)")
        assert "IndexLookup" in conn.explain(sql)
        assert conn.execute(sql, (1976,)).fetchall() == [("Rocky",)]

    def test_lru_eviction(self):
        connection = connect(statement_cache_size=2)
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("SELECT a FROM t")
        connection.execute("SELECT a + 1 FROM t")
        connection.execute("SELECT a + 2 FROM t")
        stats = connection.cache_stats()
        assert stats.size == 2
        assert stats.evictions >= 1

    def test_cache_disabled(self):
        connection = connect(statement_cache_size=0)
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("SELECT a FROM t")
        connection.execute("SELECT a FROM t")
        stats = connection.cache_stats()
        assert stats.hits == 0
        assert stats.size == 0

    def test_hit_rate(self, conn):
        conn.execute("SELECT 1")
        conn.execute("SELECT 1")
        stats = conn.cache_stats()
        assert 0.0 < stats.hit_rate < 1.0


class TestConnectionLifecycle:
    def test_context_manager_closes(self):
        with connect() as connection:
            connection.execute("CREATE TABLE t (a INTEGER)")
        assert connection.closed
        with pytest.raises(ExecutionError):
            connection.execute("SELECT 1")

    def test_cursor_after_close_raises(self):
        connection = connect()
        connection.close()
        with pytest.raises(ExecutionError):
            connection.cursor()

    def test_commit_is_noop_and_rollback_unsupported(self, conn):
        conn.commit()
        with pytest.raises(ExecutionError):
            conn.rollback()

    def test_statement_log_is_bounded(self):
        connection = connect(statement_log_size=3)
        connection.execute("CREATE TABLE t (a INTEGER)")
        for i in range(5):
            connection.execute("INSERT INTO t VALUES (?)", (i,))
        assert len(connection.statement_log) == 3
        assert all(sql == "INSERT INTO t VALUES (?)" for sql in connection.statement_log)

    def test_executemany_logs_sql_once_per_batch(self):
        connection = connect()
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        assert list(connection.statement_log).count("INSERT INTO t VALUES (?)") == 1

    def test_add_perceptual_column_accepts_type_names(self):
        # A raw string in Column.type would crash the durability journal
        # (snapshot.column_state reads column.type.value), so SQL type names
        # must be normalised to ColumnType at this surface.
        connection = connect()
        connection.execute("CREATE TABLE t (a INTEGER)")
        column = connection.add_perceptual_column("t", "appeal", "REAL")
        assert column.type is ColumnType.REAL
        booleanish = connection.add_perceptual_column("t", "funny", "bool")
        assert booleanish.type is ColumnType.BOOLEAN

    def test_execute_script_logs_individual_statements(self):
        connection = connect()
        connection.execute_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT a FROM t"
        )
        assert connection.statement_log == (
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (1)",
            "SELECT a FROM t",
        )


class ConstantSource:
    """Batch ValueSource answering every cell with one value."""

    def __init__(self, value: float, latency: float = 0.0) -> None:
        self.value = value
        self.latency = latency
        self.calls = 0

    def request_values_with_quality(self, attribute, items, *, policy, tracker):
        time.sleep(self.latency)
        self.calls += 1
        return Dispatch({rowid: self.value for rowid, _row in items})


def session_with_source(value: float) -> SessionContext:
    """A session whose value source answers every cell with *value*.

    No write-back keeps the answers out of table storage.  They still
    reach the catalog's one answer cache (crowd answers are shared,
    budgets are not), so the tests below give each session its own rows.
    """
    return SessionContext(
        value_source=ConstantSource(value),
        policy=AcquisitionPolicy(crowd_write_back=False),
    )


class TestSessionScopedCrowdContext:
    def _shared_catalog(self) -> Catalog:
        catalog = Catalog()
        setup = Connection(catalog)
        setup.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, score REAL PERCEPTUAL)")
        setup.executemany(
            "INSERT INTO items (item_id, score) VALUES (?, ?)",
            [(i, None) for i in range(1, 6)],
        )
        setup.table("items").fill_values("score", {rowid: MISSING for rowid in range(1, 6)})
        return catalog

    def _point_query_catalog(self) -> Catalog:
        """The shared catalog plus an index, so a point query's CrowdFill
        acquires only the row it reads."""
        catalog = self._shared_catalog()
        Connection(catalog).execute("CREATE INDEX ON items (item_id)")
        return catalog

    def test_two_connections_with_different_value_sources(self):
        catalog = self._point_query_catalog()
        low = Connection(catalog, session=session_with_source(0.1))
        high = Connection(catalog, session=session_with_source(0.9))
        query = "SELECT score FROM items WHERE item_id = ?"
        assert low.execute(query, (1,)).fetchone() == (0.1,)
        assert high.execute(query, (2,)).fetchone() == (0.9,)
        # Each session dispatched to its own value source, once.
        assert low.session.value_source.calls == 1
        assert high.session.value_source.calls == 1
        assert low.missing_count("items", "score") == 5  # nothing written back

    def test_concurrent_connections_do_not_clobber_each_other(self):
        catalog = self._point_query_catalog()
        failures: list[str] = []

        def run(value, rowid):
            connection = Connection(catalog, session=session_with_source(value))
            try:
                for _ in range(50):
                    (score,) = connection.execute(
                        "SELECT score FROM items WHERE item_id = ?", (rowid,)
                    ).fetchone()
                    if score != value:
                        failures.append(f"source {value} saw score {score}")
                        return
            except Exception as exc:  # pragma: no cover - only on regression
                failures.append(f"source {value} raised {exc!r}")

        threads = [
            threading.Thread(target=run, args=(0.1, 1)),
            threading.Thread(target=run, args=(0.9, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_concurrent_reader_and_writer_on_shared_catalog(self):
        catalog = self._shared_catalog()
        errors: list[Exception] = []

        def reader():
            connection = Connection(catalog)
            try:
                for _ in range(300):
                    connection.column_values("items", "score")
                    connection.missing_count("items", "score")
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        def writer():
            connection = Connection(catalog)
            try:
                for i in range(300):
                    connection.execute(
                        "INSERT INTO items (item_id, score) VALUES (?, ?)", (100 + i, 0.5)
                    )
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_slow_value_source_does_not_block_other_connections(self):
        catalog = self._shared_catalog()
        # One platform dispatch standing in for crowd-sourcing the cells.
        source = ConstantSource(1.0, latency=0.4)
        resolving = Connection(catalog, session=SessionContext(value_source=source))
        probing = Connection(catalog)
        latencies: list[float] = []

        def probe():
            time.sleep(0.2)  # land inside the source's crowd time
            for _ in range(3):
                start = time.perf_counter()
                probing.execute("SELECT count(*) FROM items").fetchone()
                latencies.append(time.perf_counter() - start)
                time.sleep(0.05)

        threads = [
            threading.Thread(
                target=lambda: resolving.execute(
                    "SELECT count(*) FROM items WHERE score > ?", (0.5,)
                ).fetchone()
            ),
            threading.Thread(target=probe),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Rows are pulled (and the crowd dispatched) outside the catalog
        # lock, so the probing connection must stay fast.
        assert source.calls == 1
        assert latencies and max(latencies) < 0.25

    def test_slow_expansion_does_not_block_other_connections(self):
        import time

        catalog = Catalog()
        expanding = Connection(catalog)
        probing = Connection(catalog)
        expanding.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        expanding.execute("INSERT INTO t (id) VALUES (1)")

        def slow_handler(table, column):
            time.sleep(0.5)  # stands in for minutes of crowd-sourcing
            expanding.add_perceptual_column(table, column, ColumnType.BOOLEAN)
            storage = expanding.table(table)
            storage.fill_values(column, {r: True for r in storage.rowids()})
            return True

        expanding.set_expansion_handler(slow_handler)
        latencies: list[float] = []

        def probe():
            time.sleep(0.1)  # let the expansion start first
            for _ in range(3):
                start = time.perf_counter()
                probing.execute("SELECT count(*) FROM t").fetchone()
                latencies.append(time.perf_counter() - start)
                time.sleep(0.05)

        threads = [
            threading.Thread(
                target=lambda: expanding.execute("SELECT id FROM t WHERE slow = ?", (True,))
            ),
            threading.Thread(target=probe),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The handler runs outside the catalog lock, so the probing
        # connection's queries must not wait out the 0.5 s expansion.
        assert latencies and max(latencies) < 0.25

    def test_session_scoped_expansion_with_parameters(self):
        connection = connect()
        connection.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        connection.executemany(
            "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
            [(1, "Rocky"), (2, "Psycho")],
        )

        calls = []

        def handler(table, column):
            calls.append((table, column))
            connection.add_perceptual_column(table, column, ColumnType.BOOLEAN)
            storage = connection.table(table)
            storage.fill_values(column, {rowid: rowid == 1 for rowid in storage.rowids()})
            return True

        connection.set_expansion_handler(handler)
        rows = connection.execute(
            "SELECT name FROM movies WHERE is_comedy = ? AND movie_id = ?", (True, 1)
        ).fetchall()
        assert rows == [("Rocky",)]
        assert calls == [("movies", "is_comedy")]

    def test_expansion_is_per_session_not_global(self):
        catalog = Catalog()
        first = Connection(catalog)
        second = Connection(catalog)
        first.execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
        first.execute("INSERT INTO t (item_id) VALUES (1)")

        def handler(table, column):
            first.add_perceptual_column(table, column, ColumnType.BOOLEAN)
            storage = first.table(table)
            storage.fill_values(column, {rowid: True for rowid in storage.rowids()})
            return True

        first.set_expansion_handler(handler)
        # The second connection shares the catalog but has no handler.
        with pytest.raises(UnknownColumnError):
            second.execute("SELECT item_id FROM t WHERE missing_attr = ?", (True,))
        assert first.execute("SELECT item_id FROM t WHERE is_new = ?", (True,)).fetchall() == [(1,)]

    def test_execute_script_triggers_expansion(self):
        connection = connect()
        connection.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        connection.execute("INSERT INTO movies (movie_id, name) VALUES (1, 'Rocky')")

        def handler(table, column):
            connection.add_perceptual_column(table, column, ColumnType.BOOLEAN)
            storage = connection.table(table)
            storage.fill_values(column, {rowid: True for rowid in storage.rowids()})
            return True

        connection.set_expansion_handler(handler)
        results = connection.execute_script(
            "SELECT name FROM movies WHERE is_comedy = true"
        )
        assert results[0].rows == [("Rocky",)]

    def test_budget_exhausted_session(self):
        session = SessionContext(policy=AcquisitionPolicy(max_cost=1.0))
        assert not session.budget_exhausted
        assert session.remaining_budget == 1.0
        session.record_cost(0.6)
        assert session.remaining_budget == pytest.approx(0.4)
        session.record_cost(0.6)
        assert session.budget_exhausted
        assert session.remaining_budget == 0.0

    def test_connection_exposes_session(self):
        db = Connection()
        assert isinstance(db.session, SessionContext)


class PricedSource:
    """Batch ValueSource labelling even item ids True at $0.01 per cell."""

    def __init__(self, latency: float = 0.0) -> None:
        self.latency = latency
        self.dispatches = 0
        self.total_cost = 0.0
        self._lock = threading.Lock()

    def request_values_with_quality(self, attribute, items, *, policy, tracker):
        time.sleep(self.latency)
        cost = 0.01 * len(items)
        with self._lock:
            self.dispatches += 1
            self.total_cost += cost
        return Dispatch({rowid: row["item_id"] % 2 == 0 for rowid, row in items}, cost=cost)


class MajorityPredictor:
    """AttributePredictor double: the majority training label for every target."""

    def fit_predict(self, attribute, train, targets):
        votes = [bool(value) for _rowid, _row, value in train]
        majority = 2 * sum(votes) >= len(votes)
        return PredictionBatch(values={rowid: majority for rowid, _row in targets})


def add_column_handler(connection: Connection):
    """The query-driven expansion handler: add the column, nothing else."""

    def handler(table, column):
        connection.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    return handler


def expanding_connection(catalog: Catalog, source) -> Connection:
    connection = Connection(catalog)
    connection.set_value_source(source)
    connection.set_expansion_handler(add_column_handler(connection))
    return connection


def items_catalog(n: int) -> Catalog:
    catalog = Catalog()
    setup = Connection(catalog)
    setup.execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
    setup.executemany("INSERT INTO t (item_id) VALUES (?)", [(i,) for i in range(1, n + 1)])
    return catalog


def run_threads(*targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


class TestQueryDrivenExpansion:
    """Expansion is "add the column"; CrowdFill/PredictFill fill it."""

    def test_expansion_fills_the_new_column_through_the_runtime(self):
        source = PricedSource()
        connection = expanding_connection(items_catalog(20), source)
        rows = connection.execute("SELECT count(*) FROM t WHERE cult = ?", (True,)).fetchall()
        assert rows == [(10,)]
        assert connection.provenance_counts("t", "cult") == {"crowd": 20}
        assert source.dispatches == 1
        assert connection.session.cost_spent == pytest.approx(0.20)

    def test_handler_returning_false_propagates_unknown_column(self):
        connection = Connection(items_catalog(3))
        calls = []

        def handler(table, column):
            calls.append(column)
            return False  # e.g. a factual attribute no rating data can derive

        connection.set_expansion_handler(handler)
        with pytest.raises(UnknownColumnError):
            connection.execute("SELECT item_id FROM t WHERE email = ?", ("x",))
        assert calls == ["email"]
        assert "email" not in connection.table("t").schema

    def test_shared_catalog_expansion_race_retries(self):
        """Both sessions miss the column; the one whose add loses still answers."""
        catalog = items_catalog(4)
        both_missed = threading.Barrier(2, timeout=10)
        outcomes: dict[int, object] = {}

        def session(index):
            connection = Connection(catalog)
            add = add_column_handler(connection)

            def handler(table, column):
                both_missed.wait()
                return add(table, column)

            connection.set_expansion_handler(handler)
            try:
                outcomes[index] = connection.execute(
                    "SELECT count(*) FROM t WHERE cult IS NULL"
                ).fetchone()
            except Exception as exc:  # pragma: no cover - only on regression
                outcomes[index] = exc

        run_threads(lambda: session(0), lambda: session(1))
        assert outcomes == {0: (4,), 1: (4,)}  # the column exists, still MISSING

    def test_concurrent_expansions_of_same_attribute_coalesce(self):
        """Three sessions expand one attribute at once: the crowd is paid once."""

        def expand(n_sessions):
            source = PricedSource(latency=0.2)
            catalog = items_catalog(40)
            connections = [expanding_connection(catalog, source) for _ in range(n_sessions)]
            results: list[object] = []

            def query(connection):
                try:
                    results.append(
                        connection.execute(
                            "SELECT count(*) FROM t WHERE cult = ?", (True,)
                        ).fetchone()
                    )
                except Exception as exc:  # pragma: no cover - only on regression
                    results.append(exc)

            run_threads(*(lambda c=c: query(c) for c in connections))
            spent = [c.session.cost_spent for c in connections]
            return results, source, spent

        single, single_source, _ = expand(1)
        results, source, spent = expand(3)
        assert single == [(20,)]
        assert results == [(20,)] * 3
        assert (source.dispatches, source.total_cost) == (
            single_source.dispatches,
            single_source.total_cost,
        )
        assert sum(spent) == pytest.approx(source.total_cost)

    def test_expansion_safe_against_concurrent_writer(self):
        """Rows inserted during the fill survive; rows deleted stay deleted."""
        catalog = items_catalog(199)
        expanding = expanding_connection(catalog, PricedSource(latency=0.2))
        writing = Connection(catalog)
        deleted = list(range(10, 200, 10))
        errors: list[Exception] = []

        def expander():
            try:
                expanding.execute("SELECT item_id FROM t WHERE cult = ?", (True,)).fetchall()
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        def writer():
            try:
                time.sleep(0.05)  # land inside the source's crowd time
                for i in range(200, 600):
                    writing.execute("INSERT INTO t (item_id) VALUES (?)", (i,))
                for i in deleted:
                    writing.execute("DELETE FROM t WHERE item_id = ?", (i,))
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        run_threads(expander, writer)
        assert errors == []
        ids = {row[0] for row in writing.execute("SELECT item_id FROM t").fetchall()}
        assert ids == set(range(1, 600)) - set(deleted)

    def test_zero_budget_adds_the_column_without_spending(self):
        source = PricedSource()
        connection = expanding_connection(items_catalog(30), source)
        connection.set_policy(AcquisitionPolicy(max_cost=0.0))
        rows = connection.execute("SELECT item_id FROM t WHERE cult = ?", (True,)).fetchall()
        assert rows == []
        assert "cult" in connection.table("t").schema
        assert connection.missing_count("t", "cult") == 30
        assert source.dispatches == 0
        assert source.total_cost == connection.session.cost_spent == 0.0

    @pytest.mark.parametrize("batch_size", [20, 64])
    def test_crowd_only_flush_never_spends_past_max_cost(self, batch_size):
        source = PricedSource()
        connection = expanding_connection(items_catalog(200), source)
        connection.set_policy(AcquisitionPolicy(max_cost=0.25, crowd_batch_size=batch_size))
        connection.execute("SELECT count(*) FROM t WHERE cult = ?", (True,)).fetchone()
        assert 0 < source.total_cost <= 0.25 + 1e-9
        assert connection.session.cost_spent == pytest.approx(source.total_cost)
        # Cells past the budget stay MISSING; every paid cell was filled.
        filled = connection.provenance_counts("t", "cult").get("crowd", 0)
        assert filled == round(source.total_cost / 0.01)
        assert connection.missing_count("t", "cult") == 200 - filled

    def test_small_budget_caps_the_crowd_sample(self):
        source = PricedSource()
        connection = expanding_connection(items_catalog(200), source)
        connection.set_predictor(MajorityPredictor())
        connection.set_policy(AcquisitionPolicy(max_cost=0.25))
        connection.execute("SELECT count(*) FROM t WHERE cult = ?", (True,)).fetchone()
        assert 0 < source.total_cost <= 0.25 + 1e-9
        assert connection.session.cost_spent == pytest.approx(source.total_cost)
