"""Tests for streaming cursor semantics over the live operator tree."""

from __future__ import annotations

import pytest

from repro.db import Connection, Dispatch, connect
from repro.db.sql.operators import SeqScan
from repro.db.storage import BATCH_ROWS
from repro.errors import ExecutionError, UnknownColumnError

#: Three full scan batches and a partial fourth.
N_ROWS = 3 * BATCH_ROWS + 8


@pytest.fixture
def conn() -> Connection:
    connection = connect()
    connection.execute("CREATE TABLE numbers (n INTEGER PRIMARY KEY, v INTEGER)")
    connection.executemany(
        "INSERT INTO numbers (n, v) VALUES (?, ?)", [(i, i) for i in range(1, N_ROWS + 1)]
    )
    return connection


def scan_of(cursor) -> SeqScan:
    return next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))


class TestInterleavedFetching:
    def test_fetchone_fetchmany_iteration_interleave(self, conn):
        cursor = conn.execute("SELECT n FROM numbers ORDER BY n")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchmany(3) == [(2,), (3,), (4,)]
        assert next(cursor) == (5,)
        assert cursor.fetchmany() == [(6,)]  # arraysize default is 1
        rest = cursor.fetchall()
        assert rest[0] == (7,)
        assert rest[-1] == (N_ROWS,)
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []

    def test_arraysize_defaults_and_override(self, conn):
        cursor = conn.execute("SELECT n FROM numbers")
        assert cursor.arraysize == 1
        assert len(cursor.fetchmany()) == 1
        cursor.arraysize = 10
        assert len(cursor.fetchmany()) == 10
        assert len(cursor.fetchmany(5)) == 5

    def test_iteration_protocol_streams_everything(self, conn):
        cursor = conn.execute("SELECT v FROM numbers")
        assert sum(v for (v,) in cursor) == sum(range(1, N_ROWS + 1))

    def test_rowcount_drains_but_preserves_fetch_position(self, conn):
        cursor = conn.execute("SELECT n FROM numbers")
        assert cursor.rowcount == N_ROWS
        assert cursor.fetchone() == (1,)

    def test_result_property_interleaves_with_fetching(self, conn):
        cursor = conn.execute("SELECT n FROM numbers")
        assert cursor.fetchone() == (1,)
        result = cursor.result
        assert result.rowcount == N_ROWS
        assert result.columns == ["n"]
        # fetching continues where it left off
        assert cursor.fetchone() == (2,)


class TestLazyExecution:
    """Rows are pulled lazily, a scan batch at a time."""

    def test_limit_stops_pulling_from_scan_early(self, conn):
        cursor = conn.execute("SELECT v FROM numbers LIMIT 5")
        assert len(cursor.fetchall()) == 5
        assert scan_of(cursor).rows_scanned == BATCH_ROWS

    def test_fetchone_pulls_incrementally(self, conn):
        cursor = conn.execute("SELECT v FROM numbers")
        assert scan_of(cursor).rows_scanned == 0  # nothing pulled yet
        cursor.fetchone()
        assert scan_of(cursor).rows_scanned == BATCH_ROWS
        cursor.fetchmany(10)  # served from the batch already pulled
        assert scan_of(cursor).rows_scanned == BATCH_ROWS
        cursor.fetchmany(BATCH_ROWS)
        assert scan_of(cursor).rows_scanned == 2 * BATCH_ROWS

    def test_filtered_limit_scans_only_what_it_needs(self, conn):
        cursor = conn.execute("SELECT v FROM numbers WHERE v % 2 = 0 LIMIT 3")
        assert cursor.fetchall() == [(2,), (4,), (6,)]
        assert scan_of(cursor).rows_scanned == BATCH_ROWS
        # The even rows of the first batch fall short of this limit.
        limit = BATCH_ROWS // 2 + 1
        cursor = conn.execute(f"SELECT v FROM numbers WHERE v % 2 = 0 LIMIT {limit}")
        assert cursor.fetchall()[-1] == (2 * limit,)
        assert scan_of(cursor).rows_scanned == 2 * BATCH_ROWS

    def test_full_scan_without_limit_reads_all_rows(self, conn):
        cursor = conn.execute("SELECT v FROM numbers")
        cursor.fetchall()
        assert scan_of(cursor).rows_scanned == N_ROWS

    def test_order_by_limit_must_still_scan_everything(self, conn):
        # Sort is a blocking operator: LIMIT cannot cut the scan short.
        cursor = conn.execute("SELECT v FROM numbers ORDER BY v DESC LIMIT 1")
        assert cursor.fetchall() == [(N_ROWS,)]
        assert scan_of(cursor).rows_scanned == N_ROWS

    def test_limit_offset_streams_correct_window(self, conn):
        cursor = conn.execute("SELECT n FROM numbers LIMIT 3 OFFSET 10")
        assert cursor.fetchall() == [(11,), (12,), (13,)]
        assert scan_of(cursor).rows_scanned == BATCH_ROWS
        # An offset inside a later batch skips the earlier ones whole.
        offset = BATCH_ROWS + 10
        cursor = conn.execute(f"SELECT n FROM numbers LIMIT 3 OFFSET {offset}")
        assert cursor.fetchall() == [(offset + 1,), (offset + 2,), (offset + 3,)]
        assert scan_of(cursor).rows_scanned == 2 * BATCH_ROWS

    def test_snapshot_taken_at_execute_time(self, conn):
        cursor = conn.execute("SELECT count(*) FROM numbers")
        conn.execute("INSERT INTO numbers (n, v) VALUES (?, ?)", (N_ROWS + 1, 0))
        # the count reflects the table as of execute(), not fetch time
        assert cursor.fetchone() == (N_ROWS,)


class TestCursorLifecycle:
    def test_close_mid_stream_abandons_rest(self, conn):
        cursor = conn.execute("SELECT n FROM numbers")
        assert cursor.fetchmany(2) == [(1,), (2,)]
        scan = scan_of(cursor)
        cursor.close()
        assert scan.rows_scanned == BATCH_ROWS  # nothing more was pulled
        with pytest.raises(ExecutionError):
            cursor.fetchone()
        with pytest.raises(ExecutionError):
            cursor.execute("SELECT 1")

    def test_new_execute_discards_previous_stream(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT n FROM numbers")
        cursor.fetchone()
        cursor.execute("SELECT n FROM numbers WHERE n > ?", (50,))
        assert cursor.fetchone() == (51,)

    def test_failed_execute_mid_stream_clears_rows(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT n FROM numbers")
        cursor.fetchone()
        with pytest.raises(UnknownColumnError):
            cursor.execute("SELECT nonexistent FROM numbers")
        with pytest.raises(ExecutionError):
            cursor.fetchone()

    def test_description_available_before_first_fetch(self, conn):
        cursor = conn.execute("SELECT n, v AS val FROM numbers")
        assert [d[0] for d in cursor.description] == ["n", "val"]
        assert scan_of(cursor).rows_scanned == 0

    def test_expansion_triggers_at_execute_not_fetch(self, conn):
        calls = []

        def handler(table: str, column: str) -> bool:
            calls.append((table, column))
            conn.add_perceptual_column(table, column)
            storage = conn.table(table)
            storage.fill_values(column, {rowid: 1.0 for rowid in storage.rowids()})
            return True

        conn.set_expansion_handler(handler)
        cursor = conn.cursor().execute("SELECT n FROM numbers WHERE shiny > 0.5")
        assert calls == [("numbers", "shiny")]  # before any fetch
        assert cursor.rowcount == N_ROWS


class _ConstantSource:
    """ValueSource answering every cell with one value."""

    def request_values_with_quality(self, attribute, items, *, policy, tracker):
        return Dispatch({rowid: 1.0 for rowid, _row in items})


@pytest.fixture(params=["memory", "durable"])
def grouped(request, tmp_path) -> Connection:
    """40 rows in 4 groups; ``p`` is a perceptual column left MISSING."""
    connection = connect(path=tmp_path / "db") if request.param == "durable" else connect()
    connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", [(i, i % 4, i) for i in range(1, 41)])
    connection.add_perceptual_column("t", "p")
    yield connection
    connection.close()


class TestPulledRowsAreNotShared:
    """Scans hand each query rows of its own, so a write between two fetches
    never reaches rows an open cursor has already pulled or returned."""

    GROUPED = "SELECT g, sum(v), count(p) FROM t GROUP BY g"

    def test_update_between_fetches(self, grouped):
        expected = grouped.execute(self.GROUPED).fetchall()
        streaming = grouped.cursor().execute("SELECT id, v FROM t")
        aggregated = grouped.cursor().execute(self.GROUPED)
        returned = streaming.fetchmany(5)
        # The Aggregate pulls every row at the first fetch and evaluates
        # each group's sums only when that group is fetched.
        first_group = aggregated.fetchmany(1)
        grouped.execute("UPDATE t SET v = v + 1000")
        assert returned == [(i, i) for i in range(1, 6)]
        assert first_group + aggregated.fetchall() == expected
        assert grouped.execute("SELECT sum(v) FROM t").fetchone() == (820 + 40_000,)

    def test_crowd_write_back_between_fetches(self, grouped):
        aggregated = grouped.cursor().execute(self.GROUPED)
        first_group = aggregated.fetchmany(1)
        filler = Connection(grouped.catalog)
        filler.set_value_source(_ConstantSource())
        assert len(filler.execute("SELECT id FROM t WHERE p > 0").fetchall()) == 40
        # The write-back filled every stored cell, but the rows the open
        # cursor holds keep the MISSING values it pulled.
        assert [row[2] for row in first_group + aggregated.fetchall()] == [0, 0, 0, 0]
        assert grouped.execute("SELECT count(p) FROM t").fetchone() == (40,)
