"""Differential tests: the repro SQL engine vs. the sqlite3 reference.

Random tables and a family of query shapes (filters, aggregates, grouping,
ordering, joins) are executed on both engines; results must agree.  Query
shapes are restricted to the semantics both engines share (no NULLs in
ordering keys, no integer division), which covers everything the
schema-expansion workloads use.
"""

from __future__ import annotations

import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.client
from repro.db.connection import Connection, connect
from repro.db.storage import BATCH_ROWS
from repro.errors import PlanningError
from repro.server import ReproServer, ServerConfig
from repro.utils.rng import ensure_rng

_NAMES = ("alpha", "beta", "gamma", "delta", "rho", "omega")


@st.composite
def table_rows(draw):
    """Random (id, name, year, score) rows with unique ids.

    Every table is larger than two scan batches, so each query shape pulls
    several batches and joins probe more than one.
    """
    n = draw(st.integers(min_value=2 * BATCH_ROWS + 1, max_value=3 * BATCH_ROWS))
    # One drawn seed: hundreds of separate draws per example would cost
    # more than the queries.
    rng = ensure_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = rng.integers(0, len(_NAMES), size=n).tolist()
    years = rng.integers(1950, 2013, size=n).tolist()
    scores = rng.integers(0, 101, size=n).tolist()
    return [(index + 1, _NAMES[names[index]], years[index], scores[index]) for index in range(n)]


_MOVIES = (
    "CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT, year INTEGER, score INTEGER)"
)


def both(rows, sql: str):
    """Run *sql* on our engine and on sqlite3; return (ours, reference) rows.

    Our engine runs twice: in memory, and durable with a buffer pool of
    two 512-byte pages, far smaller than the heap, so its scans evict
    between page runs.  The two must return the same rows in the same
    order.
    """
    reference = sqlite3.connect(":memory:")
    with tempfile.TemporaryDirectory() as tmp:
        durable = connect(path=f"{tmp}/db", synchronous="off", buffer_pool_pages=2, page_size=512)
        engines = (Connection(), durable, reference)
        try:
            for engine in engines:
                engine.execute(_MOVIES)
                engine.executemany("INSERT INTO movies VALUES (?, ?, ?, ?)", rows)
            mine, paged, theirs = (
                [tuple(row) for row in engine.execute(sql).fetchall()] for engine in engines
            )
        finally:
            durable.close()
            reference.close()
    assert paged == mine, sql
    return mine, theirs


def normalise(rows):
    """Sort rows so order-insensitive comparisons are stable."""
    return sorted(tuple(float(c) if isinstance(c, (int, float)) else c for c in row) for row in rows)


common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDifferentialAgainstSqlite:
    @common_settings
    @given(table_rows(), st.integers(1950, 2012))
    def test_filter_and_projection(self, rows, threshold):
        sql = f"SELECT name, year FROM movies WHERE year >= {threshold}"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows(), st.integers(0, 100), st.integers(0, 100))
    def test_between_and_conjunction(self, rows, low, high):
        low, high = min(low, high), max(low, high)
        sql = (
            f"SELECT movie_id FROM movies WHERE score BETWEEN {low} AND {high} "
            f"AND year > 1960"
        )
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows(), st.sampled_from(_NAMES))
    def test_string_equality_and_in(self, rows, name):
        sql = f"SELECT movie_id FROM movies WHERE name = '{name}' OR year IN (1960, 1980, 2000)"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows())
    def test_like_prefix(self, rows):
        sql = "SELECT name FROM movies WHERE name LIKE 'a%'"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows())
    def test_global_aggregates(self, rows):
        sql = "SELECT count(*), min(year), max(year), sum(score) FROM movies"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows())
    def test_group_by_having(self, rows):
        sql = (
            "SELECT name, count(*), max(score) FROM movies "
            "GROUP BY name HAVING count(*) >= 1"
        )
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows(), st.integers(1, 5))
    def test_order_by_with_limit(self, rows, limit):
        sql = (
            f"SELECT movie_id, score FROM movies ORDER BY score DESC, movie_id ASC LIMIT {limit}"
        )
        mine, theirs = both(rows, sql)
        assert mine == theirs  # order-sensitive comparison

    @common_settings
    @given(
        table_rows(),
        st.integers(0, 100),
        st.integers(1, BATCH_ROWS),
        st.integers(0, 2 * BATCH_ROWS),
        st.booleans(),
    )
    def test_limit_offset_window(self, rows, threshold, limit, offset, ordered):
        """An unordered LIMIT stops the scan inside a batch; an OFFSET up to
        two batches deep starts the window inside a later one."""
        sql = (
            f"SELECT movie_id, score FROM movies WHERE score >= {threshold} "
            + ("ORDER BY score DESC, movie_id " if ordered else "")
            + f"LIMIT {limit} OFFSET {offset}"
        )
        mine, theirs = both(rows, sql)
        assert mine == theirs  # order-sensitive: both scan in rowid order

    @common_settings
    @given(table_rows())
    def test_distinct(self, rows):
        sql = "SELECT DISTINCT name FROM movies"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows())
    def test_arithmetic_projection(self, rows):
        sql = "SELECT movie_id, score * 2 + 1 FROM movies WHERE score * 2 > 50"
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)

    @common_settings
    @given(table_rows())
    def test_self_join_on_year(self, rows):
        sql = (
            "SELECT a.movie_id, b.movie_id FROM movies a JOIN movies b "
            "ON a.year = b.year WHERE a.movie_id < b.movie_id"
        )
        mine, theirs = both(rows, sql)
        assert normalise(mine) == normalise(theirs)


_EXTRA_COLUMNS = ("a", "b", "c")
_COMPARISONS = ("<", "<=", ">", ">=", "=")
#: Rows bulk-loaded before each generated sequence: about a dozen pages
#: at the harness's 512-byte page size, so scans cross page boundaries.
_BULK_ROWS = 150


@st.composite
def op_sequences(draw):
    """A random schema plus a random INSERT/UPDATE/DELETE/SELECT sequence.

    Every operation is rendered as a SQL string valid on both engines; the
    value domain is NULL-free so ordering semantics agree (the engines
    diverge only on NULL placement, which :mod:`test_ordering_regression`
    covers on our side alone).
    """
    columns = draw(
        st.lists(st.sampled_from(_EXTRA_COLUMNS), min_size=1, max_size=3, unique=True)
    )
    indexed = draw(st.sampled_from(columns))
    # The bulk comes from one drawn seed: hundreds of separate draws per
    # example would cost more than the sequence itself.
    rng = ensure_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.integers(0, 41, size=(_BULK_ROWS, len(columns))).tolist()
    bulk = [(pk, *row) for pk, row in enumerate(values, start=1)]
    ops: list[tuple[str, str, tuple[int, ...]]] = []
    next_pk = _BULK_ROWS + 1
    for _ in range(draw(st.integers(min_value=4, max_value=12))):
        kind = draw(st.sampled_from(("insert", "insert", "update", "delete", "select")))
        if kind == "insert":
            values = [str(next_pk)] + [
                str(draw(st.integers(min_value=0, max_value=40))) for _ in columns
            ]
            ops.append(("write", f"INSERT INTO t VALUES ({', '.join(values)})", ()))
            next_pk += 1
        elif kind == "update":
            target = draw(st.sampled_from(columns))
            where = draw(st.sampled_from(columns))
            cmp = draw(st.sampled_from(_COMPARISONS))
            value = draw(st.integers(min_value=0, max_value=40))
            bound = draw(st.integers(min_value=0, max_value=40))
            ops.append(
                ("write", f"UPDATE t SET {target} = {value} WHERE {where} {cmp} {bound}", ())
            )
        elif kind == "delete":
            where = draw(st.sampled_from(columns))
            cmp = draw(st.sampled_from(_COMPARISONS))
            bound = draw(st.integers(min_value=0, max_value=40))
            ops.append(("write", f"DELETE FROM t WHERE {where} {cmp} {bound}", ()))
        else:
            where = draw(st.sampled_from(columns))
            shape = draw(st.sampled_from(("range", "between", "ordered", "point")))
            low = draw(st.integers(min_value=0, max_value=40))
            high = draw(st.integers(min_value=0, max_value=40))
            low, high = min(low, high), max(low, high)
            if shape == "range":
                cmp = draw(st.sampled_from(_COMPARISONS))
                ops.append(("multiset", f"SELECT * FROM t WHERE {where} {cmp} {low}", ()))
            elif shape == "between":
                ops.append(
                    ("multiset", f"SELECT * FROM t WHERE {where} BETWEEN {low} AND {high}", ())
                )
            elif shape == "point":
                # Equality on the primary key or the indexed column, bound
                # as a parameter: the point-probe access path.
                if draw(st.booleans()):
                    key = draw(st.integers(min_value=1, max_value=next_pk))
                    ops.append(("multiset", "SELECT * FROM t WHERE pk = ?", (key,)))
                else:
                    ops.append(("multiset", f"SELECT * FROM t WHERE {indexed} = ?", (low,)))
            else:
                direction = draw(st.sampled_from(("ASC", "DESC")))
                ops.append(
                    (
                        "ordered",
                        f"SELECT pk, {where} FROM t WHERE {where} >= {low} "
                        f"ORDER BY {where} {direction}, pk ASC",
                        (),
                    )
                )
    # Always end with a full-table audit so writes are compared even when
    # no SELECT was drawn.
    ops.append(("multiset", "SELECT * FROM t", ()))
    return columns, indexed, bulk, ops


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A wire connection to one durable, eviction-stressed server for the module."""
    config = ServerConfig(
        port=0,
        path=tmp_path_factory.mktemp("served") / "db",
        synchronous="off",
        buffer_pool_pages=2,
    )
    with ReproServer(config) as server:
        conn = repro.client.connect(*server.address, tenant="differential")
        yield conn
        conn.close()


@pytest.mark.usefixtures("fail_on_server_loop_errors")
class TestGenerativeDifferential:
    """Random write/read sequences on a paged, eviction-stressed store.

    The engine runs durable with a deliberately tiny buffer pool so every
    sequence churns pages through eviction and write-back; sqlite3 is the
    oracle.  Each sequence starts from a bulk load spanning about a dozen
    pages, so scans read many page runs, evict between them, and meet
    UPDATEs that moved records to later pages.  The same sequence also runs
    through ``repro.client`` against a served engine (its table recreated
    per sequence), so embedded, served and sqlite3 must all agree.
    Divergence on any of the 200 generated sequences fails.
    """

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(op_sequences())
    def test_random_sequences_match_sqlite(self, served, spec):
        import tempfile

        columns, indexed, bulk, ops = spec
        decls = ", ".join(f"{name} INTEGER" for name in columns)
        served.execute("DROP TABLE IF EXISTS t")
        with tempfile.TemporaryDirectory() as tmp:
            from repro.db.connection import connect

            ours = connect(path=f"{tmp}/db", buffer_pool_pages=2, page_size=512)
            reference = sqlite3.connect(":memory:")
            engines = (ours, reference, served)
            try:
                for engine in engines:
                    engine.execute(f"CREATE TABLE t (pk INTEGER PRIMARY KEY, {decls})")
                insert = f"INSERT INTO t VALUES ({', '.join('?' * (len(columns) + 1))})"
                for engine in engines:
                    engine.executemany(insert, bulk)
                ours.execute(f"CREATE INDEX ON t ({indexed})")
                reference.execute(f"CREATE INDEX idx_diff ON t ({indexed})")
                served.execute(f"CREATE INDEX ON t ({indexed})")
                for mode, sql, params in ops:
                    mine, theirs, remote = (
                        [tuple(row) for row in engine.execute(sql, params).fetchall()]
                        for engine in engines
                    )
                    if mode == "multiset":
                        assert normalise(mine) == normalise(theirs) == normalise(remote), sql
                    elif mode == "ordered":
                        assert mine == theirs == remote, sql
            finally:
                ours.close()
                reference.close()


_AGGREGATES = ("count(*)", "count({c})", "sum({c})", "min({c})", "max({c})", "avg({c})")


@st.composite
def int_rows(draw, columns: int, min_size: int = 0, nulls: bool = False):
    """Rows ``(pk, v1, ..., vN)`` over a small domain (many ties).

    NULL-free unless *nulls*, which makes about one value in five NULL.
    """
    n = draw(st.integers(min_value=min_size, max_value=30))
    value = st.integers(min_value=0, max_value=6)
    if nulls:
        value = st.one_of(st.none(), value, value, value, value)
    return [(pk, *(draw(value) for _ in range(columns))) for pk in range(1, n + 1)]


def load_both(tables):
    """Both engines holding *tables* (``name -> (column names, rows)``)."""
    ours = Connection()
    reference = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        decl = ", ".join(["pk INTEGER PRIMARY KEY"] + [f"{column} INTEGER" for column in columns])
        for engine_exec in (ours.run_statement, reference.execute):
            engine_exec(f"CREATE TABLE {name} ({decl})")
        placeholders = ", ".join("?" * (len(columns) + 1))
        ours.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
        reference.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
    return ours, reference


def run_both(tables, sql, reference_sql=None, *, operator=None):
    """Load *tables* (``name -> (column names, rows)``) into both engines and run *sql*.

    sqlite runs *reference_sql* instead when given (its spelling of *sql*).
    With *operator*, our engine's plan for *sql* must contain it.
    """
    ours, reference = load_both(tables)
    try:
        if operator is not None:
            assert operator in ours.explain(sql), sql
        mine = [tuple(row) for row in ours.run_statement(sql).rows]
        theirs = [tuple(row) for row in reference.execute(reference_sql or sql).fetchall()]
    finally:
        reference.close()
    return mine, theirs


def approx_rows(rows):
    """Rows with numbers as floats rounded past summation noise (for AVG)."""
    return [
        tuple(round(float(c), 9) if isinstance(c, (int, float)) else c for c in row)
        for row in rows
    ]


class TestGeneratedQueryShapes:
    """Generated GROUP BY/HAVING, multi-key ORDER BY and inner equi-joins.

    Integer domains keep both engines on shared semantics; every ORDER BY
    ends in a unique key so the expected order is total.  The ORDER BY
    shape draws NULL-bearing keys and asks sqlite for the engine's NULLS
    LAST in both directions.
    """

    @common_settings
    @given(
        int_rows(3),
        st.sampled_from(("a", "b", "c")),
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=3),
        st.sampled_from(("a", "b", "c")),
        st.sampled_from(_COMPARISONS),
        st.integers(0, 12),
        st.booleans(),
    )
    def test_group_by_having(self, rows, group, aggregates, argument, cmp, bound, where):
        selected = ", ".join(a.format(c=argument) for a in aggregates)
        sql = (
            f"SELECT {group}, {selected} FROM t "
            + (f"WHERE {argument} {cmp} {bound % 7} " if where else "")
            + f"GROUP BY {group} HAVING {aggregates[0].format(c=argument)} {cmp} {bound}"
        )
        mine, theirs = run_both({"t": (("a", "b", "c"), rows)}, sql)
        assert sorted(approx_rows(mine)) == sorted(approx_rows(theirs)), sql

    @common_settings
    @given(
        int_rows(3, nulls=True),
        st.lists(
            st.tuples(st.sampled_from(("a", "b", "c", "a + b", "c * 2 - a")), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
        st.integers(0, 40),
        st.integers(0, 35),
    )
    def test_multi_key_order_by(self, rows, keys, pk_descending, limit, offset):
        def statement(nulls_last: str) -> str:
            order = ", ".join(
                f"{key} {'ASC' if ascending else 'DESC'}{nulls_last}" for key, ascending in keys
            )
            return (
                f"SELECT pk, a, b, c FROM t ORDER BY {order}, pk "
                f"{'DESC' if pk_descending else 'ASC'} LIMIT {limit} OFFSET {offset}"
            )

        sql = statement("")
        mine, theirs = run_both({"t": (("a", "b", "c"), rows)}, sql, statement(" NULLS LAST"))
        assert mine == theirs, sql

    @common_settings
    @given(
        int_rows(2),
        int_rows(2),
        st.sampled_from(("a", "b")),
        st.sampled_from(("x", "y")),
        st.sampled_from(_COMPARISONS),
        st.integers(0, 6),
        st.booleans(),
    )
    def test_inner_equi_join(self, left, right, left_key, right_key, cmp, bound, grouped):
        tables = {"t": (("a", "b"), left), "u": (("x", "y"), right)}
        join = f"FROM t JOIN u ON t.{left_key} = u.{right_key} WHERE u.y {cmp} {bound}"
        if grouped:
            sql = f"SELECT t.a, count(*), sum(u.x) {join} GROUP BY t.a"
            mine, theirs = run_both(tables, sql)
            assert sorted(mine) == sorted(theirs), sql
        else:
            sql = f"SELECT t.pk, u.pk, t.b, u.x {join} ORDER BY t.b DESC, t.pk, u.pk"
            mine, theirs = run_both(tables, sql)
            assert mine == theirs, sql


    @common_settings
    @given(
        int_rows(2, nulls=True),
        int_rows(2, nulls=True),
        st.sampled_from(("a", "b")),
        st.sampled_from(("x", "y")),
        st.sampled_from(("t.b", "u.y", "u.pk")),
        st.sampled_from((*_COMPARISONS, "IS NULL", "IS NOT NULL")),
        st.integers(0, 6),
    )
    def test_left_join_with_where_on_either_side(
        self, left, right, left_key, right_key, column, cmp, bound
    ):
        tables = {"t": (("a", "b"), left), "u": (("x", "y"), right)}
        where = f"{column} {cmp}" + ("" if cmp.startswith("IS") else f" {bound}")
        # An unmatched t row is the only row of its t.pk: the order is total.
        sql = (
            f"SELECT t.pk, u.pk, t.{left_key}, u.y FROM t LEFT JOIN u "
            f"ON t.{left_key} = u.{right_key} WHERE {where} ORDER BY t.pk, u.pk"
        )
        mine, theirs = run_both(tables, sql, operator="HashJoin LEFT")
        assert mine == theirs, sql

    @common_settings
    @given(
        int_rows(2, nulls=True),
        int_rows(2, nulls=True),
        st.sampled_from(("JOIN", "LEFT JOIN")),
        st.sampled_from(("a", "b", "a + b")),
        st.sampled_from(("<", "<=", ">", ">=", "!=")),
        st.sampled_from(("x", "y")),
    )
    def test_non_equi_join(self, left, right, kind, left_side, cmp, right_key):
        tables = {"t": (("a", "b"), left), "u": (("x", "y"), right)}
        sql = (
            f"SELECT t.pk, u.pk, b, x FROM t {kind} u ON {left_side} {cmp} u.{right_key} "
            "ORDER BY t.pk, u.pk"
        )
        mine, theirs = run_both(tables, sql, operator="NestedLoopJoin")
        assert mine == theirs, sql

    @common_settings
    @given(
        int_rows(2),
        int_rows(2),
        int_rows(2),
        st.sampled_from(("JOIN", "LEFT JOIN")),
        st.sampled_from(("u.y = v.p", "t.b = v.q", "v.p < t.a + u.x")),
        st.sampled_from(("v.q", "t.a", "u.y")),
        st.integers(0, 6),
    )
    def test_three_table_join(self, first, second, third, kind, on, column, bound):
        tables = {"t": (("a", "b"), first), "u": (("x", "y"), second), "v": (("p", "q"), third)}
        # ``b`` and ``q`` are bare names each of one table: they resolve to its slot.
        sql = (
            f"SELECT t.pk, u.pk, v.pk, b, q FROM t JOIN u ON t.a = u.x {kind} v ON {on} "
            f"WHERE {column} IS NULL OR {column} <= {bound} ORDER BY t.pk, u.pk, v.pk"
        )
        mine, theirs = run_both(tables, sql)
        assert mine == theirs, sql

    @common_settings
    @given(
        int_rows(2),
        int_rows(2),
        st.sampled_from(("s", "k", "y", "u.y", "b", "t.b")),
        st.booleans(),
        st.integers(0, 20),
    )
    def test_order_by_alias_and_non_projected_column_over_a_join(
        self, left, right, key, descending, limit
    ):
        tables = {"t": (("a", "b"), left), "u": (("x", "y"), right)}
        # s and k are output aliases; y, u.y, b and t.b are not projected.
        sql = (
            "SELECT t.pk AS k, u.pk, u.x + t.b AS s FROM t JOIN u ON t.a = u.x "
            f"ORDER BY {key}{' DESC' if descending else ''}, k, u.pk LIMIT {limit}"
        )
        mine, theirs = run_both(tables, sql)
        assert mine == theirs, sql

    @common_settings
    @given(
        int_rows(2),
        int_rows(2),
        st.sampled_from(("t.a, u.y", "b, y", "u.x + t.b")),
        st.sampled_from(("t.a = u.x", "t.b <= u.y")),
    )
    def test_distinct_over_a_join(self, left, right, columns, on):
        tables = {"t": (("a", "b"), left), "u": (("x", "y"), right)}
        sql = f"SELECT DISTINCT {columns} FROM t JOIN u ON {on}"
        mine, theirs = run_both(tables, sql)
        assert len(mine) == len(set(mine)), sql
        assert sorted(mine) == sorted(theirs), sql

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT count(*) + a, max(b) FROM t WHERE a > 5",
            "SELECT count(*) + u.x, min(b) FROM t JOIN u ON t.a = u.x WHERE u.y > 5",
        ],
        ids=["one_table", "join"],
    )
    def test_global_aggregate_over_no_rows_reads_null_columns(self, sql):
        tables = {"t": (("a", "b"), [(1, 2, 3)]), "u": (("x", "y"), [(1, 2, 3)])}
        mine, theirs = run_both(tables, sql)
        assert mine == theirs == [(None, None)], sql

    #: ``t(g, v)`` with rows ``(i, i % 3, i)`` for i < 10: groups of 4, 3 and 3.
    _GROUPS = {"t": (("g", "v"), [(i, i % 3, i) for i in range(10)])}

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT g, abs(sum(v)) FROM t GROUP BY g ORDER BY g", [(0, 18), (1, 12), (2, 15)]),
            (
                "SELECT g, coalesce(sum(v), 0) FROM t GROUP BY g ORDER BY g",
                [(0, 18), (1, 12), (2, 15)],
            ),
            (
                "SELECT g, CASE WHEN count(*) > 3 THEN 'big' ELSE 'small' END FROM t "
                "GROUP BY g ORDER BY g",
                [(0, "big"), (1, "small"), (2, "small")],
            ),
            (
                "SELECT g, sum(v) FROM t GROUP BY g HAVING abs(sum(v)) > 12 ORDER BY g",
                [(0, 18), (2, 15)],
            ),
        ],
        ids=["function", "coalesce", "case", "having"],
    )
    def test_aggregate_inside_a_function_case_or_having(self, sql, expected):
        mine, theirs = run_both(self._GROUPS, sql)
        assert mine == theirs == expected, sql

    @pytest.mark.parametrize(
        "first, sql, expected",
        [
            (
                0,
                "SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY sum(v) + 0 DESC",
                [(0, 18), (2, 15), (1, 12)],
            ),
            (
                1,
                "SELECT g, count(*) FROM t GROUP BY g ORDER BY count(*) DESC, g",
                [(1, 4), (0, 3), (2, 3)],
            ),
            (0, "SELECT g FROM t GROUP BY g ORDER BY max(v) - min(v), g", [(1,), (2,), (0,)]),
        ],
        ids=["expression", "count_then_key", "not_projected"],
    )
    def test_order_by_an_aggregate_expression_sorts_by_the_whole_group(
        self, first, sql, expected
    ):
        # Rows (i, i % 3, i) for i from *first*: groups of unequal size.
        tables = {"t": (("g", "v"), [(i, i % 3, i) for i in range(first, first + 10)])}
        mine, theirs = run_both(tables, sql)
        assert mine == theirs == expected, sql

    @pytest.mark.parametrize("rows", [[], [(1, 2, 3)]], ids=["empty", "non_empty"])
    def test_ambiguous_self_join_column_is_refused_whatever_the_data(self, rows):
        ours, reference = load_both({"t": (("a", "b"), rows)})
        sql = "SELECT a FROM t x JOIN t y ON x.pk = y.pk"
        try:
            with pytest.raises(PlanningError, match="ambiguous"):
                ours.run_statement(sql)
            with pytest.raises(sqlite3.OperationalError, match="ambiguous"):
                reference.execute(sql)
        finally:
            reference.close()


class TestKnownSemanticDifferencesAreContained:
    """Behaviours where the engine intentionally differs from sqlite."""

    def test_missing_marker_has_no_sqlite_equivalent(self):
        db = Connection()
        db.run_statement("CREATE TABLE t (a INTEGER, humor REAL PERCEPTUAL)")
        db.run_statement("INSERT INTO t (a) VALUES (1)")
        assert db.run_statement("SELECT count(*) FROM t WHERE humor IS MISSING").scalar() == 1
        assert db.run_statement("SELECT count(humor) FROM t").scalar() == 0

    def test_true_division_for_integers(self):
        db = Connection()
        db.run_statement("CREATE TABLE t (a INTEGER)")
        db.run_statement("INSERT INTO t VALUES (3)")
        assert db.run_statement("SELECT a / 2 FROM t").scalar() == pytest.approx(1.5)
