"""Per-batch kernels agree with the closures of ``compile_expression``.

The closures are the reference semantics: for every row a kernel returns
exactly what the closures return, raises exactly where they raise, and,
bound to an execution, surfaces the closures' own error.
"""

from __future__ import annotations

import math
from types import CodeType

import pytest
from test_expressions import EVALUATION_TABLE, select_expr

from repro.db import connect
from repro.db.sql import ast, kernels
from repro.db.sql.expressions import (
    RowLayout,
    compile_expression,
    compile_predicate,
    hashable_key,
)
from repro.db.types import MISSING
from repro.errors import ExecutionError

_BASE = {"n": 5, "x": 2.5, "s": "Rocky", "z": 0, "nul": None, "mis": MISSING, "yes": True}

#: Rows over the columns of ``_BASE``: NULL, MISSING, NaN, bool and mixed
#: types in every position an expression of the table reads.
ROWS = [
    _BASE,
    {**_BASE, "n": None},
    {**_BASE, "n": MISSING},
    {**_BASE, "n": math.nan, "x": math.nan},
    {**_BASE, "n": True, "yes": False},
    {**_BASE, "n": "5", "s": 7},
    {**_BASE, "x": 0, "z": 2.0, "yes": None},
    {**_BASE, "s": None, "yes": MISSING, "nul": 0},
    {**_BASE, "n": -3, "x": "a", "z": False},
]

LAYOUT = RowLayout((("t", frozenset(_BASE)),))
EXPRESSIONS = [expression for expression, _expected in EVALUATION_TABLE] + [
    "n < ?",
    "? IN (n, 1)",
    "n BETWEEN ? AND ?",
    "n IN (x, z, ?)",
    "coalesce(?, n)",
    "nul AND 'x' + 1",
    "mis OR 'x' + 1",
    "z < s AND FALSE",
    "CASE WHEN n > ? THEN s ELSE x END",
]
PARAMS = (3, 5.0)


def same(left, right) -> bool:
    """Equal values of the same type (NaN equals NaN)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) and all(map(same, left, right))
    return left is right or left == right or (left != left and right != right)


def outcome(function, *args):
    """``("value", result)`` or ``("error", type, message)`` of a call."""
    try:
        return ("value", function(*args))
    except Exception as error:
        return ("error", type(error), str(error))


def pipeline(row):
    return (row,)


@pytest.mark.parametrize("sql_expression", EXPRESSIONS)
class TestKernelsAgreeWithClosures:
    def test_project(self, sql_expression):
        expr = select_expr(sql_expression)
        kernel = kernels.project_kernel([expr], LAYOUT)
        assert kernel.generated is not None
        closure = compile_expression(expr, PARAMS, LAYOUT)
        run = kernel.bind(PARAMS)
        good = []
        for row in map(pipeline, ROWS):
            expected = outcome(closure, row)
            generated = outcome(kernel.generated, [row], PARAMS)
            if expected[0] == "error":
                # The kernel raises too, and the bound kernel raises the
                # closures' own error.
                assert generated[0] == "error", (sql_expression, row)
                assert outcome(run, [row]) == expected, (sql_expression, row)
            else:
                good.append(row)
                assert generated[0] == "value", (sql_expression, row, generated)
                assert same(generated[1][0][0], (expected[1],)), (sql_expression, row)
                assert generated[1][0][1] is row
        batch = kernel.generated(good, PARAMS)
        assert [pair[1] for pair in batch] == good
        assert all(same(values, (closure(row),)) for (values, _row), row in zip(batch, good))

    def test_filter(self, sql_expression):
        expr = select_expr(sql_expression)
        kernel = kernels.filter_kernel(expr, LAYOUT)
        assert kernel.generated is not None
        predicate = compile_predicate(expr, PARAMS, LAYOUT)
        run = kernel.bind(PARAMS)
        good = []
        for row in map(pipeline, ROWS):
            expected = outcome(predicate, row)
            generated = outcome(kernel.generated, [row], PARAMS)
            if expected[0] == "error":
                assert generated[0] == "error", (sql_expression, row)
                assert outcome(run, [row]) == expected, (sql_expression, row)
            else:
                good.append(row)
                assert generated == ("value", [row] if expected[1] else []), (sql_expression, row)
        kept = [row for row in good if predicate(row)]
        assert kernel.generated(good, PARAMS) == kept
        assert run(good) == kept


class TestShortCircuit:
    def test_false_and_never_evaluates_its_right_side(self):
        kernel = kernels.project_kernel([select_expr("FALSE AND 'x' + 1")], LAYOUT)
        assert kernel.generated([(_BASE,)], ()) == [((False,), (_BASE,))]

    def test_null_and_evaluates_its_right_side(self):
        expr = select_expr("nul AND 'x' + 1")
        kernel = kernels.filter_kernel(expr, LAYOUT)
        with pytest.raises(ExecutionError):
            kernel.generated([(_BASE,)], ())
        with pytest.raises(ExecutionError, match="arithmetic on non-numeric values"):
            kernel.bind(())([(_BASE,)])

    def test_a_comparison_evaluates_both_sides_even_when_the_left_is_unknown(self):
        kernel = kernels.project_kernel([select_expr("nul < 'x' + 1")], LAYOUT)
        with pytest.raises(ExecutionError, match="arithmetic on non-numeric values"):
            kernel.bind(())([(_BASE,)])

    def test_a_failing_row_fails_the_batch_with_the_closures_error(self):
        rows = [({**_BASE, "n": n},) for n in (1, 2, "3", 4)]
        kernel = kernels.filter_kernel(select_expr("n > 1"), LAYOUT)
        with pytest.raises(ExecutionError, match="cannot compare '3' and 1"):
            kernel.bind(())(rows)


class TestProbeKernel:
    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_probe_matches_the_closure_probe(self, kind):
        key = ast.ColumnRef("n", "t")
        kernel = kernels.probe_kernel(key, LAYOUT)
        closure = compile_expression(key, (), LAYOUT)
        right = [{"k": value, "tag": i} for i, value in enumerate([5, 5.0, True, "5", 7])]
        table: dict = {}
        for row in right:
            table.setdefault(row["k"], []).append(row)
        null_row = {"k": None, "tag": None}
        pad = (null_row,) if kind == "left" else ()
        batch = [pipeline(row) for row in ROWS]
        expected = [r + (m,) for r in batch for m in (table.get(closure(r)) or pad)]
        assert kernel.generated(batch, (), table.get, pad) == expected
        assert kernel.bind(())(batch, table.get, pad) == expected
        assert any(joined[1] is null_row for joined in expected) is (kind == "left")


class TestGeneratedSourceHoldsNoSqlText:
    HOSTILE_COLUMN = 'a"b\'\nc'
    HOSTILE_LITERAL = '\'); __import__("os").system("x") #'

    @staticmethod
    def _constants(code: CodeType) -> set:
        found = set()
        for constant in code.co_consts:
            if isinstance(constant, CodeType):
                found |= TestGeneratedSourceHoldsNoSqlText._constants(constant)
            else:
                found.add(constant)
        return found | set(code.co_names)

    def test_names_and_literals_are_read_as_data(self):
        layout = RowLayout((("t", frozenset({self.HOSTILE_COLUMN})),))
        expr = ast.BinaryOp(
            "=", ast.ColumnRef(self.HOSTILE_COLUMN), ast.Literal(self.HOSTILE_LITERAL)
        )
        project = kernels.project_kernel([ast.ColumnRef(self.HOSTILE_COLUMN), expr], layout)
        keep = kernels.filter_kernel(expr, layout)
        rows = [({self.HOSTILE_COLUMN: self.HOSTILE_LITERAL},), ({self.HOSTILE_COLUMN: "b"},)]
        assert project.generated(rows, ()) == [
            ((self.HOSTILE_LITERAL, True), rows[0]),
            (("b", False), rows[1]),
        ]
        assert keep.generated(rows, ()) == rows[:1]
        for kernel in (project, keep):
            constants = self._constants(kernel.generated.__code__)
            assert self.HOSTILE_COLUMN not in constants
            assert self.HOSTILE_LITERAL not in constants

    def test_a_hostile_literal_through_sql_is_data(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        conn.execute("INSERT INTO t VALUES (1, ?), (2, 'b')", (self.HOSTILE_LITERAL,))
        literal = self.HOSTILE_LITERAL.replace("'", "''")
        rows = conn.execute(f"SELECT id, s = '{literal}' FROM t WHERE s = '{literal}'").fetchall()
        assert [tuple(row) for row in rows] == [(1, True)]


class TestKernelsAreBuiltOncePerPlan:
    QUERY = (
        "SELECT u.grp, count(*), sum(t.v) + 1 FROM t JOIN u ON t.grp = u.grp "
        "WHERE t.v >= ? AND t.name LIKE 'n%' GROUP BY u.grp HAVING count(*) > ?"
    )

    def test_a_cached_plan_generates_and_compiles_nothing(self, monkeypatch):
        import repro.db.sql.expressions as expressions_module

        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER, name TEXT)")
        conn.execute("CREATE TABLE u (grp INTEGER PRIMARY KEY)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)", [(i, i % 4, i % 7, f"n{i}") for i in range(300)]
        )
        conn.executemany("INSERT INTO u VALUES (?)", [(g,) for g in range(4)])
        first = conn.execute(self.QUERY, (2, 10)).fetchall()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("compiled during a cached execution")

        monkeypatch.setattr(kernels, "_Source", forbidden)
        monkeypatch.setattr(kernels, "compile_expression", forbidden)
        monkeypatch.setattr(kernels, "compile_predicate", forbidden)
        monkeypatch.setattr(expressions_module, "compile_expression", forbidden)
        again = conn.execute(self.QUERY, (2, 10)).fetchall()
        other = conn.execute(self.QUERY, (5, 21)).fetchall()
        assert first == again and len(first) == 4
        assert other and len(other) < 4 and all(row[1] > 21 for row in other)

    def test_statements_of_one_shape_share_compiled_code(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(20)])
        before = kernels._code.cache_info()
        assert conn.execute("SELECT id FROM t WHERE v < 3").fetchall() == [(0,), (1,), (2,)]
        middle = kernels._code.cache_info()
        assert conn.execute("SELECT id FROM t WHERE v < 2").fetchall() == [(0,), (1,)]
        after = kernels._code.cache_info()
        assert after.misses == middle.misses
        assert after.hits > middle.hits and middle.misses >= before.misses

    def test_a_kernel_python_cannot_compile_runs_on_the_closures(self):
        from repro.db.sql.parser import parse_statement

        sql = "SELECT id FROM t WHERE " + " OR ".join(f"v = {i}" for i in range(0, 400, 3))
        where = parse_statement(sql).where
        layout = RowLayout((("t", frozenset({"id", "v"})),))
        assert kernels.filter_kernel(where, layout).generated is None
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(20)])
        assert [row[0] for row in conn.execute(sql).fetchall()] == [0, 3, 6, 9, 12, 15, 18]


# ---------------------------------------------------------------------------
# Aggregate exactness against reducing member lists
# ---------------------------------------------------------------------------


def reference_groups(rows, key, argument, distinct=False):
    """Per group key: (count, sum, avg, min, max) the way member lists reduce."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(hashable_key(key(row)), []).append(row)
    out = {}
    for group_key, members in groups.items():
        values = [argument(m) for m in members]
        values = [v for v in values if v is not None and v is not MISSING]
        if distinct:
            unique, seen = [], set()
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        out[group_key] = (
            len(values),
            sum(values) if values else None,
            sum(values) / len(values) if values else None,
            min(values) if values else None,
            max(values) if values else None,
        )
    return out


class TestAggregateExactness:
    @staticmethod
    def _load(values, groups):
        conn = connect()
        conn.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v REAL, p REAL PERCEPTUAL)"
        )
        for i, (value, group) in enumerate(zip(values, groups)):
            if group is MISSING:
                conn.execute("INSERT INTO t (id, g, v) VALUES (?, ?, ?)", (i, i % 2, value))
            else:
                conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, i % 2, value, group))
        return conn

    @pytest.mark.parametrize("distinct", [False, True], ids=["all", "distinct"])
    def test_mixed_magnitude_floats_ties_and_nan(self, distinct):
        values = [1e16, 1.0, -1e16, 3.3, 0.1, 0.1, 1e-8, 2.5, 2.5, math.nan, 7, 7.0, None, 1e300]
        groups = [1.0, 2.0, 1.0, MISSING, 2.0, 1.0, MISSING, 2.0, 2.0, 1.0, MISSING, 2.0, 1.0, 1.0]
        conn = self._load(values, groups)
        d = "DISTINCT " if distinct else ""
        rows = conn.execute(
            f"SELECT p, count({d}v), sum({d}v), avg({d}v), min({d}v), max({d}v) FROM t GROUP BY p"
        ).fetchall()
        stored = conn.execute("SELECT p, v FROM t").fetchall()
        expected = reference_groups(stored, lambda row: row[0], lambda row: row[1], distinct)
        assert [hashable_key(row[0]) for row in rows] == list(expected)  # first-seen order
        for row in rows:
            assert same(tuple(row[1:]), expected[hashable_key(row[0])]), row

    def test_min_and_max_keep_the_first_of_equal_values(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w REAL)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", [(1, 1, 1.0), (2, 1, 1.0), (3, 0, 1.0), (4, 0, 0.0)]
        )
        row = conn.execute("SELECT min(w), max(w), min(v = 1), max(v = 1) FROM t").fetchone()
        assert same(tuple(row), (min([1.0, 1.0, 1.0, 0.0]), max([1.0, 1.0, 1.0, 0.0]), False, True))

    def test_a_global_aggregate_over_no_input(self):
        conn = self._load([1.0], [2.0])
        row = conn.execute(
            "SELECT count(*), count(v), sum(v), avg(v), min(v), max(v), count(*) + v "
            "FROM t WHERE v > 5"
        ).fetchone()
        assert tuple(row) == (0, 0, None, None, None, None, None)

    def test_a_failing_argument_fails_the_query_with_the_closures_error(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, s TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [(i, i % 2, "a") for i in range(40)])
        with pytest.raises(ExecutionError, match="arithmetic on non-numeric values"):
            conn.execute("SELECT g, sum(s + 1) FROM t GROUP BY g").fetchall()

    def test_mixed_types_fail_min_as_min_does(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, a INTEGER, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", [(1, 0, 1, "x"), (2, 0, 2, "y")])
        with pytest.raises(TypeError):
            conn.execute("SELECT min(CASE WHEN id = 1 THEN a ELSE b END) FROM t").fetchall()


class TestAggregateFold:
    CALLS = (
        ast.FunctionCall("count", (), star=True),
        ast.FunctionCall("sum", (ast.ColumnRef("v"),)),
        ast.FunctionCall("min", (ast.ColumnRef("v"),), distinct=True),
    )
    LAYOUT = RowLayout((("t", frozenset({"g", "v"})),))
    ROWS = [({"g": i % 3, "v": float(i) if i % 4 else None},) for i in range(12)]

    def _fold(self, kernel) -> list:
        run, _start, finish = kernel.bind(())
        groups: dict = {}
        run(self.ROWS[:5], groups)
        run(self.ROWS[5:], groups)
        return [finish(state) for state in groups.values()]

    def test_a_fold_stopped_mid_batch_resumes_on_the_closures(self):
        group_by = (ast.ColumnRef("g"),)
        whole = self._fold(kernels.AggregateKernel(group_by, self.CALLS, self.LAYOUT))
        stopping = kernels.AggregateKernel(group_by, self.CALLS, self.LAYOUT)
        accumulate = stopping._accumulate

        def stop_after_two(batch, params, groups):
            accumulate(batch[:2], params, groups)
            raise kernels._Stopped(2)

        stopping._accumulate = stop_after_two
        assert self._fold(stopping) == whole
        assert [state[-1] for state in whole] == [(4, 18.0, 3.0), (4, 18.0, 1.0), (4, 18.0, 2.0)]

    def test_an_argument_python_cannot_compile_folds_on_the_closures(self):
        deep = ast.ColumnRef("v")
        for _ in range(150):
            deep = ast.BinaryOp("or", ast.Literal(False), deep)
        calls = (ast.FunctionCall("count", (deep,)),)
        kernel = kernels.AggregateKernel((), calls, self.LAYOUT)
        assert kernel._accumulate is None
        assert [state[-1] for state in self._fold(kernel)] == [(9,)]

    def test_a_missing_parameter_fails_as_the_closures_do(self):
        scaled = ast.BinaryOp("*", ast.ColumnRef("v"), ast.Parameter(0))
        calls = (ast.FunctionCall("sum", (scaled,)),)
        kernel = kernels.AggregateKernel((ast.ColumnRef("g"),), calls, self.LAYOUT)
        run, _start, _finish = kernel.bind(())
        with pytest.raises(ExecutionError, match="unbound parameter 1"):
            run(self.ROWS, {})
