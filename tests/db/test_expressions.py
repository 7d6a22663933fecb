"""Tests for expression evaluation and three-valued logic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.sql import ast
from repro.db.sql.expressions import (
    RowLayout,
    compile_expression,
    compile_predicate,
    evaluate,
    expression_label,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import MISSING
from repro.errors import ExecutionError, UnknownColumnError


def layout_of(*tables: tuple[str, dict]) -> RowLayout:
    """The layout of pipeline rows made of *tables*' ``(alias, row)`` pairs."""
    return RowLayout(tuple((alias, frozenset(row)) for alias, row in tables))


def run(expr: ast.Expression, **values):
    """Evaluate *expr* against the one-table pipeline row ``(values,)`` of ``t``."""
    return compile_expression(expr, (), layout_of(("t", values)))((values,))


def predicate_over(expr: ast.Expression, *columns: str):
    """Compile *expr* as a predicate over table ``t`` with *columns*."""
    return compile_predicate(expr, (), RowLayout((("t", frozenset(columns)),)))


def where_expr(sql_condition: str) -> ast.Expression:
    statement = parse_statement(f"SELECT 1 FROM t WHERE {sql_condition}")
    return statement.where


class TestBasicEvaluation:
    def test_literal(self):
        assert evaluate(ast.Literal(42)) == 42

    def test_column_lookup(self):
        assert run(ast.ColumnRef("year"), year=1980) == 1980

    def test_qualified_column_lookup(self):
        assert run(ast.ColumnRef("year", table="t"), year=1980) == 1980

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            run(ast.ColumnRef("nope"), year=1980)

    def test_arithmetic(self):
        assert evaluate(where_expr("2 + 3 * 4 = 14")) is True
        assert evaluate(ast.BinaryOp("-", ast.Literal(10), ast.Literal(4))) == 6
        assert evaluate(ast.BinaryOp("/", ast.Literal(9), ast.Literal(2))) == 4.5

    def test_division_by_zero_is_null(self):
        assert evaluate(ast.BinaryOp("/", ast.Literal(1), ast.Literal(0))) is None

    def test_string_concatenation(self):
        assert evaluate(ast.BinaryOp("||", ast.Literal("a"), ast.Literal("b"))) == "ab"

    def test_comparison_operators(self):
        ctx = dict(year=1980)
        assert run(where_expr("year = 1980"), **ctx) is True
        assert run(where_expr("year != 1980"), **ctx) is False
        assert run(where_expr("year < 1990"), **ctx) is True
        assert run(where_expr("year >= 1981"), **ctx) is False

    def test_incomparable_types_raise(self):
        with pytest.raises(ExecutionError):
            run(where_expr("name > 5"), name="Rocky")

    def test_like(self):
        ctx = dict(name="Rocky II")
        assert run(where_expr("name LIKE 'Rocky%'"), **ctx) is True
        assert run(where_expr("name LIKE 'rocky%'"), **ctx) is True
        assert run(where_expr("name LIKE 'R_cky II'"), **ctx) is True
        assert run(where_expr("name LIKE 'Psycho'"), **ctx) is False

    def test_in_list(self):
        ctx = dict(year=1980)
        assert run(where_expr("year IN (1979, 1980)"), **ctx) is True
        assert run(where_expr("year NOT IN (1979, 1980)"), **ctx) is False
        assert run(where_expr("year IN (1, 2)"), **ctx) is False

    def test_between(self):
        ctx = dict(year=1985)
        assert run(where_expr("year BETWEEN 1980 AND 1989"), **ctx) is True
        assert run(where_expr("year NOT BETWEEN 1980 AND 1989"), **ctx) is False
        assert run(where_expr("year BETWEEN 1990 AND 1999"), **ctx) is False

    def test_case_expression(self):
        expr = parse_statement(
            "SELECT CASE WHEN year < 1980 THEN 'old' WHEN year < 2000 THEN 'mid' ELSE 'new' END"
        ).items[0].expression
        assert run(expr, year=1970) == "old"
        assert run(expr, year=1990) == "mid"
        assert run(expr, year=2010) == "new"

    def test_scalar_functions(self):
        ctx = dict(name="Rocky", rating=7.86)
        assert run(where_expr("length(name) = 5"), **ctx) is True
        assert run(where_expr("upper(name) = 'ROCKY'"), **ctx) is True
        assert run(where_expr("lower(name) = 'rocky'"), **ctx) is True
        assert run(where_expr("abs(-2) = 2"), **ctx) is True
        assert run(where_expr("round(rating, 1) = 7.9"), **ctx) is True

    def test_coalesce(self):
        ctx = dict(a=None, b=MISSING, c=3)
        expr = parse_statement("SELECT coalesce(a, b, c, 9)").items[0].expression
        assert run(expr, **ctx) == 3

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate(parse_statement("SELECT sqrt(4)").items[0].expression)

    def test_aggregate_outside_aggregation_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(parse_statement("SELECT count(*)").items[0].expression)


class TestThreeValuedLogic:
    def test_null_comparison_is_unknown(self):
        assert run(where_expr("year = 1980"), year=None) is None

    def test_missing_comparison_is_unknown(self):
        assert run(where_expr("year = 1980"), year=MISSING) is None

    def test_unknown_collapses_to_false_in_predicate(self):
        predicate = predicate_over(where_expr("year = 1980"), "year")
        assert predicate(({"year": None},)) is False
        assert predicate(({"year": MISSING},)) is False

    def test_and_kleene(self):
        assert run(where_expr("a = 1 AND b = 1"), a=1, b=None) is None
        assert run(where_expr("a = 2 AND b = 1"), a=1, b=None) is False
        assert run(where_expr("a = 1 AND b = 1"), a=1, b=1) is True

    def test_or_kleene(self):
        assert run(where_expr("a = 1 OR b = 1"), a=1, b=None) is True
        assert run(where_expr("a = 2 OR b = 1"), a=1, b=None) is None
        assert run(where_expr("a = 2 OR b = 2"), a=1, b=1) is False

    def test_not_unknown_is_unknown(self):
        assert run(where_expr("NOT b = 1"), b=None) is None

    def test_is_null(self):
        assert run(where_expr("a IS NULL"), a=None) is True
        assert run(where_expr("a IS NULL"), a=MISSING) is True
        assert run(where_expr("a IS NOT NULL"), a=5) is True

    def test_is_missing_distinguishes_null(self):
        assert run(where_expr("a IS MISSING"), a=MISSING) is True
        assert run(where_expr("a IS MISSING"), a=None) is False
        assert run(where_expr("a IS NOT MISSING"), a=5) is True

    def test_in_list_with_unknown_member(self):
        assert run(where_expr("a IN (1, b)"), a=5, b=None) is None
        assert run(where_expr("a IN (5, b)"), a=5, b=None) is True

    def test_arithmetic_with_null_is_null(self):
        assert run(where_expr("a + 1 = 2"), a=None) is None

    def test_empty_predicate_is_true(self):
        assert compile_predicate(None)(()) is True


class TestRowLayout:
    """Column references resolve to pipeline-row slots at compile time."""

    TWO = layout_of(("a", {"id": 1}), ("b", {"id": 2}))

    def test_ambiguous_bare_name(self):
        row = ({"id": 1}, {"id": 2})
        with pytest.raises(ExecutionError, match="ambiguous"):
            compile_expression(ast.ColumnRef("id"), (), self.TWO)(row)
        assert compile_expression(ast.ColumnRef("id", table="a"), (), self.TWO)(row) == 1
        assert compile_expression(ast.ColumnRef("id", table="B"), (), self.TWO)(row) == 2

    def test_output_names_shadow_columns_and_resolve_ambiguity(self):
        bound = self.TWO.with_outputs(["id", "x", "id"])
        row = ({"id": 1}, {"id": 2}, (3, 4, 5))  # the projected row sits last
        assert compile_expression(ast.ColumnRef("id"), (), bound)(row) == 5  # last wins
        assert compile_expression(ast.ColumnRef("x"), (), bound)(row) == 4
        assert compile_expression(ast.ColumnRef("id", table="b"), (), bound)(row) == 2
        with pytest.raises(ExecutionError):
            compile_expression(ast.ColumnRef("id"), (), self.TWO)(row)

    def test_rows_are_shared_not_copied_or_mutated(self):
        left, right = {"id": 1, "x": 5}, {"id": 2}
        row = (left, right)
        layout = layout_of(("a", left), ("b", right))
        read_x = compile_expression(ast.ColumnRef("x", table="a"), (), layout)
        assert read_x(row) == 5
        assert left == {"id": 1, "x": 5} and right == {"id": 2}
        left["x"] = 8  # the scan owns the row: a pipeline row reads it live
        assert read_x(row) == 8

    def test_prefix_drops_the_later_tables(self):
        three = layout_of(("a", {"id": 1}), ("b", {"k": 2}), ("c", {"k": 3}))
        first_two = ({"id": 1}, {"k": 2})
        assert compile_expression(ast.ColumnRef("k"), (), three.prefix(2))(first_two) == 2
        with pytest.raises(UnknownColumnError):
            compile_expression(ast.ColumnRef("k", table="c"), (), three.prefix(2))(({}, {}))

    def test_null_row_has_every_column_null(self):
        assert self.TWO.null_row() == ({"id": None}, {"id": None})


class TestExpressionLabel:
    def test_labels(self):
        statement = parse_statement("SELECT name, count(*), year + 1, -year FROM movies")
        labels = [expression_label(item.expression) for item in statement.items]
        assert labels[0] == "name"
        assert labels[1] == "count(*)"
        assert "year" in labels[2]


class TestEvaluationProperties:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_comparison_matches_python(self, a, b):
        ctx = dict(a=a, b=b)
        assert run(where_expr("a < b"), **ctx) is (a < b)
        assert run(where_expr("a = b"), **ctx) is (a == b)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_addition_matches_python(self, a, b):
        ctx = dict(a=a, b=b)
        expr = parse_statement("SELECT a + b").items[0].expression
        assert run(expr, **ctx) == a + b

    @given(st.booleans(), st.booleans())
    def test_and_or_match_python_on_known_values(self, a, b):
        ctx = dict(a=a, b=b)
        assert run(where_expr("a AND b"), **ctx) is (a and b)
        assert run(where_expr("a OR b"), **ctx) is (a or b)


def select_expr(sql_expression: str) -> ast.Expression:
    return parse_statement(f"SELECT {sql_expression} FROM t").items[0].expression


_ROW = {"n": 5, "x": 2.5, "s": "Rocky", "z": 0, "nul": None, "mis": MISSING, "yes": True}

#: (expression, expected value) over ``_ROW``; every node type the compiler
#: handles, with NULL and MISSING operands.
EVALUATION_TABLE = [
    ("42", 42),
    ("n", 5),
    ("t.n", 5),
    ("n + 2", 7),
    ("n - x", 2.5),
    ("n * 2", 10),
    ("n / 2", 2.5),
    ("n / z", None),
    ("n % 3", 2),
    ("x % 2", 0.5),
    ("n % z", None),
    ("s || n", "Rocky5"),
    ("nul + 1", None),
    ("mis * 2", None),
    ("-n", -5),
    ("-nul", None),
    ("NOT yes", False),
    ("NOT nul", None),
    ("n = 5", True),
    ("n != 5", False),
    ("n < x", False),
    ("n <= 5", True),
    ("n > nul", None),
    ("mis >= n", None),
    ("yes = 1", True),
    # AND/OR: three-valued, short-circuit left to right.
    ("FALSE AND 'x' + 1", False),
    ("TRUE OR 'x' + 1", True),
    ("nul AND FALSE", False),
    ("nul AND TRUE", None),
    ("mis OR TRUE", True),
    ("mis OR FALSE", None),
    ("n AND x", True),
    ("z OR FALSE", False),
    # NULL vs MISSING.
    ("nul IS NULL", True),
    ("mis IS NULL", True),
    ("n IS NULL", False),
    ("mis IS NOT NULL", False),
    ("nul IS MISSING", False),
    ("mis IS MISSING", True),
    ("nul IS NOT MISSING", True),
    ("mis IS NOT MISSING", False),
    # IN with NULL items.
    ("n IN (1, 5)", True),
    ("n IN (1, 2)", False),
    ("n IN (1, NULL)", None),
    ("n IN (5, NULL)", True),
    ("n NOT IN (1, NULL)", None),
    ("n NOT IN (1, 2)", True),
    ("n NOT IN (5, NULL)", False),
    ("nul IN (1)", None),
    ("mis IN (1)", None),
    # BETWEEN, plain and negated.
    ("n BETWEEN 1 AND 5", True),
    ("n BETWEEN 6 AND 9", False),
    ("n NOT BETWEEN 1 AND 5", False),
    ("n NOT BETWEEN 6 AND 9", True),
    ("n BETWEEN 1 AND nul", None),
    ("n NOT BETWEEN 6 AND nul", True),
    ("mis NOT BETWEEN 1 AND 9", None),
    # LIKE: case-insensitive, % and _ wildcards, regex characters literal.
    ("s LIKE 'r%'", True),
    ("s LIKE 'R_cky'", True),
    ("s LIKE 'R.cky'", False),
    ("nul LIKE 'a%'", None),
    ("s LIKE mis", None),
    # Scalar functions, COALESCE (lazy) and CASE (short-circuit).
    ("abs(-n)", 5),
    ("round(x)", 2.0),
    ("lower(s)", "rocky"),
    ("upper(nul)", None),
    ("length(mis)", None),
    ("coalesce(nul, mis, n, 'x' + 1)", 5),
    ("coalesce(nul, mis)", None),
    ("CASE WHEN n > 9 THEN 'big' WHEN n > 1 THEN 'mid' ELSE 'x' + 1 END", "mid"),
    ("CASE WHEN nul THEN 1 END", None),
    ("CASE WHEN mis THEN 1 ELSE 2 END", 2),
]


class TestCompiledEvaluator:
    @pytest.mark.parametrize("sql_expression, expected", EVALUATION_TABLE)
    def test_evaluation_table(self, sql_expression, expected):
        evaluator = compile_expression(select_expr(sql_expression), (), layout_of(("t", _ROW)))
        value = evaluator((_ROW,))
        assert value == expected and type(value) is type(expected)

    def test_compiled_closure_is_reusable_across_rows(self):
        evaluator = compile_expression(select_expr("n * 2 + 1"), (), layout_of(("t", {"n": 0})))
        assert [evaluator(({"n": n},)) for n in (1, 2, None)] == [3, 5, None]

    def test_predicate_collapses_unknown_to_false(self):
        predicate = predicate_over(select_expr("n > 3"), "n")
        assert [predicate(({"n": n},)) for n in (5, 1, None, MISSING)] == [
            True,
            False,
            False,
            False,
        ]
        assert compile_predicate(None)(()) is True

    @pytest.mark.parametrize(
        "sql_expression, error",
        [
            ("n", ExecutionError),  # ambiguous: both tables have n
            ("nope", UnknownColumnError),
            ("t.nope", UnknownColumnError),
            ("s > 5", ExecutionError),
            ("s + 1", ExecutionError),
            ("-s", ExecutionError),
            ("s AND TRUE", ExecutionError),
            ("sqrt(4)", ExecutionError),
            ("count(n)", ExecutionError),
        ],
    )
    def test_errors_are_raised_when_evaluated_not_when_compiled(
        self, sql_expression, error
    ):
        tables = (("t", {"n": 1, "s": "a"}), ("u", {"n": 2}))
        evaluator = compile_expression(select_expr(sql_expression), (), layout_of(*tables))
        with pytest.raises(error):
            evaluator(tuple(row for _alias, row in tables))

    def test_ambiguous_name_resolves_when_qualified(self):
        tables = (("t", {"n": 1}), ("u", {"n": 2}))
        layout, joined = layout_of(*tables), ({"n": 1}, {"n": 2})
        assert compile_expression(select_expr("t.n + u.n"), (), layout)(joined) == 3
        # A pipeline row carries no rowid: ``alias.__rowid__`` is no column.
        with pytest.raises(UnknownColumnError):
            compile_expression(ast.ColumnRef("__rowid__", table="u"), (), layout)(joined)



#: Three table rows joined in turn.  Bare ``a`` and ``c`` are shared by two
#: tables.
_JOIN_ROWS = [
    ("t", {"a": 1, "b": 2}),
    ("u", {"a": 10, "c": 20}),
    ("v", {"c": 30, "d": 40}),
]
_BARE = ["a", "b", "c", "d", "nope"]
_QUALIFIED = [("t", "a"), ("u", "a"), ("v", "c"), ("t", "c"), ("w", "a")]
_REFS = [ast.ColumnRef(name) for name in _BARE] + [
    ast.ColumnRef(name, table=table) for table, name in _QUALIFIED
]


def _outcome(evaluate_ref, ref: ast.ColumnRef) -> tuple:
    try:
        return ("value", evaluate_ref(ref))
    except (ExecutionError, UnknownColumnError) as exc:
        return ("error", type(exc), str(exc))


def _naive_lookup(tables: list[tuple[str, dict]], ref: ast.ColumnRef):
    """Resolve *ref* by searching the rows themselves, the way a per-row
    name lookup would."""
    if ref.table is not None:
        for alias, row in tables:
            if alias == ref.table and ref.name in row:
                return row[ref.name]
        raise UnknownColumnError(ref.name, ref.table)
    found = [row[ref.name] for _alias, row in tables if ref.name in row]
    if len(found) > 1:
        raise ExecutionError(f"ambiguous column reference: {ref.name!r}")
    if not found:
        raise UnknownColumnError(ref.name, None)
    return found[0]


def _joined_rows(tables: int, null_last: bool) -> list[tuple[str, dict]]:
    rows = list(_JOIN_ROWS[:tables])
    if null_last:  # a LEFT JOIN's unmatched side: an all-NULL row
        alias, row = rows[-1]
        rows[-1] = (alias, dict.fromkeys(row))
    return rows


class TestSlotResolution:
    """References resolved once against the layout read what a per-row
    name lookup over the joined rows would, errors included."""

    @pytest.mark.parametrize("null_last", [False, True], ids=["matched", "left_null"])
    @pytest.mark.parametrize("tables", [1, 2, 3])
    def test_layout_resolution_matches_a_naive_lookup(self, tables, null_last):
        rows = _joined_rows(tables, null_last)
        layout = layout_of(*rows)
        pipeline_row = tuple(row for _alias, row in rows)
        for ref in _REFS:
            compiled = _outcome(lambda r: compile_expression(r, (), layout)(pipeline_row), ref)
            assert compiled == _outcome(lambda r: _naive_lookup(rows, r), ref), ref

    def test_three_table_join_resolves_as_specified(self):
        layout = layout_of(*_JOIN_ROWS)
        pipeline_row = tuple(row for _alias, row in _JOIN_ROWS)
        outcomes = {
            ref: _outcome(lambda r: compile_expression(r, (), layout)(pipeline_row), ref)[:2]
            for ref in _REFS
        }
        expected_values = {
            ast.ColumnRef("b"): 2,
            ast.ColumnRef("d"): 40,
            ast.ColumnRef("a", table="t"): 1,
            ast.ColumnRef("a", table="u"): 10,
            ast.ColumnRef("c", table="v"): 30,
        }
        ambiguous = [ast.ColumnRef("a"), ast.ColumnRef("c")]
        for ref, outcome in outcomes.items():
            if ref in expected_values:
                assert outcome == ("value", expected_values[ref]), ref
            elif ref in ambiguous:
                assert outcome == ("error", ExecutionError), ref
            else:
                assert outcome == ("error", UnknownColumnError), ref

    def test_left_join_null_row_reads_null(self):
        rows = _joined_rows(3, null_last=True)
        layout = layout_of(*rows)
        pipeline_row = tuple(row for _alias, row in rows)
        assert compile_expression(ast.ColumnRef("d"), (), layout)(pipeline_row) is None
        assert compile_expression(ast.ColumnRef("c", table="v"), (), layout)(pipeline_row) is None
