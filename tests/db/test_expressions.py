"""Tests for expression evaluation and three-valued logic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.sql import ast
from repro.db.sql.expressions import (
    RowContext,
    compile_expression,
    compile_predicate,
    evaluate,
    expression_label,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import MISSING
from repro.errors import ExecutionError, UnknownColumnError


def context(**values) -> RowContext:
    return RowContext.for_table_row("t", values)


def where_expr(sql_condition: str) -> ast.Expression:
    statement = parse_statement(f"SELECT 1 FROM t WHERE {sql_condition}")
    return statement.where


class TestBasicEvaluation:
    def test_literal(self):
        assert evaluate(ast.Literal(42), RowContext()) == 42

    def test_column_lookup(self):
        assert evaluate(ast.ColumnRef("year"), context(year=1980)) == 1980

    def test_qualified_column_lookup(self):
        assert evaluate(ast.ColumnRef("year", table="t"), context(year=1980)) == 1980

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            evaluate(ast.ColumnRef("nope"), context(year=1980))

    def test_arithmetic(self):
        assert evaluate(where_expr("2 + 3 * 4 = 14"), RowContext()) is True
        assert evaluate(ast.BinaryOp("-", ast.Literal(10), ast.Literal(4)), RowContext()) == 6
        assert evaluate(ast.BinaryOp("/", ast.Literal(9), ast.Literal(2)), RowContext()) == 4.5

    def test_division_by_zero_is_null(self):
        assert evaluate(ast.BinaryOp("/", ast.Literal(1), ast.Literal(0)), RowContext()) is None

    def test_string_concatenation(self):
        assert evaluate(ast.BinaryOp("||", ast.Literal("a"), ast.Literal("b")), RowContext()) == "ab"

    def test_comparison_operators(self):
        ctx = context(year=1980)
        assert evaluate(where_expr("year = 1980"), ctx) is True
        assert evaluate(where_expr("year != 1980"), ctx) is False
        assert evaluate(where_expr("year < 1990"), ctx) is True
        assert evaluate(where_expr("year >= 1981"), ctx) is False

    def test_incomparable_types_raise(self):
        with pytest.raises(ExecutionError):
            evaluate(where_expr("name > 5"), context(name="Rocky"))

    def test_like(self):
        ctx = context(name="Rocky II")
        assert evaluate(where_expr("name LIKE 'Rocky%'"), ctx) is True
        assert evaluate(where_expr("name LIKE 'rocky%'"), ctx) is True
        assert evaluate(where_expr("name LIKE 'R_cky II'"), ctx) is True
        assert evaluate(where_expr("name LIKE 'Psycho'"), ctx) is False

    def test_in_list(self):
        ctx = context(year=1980)
        assert evaluate(where_expr("year IN (1979, 1980)"), ctx) is True
        assert evaluate(where_expr("year NOT IN (1979, 1980)"), ctx) is False
        assert evaluate(where_expr("year IN (1, 2)"), ctx) is False

    def test_between(self):
        ctx = context(year=1985)
        assert evaluate(where_expr("year BETWEEN 1980 AND 1989"), ctx) is True
        assert evaluate(where_expr("year NOT BETWEEN 1980 AND 1989"), ctx) is False
        assert evaluate(where_expr("year BETWEEN 1990 AND 1999"), ctx) is False

    def test_case_expression(self):
        expr = parse_statement(
            "SELECT CASE WHEN year < 1980 THEN 'old' WHEN year < 2000 THEN 'mid' ELSE 'new' END"
        ).items[0].expression
        assert evaluate(expr, context(year=1970)) == "old"
        assert evaluate(expr, context(year=1990)) == "mid"
        assert evaluate(expr, context(year=2010)) == "new"

    def test_scalar_functions(self):
        ctx = context(name="Rocky", rating=7.86)
        assert evaluate(where_expr("length(name) = 5"), ctx) is True
        assert evaluate(where_expr("upper(name) = 'ROCKY'"), ctx) is True
        assert evaluate(where_expr("lower(name) = 'rocky'"), ctx) is True
        assert evaluate(where_expr("abs(-2) = 2"), ctx) is True
        assert evaluate(where_expr("round(rating, 1) = 7.9"), ctx) is True

    def test_coalesce(self):
        ctx = context(a=None, b=MISSING, c=3)
        expr = parse_statement("SELECT coalesce(a, b, c, 9)").items[0].expression
        assert evaluate(expr, ctx) == 3

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate(parse_statement("SELECT sqrt(4)").items[0].expression, RowContext())

    def test_aggregate_outside_aggregation_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(parse_statement("SELECT count(*)").items[0].expression, RowContext())


class TestThreeValuedLogic:
    def test_null_comparison_is_unknown(self):
        assert evaluate(where_expr("year = 1980"), context(year=None)) is None

    def test_missing_comparison_is_unknown(self):
        assert evaluate(where_expr("year = 1980"), context(year=MISSING)) is None

    def test_unknown_collapses_to_false_in_predicate(self):
        predicate = compile_predicate(where_expr("year = 1980"))
        assert predicate(context(year=None)) is False
        assert predicate(context(year=MISSING)) is False

    def test_and_kleene(self):
        assert evaluate(where_expr("a = 1 AND b = 1"), context(a=1, b=None)) is None
        assert evaluate(where_expr("a = 2 AND b = 1"), context(a=1, b=None)) is False
        assert evaluate(where_expr("a = 1 AND b = 1"), context(a=1, b=1)) is True

    def test_or_kleene(self):
        assert evaluate(where_expr("a = 1 OR b = 1"), context(a=1, b=None)) is True
        assert evaluate(where_expr("a = 2 OR b = 1"), context(a=1, b=None)) is None
        assert evaluate(where_expr("a = 2 OR b = 2"), context(a=1, b=1)) is False

    def test_not_unknown_is_unknown(self):
        assert evaluate(where_expr("NOT b = 1"), context(b=None)) is None

    def test_is_null(self):
        assert evaluate(where_expr("a IS NULL"), context(a=None)) is True
        assert evaluate(where_expr("a IS NULL"), context(a=MISSING)) is True
        assert evaluate(where_expr("a IS NOT NULL"), context(a=5)) is True

    def test_is_missing_distinguishes_null(self):
        assert evaluate(where_expr("a IS MISSING"), context(a=MISSING)) is True
        assert evaluate(where_expr("a IS MISSING"), context(a=None)) is False
        assert evaluate(where_expr("a IS NOT MISSING"), context(a=5)) is True

    def test_in_list_with_unknown_member(self):
        assert evaluate(where_expr("a IN (1, b)"), context(a=5, b=None)) is None
        assert evaluate(where_expr("a IN (5, b)"), context(a=5, b=None)) is True

    def test_arithmetic_with_null_is_null(self):
        assert evaluate(where_expr("a + 1 = 2"), context(a=None)) is None

    def test_empty_predicate_is_true(self):
        assert compile_predicate(None)(RowContext()) is True


class TestRowContext:
    def test_ambiguous_bare_name(self):
        ctx = RowContext.for_table_row("a", {"id": 1}).joined("b", {"id": 2})
        with pytest.raises(ExecutionError):
            ctx.lookup(ast.ColumnRef("id"))
        assert ctx.lookup(ast.ColumnRef("id", table="a")) == 1
        assert ctx.lookup(ast.ColumnRef("id", table="b")) == 2

    def test_bindings_override_ambiguity(self):
        ctx = RowContext.for_table_row("a", {"id": 1}).joined("b", {"id": 2})
        bound = ctx.with_bindings(["id"], [3])
        assert bound.lookup(ast.ColumnRef("id")) == 3
        assert bound.lookup(ast.ColumnRef("id", table="b")) == 2
        with pytest.raises(ExecutionError):
            ctx.lookup(ast.ColumnRef("id"))

    def test_rows_are_shared_not_copied_or_mutated(self):
        left, right = {"id": 1, "x": 5}, {"id": 2}
        ctx = RowContext.for_table_row("a", left, 1).joined("b", right, 2)
        ctx.with_bindings(["x", "y"], [6, 7])
        assert left == {"id": 1, "x": 5} and right == {"id": 2}
        left["x"] = 8  # the scan owns the row: a context reads it live
        assert ctx.lookup(ast.ColumnRef("x", table="a")) == 8


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
        ctx = context(a=a, b=b)
        assert evaluate(where_expr("a < b"), ctx) is (a < b)
        assert evaluate(where_expr("a = b"), ctx) is (a == b)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_addition_matches_python(self, a, b):
        ctx = context(a=a, b=b)
        expr = parse_statement("SELECT a + b").items[0].expression
        assert evaluate(expr, ctx) == a + b

    @given(st.booleans(), st.booleans())
    def test_and_or_match_python_on_known_values(self, a, b):
        ctx = context(a=a, b=b)
        assert evaluate(where_expr("a AND b"), ctx) is (a and b)
        assert evaluate(where_expr("a OR b"), ctx) is (a or b)


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
        evaluator = compile_expression(select_expr(sql_expression))
        value = evaluator(RowContext.for_table_row("t", _ROW))
        assert value == expected and type(value) is type(expected)

    def test_compiled_closure_is_reusable_across_rows(self):
        evaluator = compile_expression(select_expr("n * 2 + 1"))
        assert [evaluator(context(n=n)) for n in (1, 2, None)] == [3, 5, None]

    def test_predicate_collapses_unknown_to_false(self):
        predicate = compile_predicate(select_expr("n > 3"))
        assert [predicate(context(n=n)) for n in (5, 1, None, MISSING)] == [
            True,
            False,
            False,
            False,
        ]
        assert compile_predicate(None)(RowContext()) is True

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
        evaluator = compile_expression(select_expr(sql_expression))
        joined = RowContext.for_table_row("t", {"n": 1, "s": "a"}).joined("u", {"n": 2})
        with pytest.raises(error):
            evaluator(joined)

    def test_ambiguous_name_resolves_when_qualified(self):
        joined = RowContext.for_table_row("t", {"n": 1}, 7).joined("u", {"n": 2}, 9)
        assert compile_expression(select_expr("t.n + u.n"))(joined) == 3
        assert evaluate(ast.ColumnRef("__rowid__", table="u"), joined) == 9



#: Three table rows joined in turn.  Bare ``a`` and ``c`` are shared by two
#: tables; ``t`` has a column literally named ``t.a`` (only hand-built
#: contexts can: schemas forbid the dot) and ``u`` a real ``__rowid__``.
_JOIN_ROWS = [
    ("t", {"a": 1, "b": 2, "t.a": 3}, 7),
    ("u", {"a": 10, "c": 20, "__rowid__": 99}, 8),
    ("v", {"c": 30, "d": 40}, 9),
]
_BARE = ["a", "b", "c", "d", "t.a", "u.c", "__rowid__", "nope"]
_QUALIFIED = [
    ("t", "a"),
    ("u", "a"),
    ("v", "c"),
    ("t", "t.a"),
    ("t", "c"),
    ("t", "__rowid__"),
    ("u", "__rowid__"),
    ("v", "__rowid__"),
    ("w", "a"),
]
_REFS = [ast.ColumnRef(name) for name in _BARE] + [
    ast.ColumnRef(name, table=table) for table, name in _QUALIFIED
]


def _outcome(ctx: RowContext, ref: ast.ColumnRef) -> tuple:
    try:
        return ("value", ctx.lookup(ref))
    except (ExecutionError, UnknownColumnError) as exc:
        return ("error", type(exc), str(exc))


def _joined_rows(tables: int, null_last: bool) -> list[tuple]:
    rows = list(_JOIN_ROWS[:tables])
    if null_last:  # a LEFT JOIN's unmatched side: all-NULL row, no rowid
        alias, row, _rowid = rows[-1]
        rows[-1] = (alias, dict.fromkeys(row), None)
    return rows


class TestContextConstruction:
    """The scan's one-pass ``for_table_row`` and the general ``joined``
    path from an empty context resolve every reference alike."""

    @pytest.mark.parametrize("null_last", [False, True], ids=["matched", "left_null"])
    @pytest.mark.parametrize("tables", [1, 2, 3])
    def test_for_table_row_matches_general_path(self, tables, null_last):
        rows = _joined_rows(tables, null_last)
        fast = RowContext.for_table_row(*rows[0])
        general = RowContext().joined(*rows[0])
        for alias, row, rowid in rows[1:]:
            fast = fast.joined(alias, row, rowid)
            general = general.joined(alias, row, rowid)
        for ref in _REFS:
            assert _outcome(fast, ref) == _outcome(general, ref), ref

    def test_three_table_join_resolves_as_specified(self):
        ctx = RowContext.for_table_row(*_JOIN_ROWS[0])
        for alias, row, rowid in _JOIN_ROWS[1:]:
            ctx = ctx.joined(alias, row, rowid)
        outcomes = {ref: _outcome(ctx, ref)[:2] for ref in _REFS}
        expected_values = {
            ast.ColumnRef("b"): 2,
            ast.ColumnRef("d"): 40,
            ast.ColumnRef("__rowid__"): 99,
            ast.ColumnRef("a", table="t"): 1,
            ast.ColumnRef("a", table="u"): 10,
            ast.ColumnRef("c", table="v"): 30,
            ast.ColumnRef("t.a", table="t"): 3,
            ast.ColumnRef("__rowid__", table="t"): 7,
            ast.ColumnRef("__rowid__", table="u"): 8,  # the rowid, not the column
            ast.ColumnRef("__rowid__", table="v"): 9,
        }
        ambiguous = [ast.ColumnRef("a"), ast.ColumnRef("c"), ast.ColumnRef("t.a")]
        for ref, outcome in outcomes.items():
            if ref in expected_values:
                assert outcome == ("value", expected_values[ref]), ref
            elif ref in ambiguous:
                assert outcome == ("error", ExecutionError), ref
            else:
                assert outcome == ("error", UnknownColumnError), ref

    def test_left_join_null_row_has_no_rowid(self):
        rows = _joined_rows(3, null_last=True)
        ctx = RowContext.for_table_row(*rows[0]).joined(*rows[1]).joined(*rows[2])
        assert ctx.lookup(ast.ColumnRef("d")) is None
        assert ctx.lookup(ast.ColumnRef("c", table="v")) is None
        with pytest.raises(UnknownColumnError):
            ctx.lookup(ast.ColumnRef("__rowid__", table="v"))
