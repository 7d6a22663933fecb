"""Tests for expression evaluation and three-valued logic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.sql import ast
from repro.db.sql.expressions import (
    RowContext,
    evaluate,
    evaluate_predicate,
    expression_label,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import MISSING
from repro.errors import ExecutionError, UnknownColumnError


def context(**values) -> RowContext:
    ctx = RowContext()
    ctx.add_table_row("t", values)
    return ctx


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
        assert evaluate_predicate(where_expr("year = 1980"), context(year=None)) is False
        assert evaluate_predicate(where_expr("year = 1980"), context(year=MISSING)) is False

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
        assert evaluate_predicate(None, RowContext()) is True


class TestRowContext:
    def test_ambiguous_bare_name(self):
        ctx = RowContext()
        ctx.add_table_row("a", {"id": 1})
        ctx.add_table_row("b", {"id": 2})
        with pytest.raises(ExecutionError):
            ctx.lookup(ast.ColumnRef("id"))
        assert ctx.lookup(ast.ColumnRef("id", table="a")) == 1
        assert ctx.lookup(ast.ColumnRef("id", table="b")) == 2

    def test_set_overrides_ambiguity(self):
        ctx = RowContext()
        ctx.add_table_row("a", {"id": 1})
        ctx.add_table_row("b", {"id": 2})
        ctx.set("id", 3)
        assert ctx.lookup(ast.ColumnRef("id")) == 3

    def test_as_mapping_contains_qualified_keys(self):
        ctx = context(year=1980)
        mapping = ctx.as_mapping()
        assert mapping["t.year"] == 1980
        assert mapping["year"] == 1980


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
