"""Tests for the SQL parser."""

from __future__ import annotations

import pytest

from repro.db.sql import ast
from repro.db.sql.parser import parse_script, parse_statement
from repro.db.types import MISSING
from repro.errors import SQLSyntaxError


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse_statement("SELECT name FROM movies")
        assert isinstance(statement, ast.SelectStatement)
        assert statement.from_table.name == "movies"
        assert statement.items[0].expression == ast.ColumnRef("name")

    def test_select_star(self):
        statement = parse_statement("SELECT * FROM movies")
        assert isinstance(statement.items[0].expression, ast.Star)

    def test_select_qualified_star(self):
        statement = parse_statement("SELECT m.* FROM movies m")
        star = statement.items[0].expression
        assert isinstance(star, ast.Star)
        assert star.table == "m"

    def test_aliases(self):
        statement = parse_statement("SELECT name AS title, year y FROM movies AS m")
        assert statement.items[0].alias == "title"
        assert statement.items[1].alias == "y"
        assert statement.from_table.alias == "m"

    def test_where_comparison(self):
        statement = parse_statement("SELECT * FROM movies WHERE year >= 1980")
        where = statement.where
        assert isinstance(where, ast.BinaryOp)
        assert where.op == ">="
        assert where.right == ast.Literal(1980)

    def test_where_boolean_literals(self):
        statement = parse_statement("SELECT * FROM movies WHERE is_comedy = true")
        assert statement.where.right == ast.Literal(True)

    def test_missing_literal(self):
        statement = parse_statement("SELECT * FROM movies WHERE humor IS MISSING")
        assert isinstance(statement.where, ast.IsNull)
        assert statement.where.missing is True

    def test_is_not_null(self):
        statement = parse_statement("SELECT * FROM movies WHERE year IS NOT NULL")
        assert statement.where.negated is True

    def test_and_or_precedence(self):
        statement = parse_statement("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        where = statement.where
        assert where.op == "or"
        assert where.right.op == "and"

    def test_not(self):
        statement = parse_statement("SELECT * FROM t WHERE NOT a = 1")
        assert isinstance(statement.where, ast.UnaryOp)
        assert statement.where.op == "not"

    def test_in_list(self):
        statement = parse_statement("SELECT * FROM t WHERE year IN (1980, 1990)")
        assert isinstance(statement.where, ast.InList)
        assert len(statement.where.items) == 2

    def test_not_in_list(self):
        statement = parse_statement("SELECT * FROM t WHERE year NOT IN (1, 2)")
        assert statement.where.negated is True

    def test_between(self):
        statement = parse_statement("SELECT * FROM t WHERE year BETWEEN 1980 AND 1989")
        assert isinstance(statement.where, ast.Between)

    def test_like(self):
        statement = parse_statement("SELECT * FROM t WHERE name LIKE 'R%'")
        assert statement.where.op == "like"

    def test_arithmetic_precedence(self):
        statement = parse_statement("SELECT 1 + 2 * 3")
        expr = statement.items[0].expression
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        statement = parse_statement("SELECT (1 + 2) * 3")
        expr = statement.items[0].expression
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus(self):
        statement = parse_statement("SELECT -5")
        expr = statement.items[0].expression
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "neg"

    def test_function_call(self):
        statement = parse_statement("SELECT count(*), avg(year) FROM movies")
        count = statement.items[0].expression
        avg = statement.items[1].expression
        assert count.star is True
        assert avg.name == "avg"

    def test_count_distinct(self):
        statement = parse_statement("SELECT count(DISTINCT year) FROM movies")
        assert statement.items[0].expression.distinct is True

    def test_group_by_having(self):
        statement = parse_statement(
            "SELECT year, count(*) FROM movies GROUP BY year HAVING count(*) > 1"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_by_limit_offset(self):
        statement = parse_statement(
            "SELECT name FROM movies ORDER BY year DESC, name LIMIT 10 OFFSET 5"
        )
        assert statement.order_by[0].ascending is False
        assert statement.order_by[1].ascending is True
        assert statement.limit == 10
        assert statement.offset == 5

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT year FROM movies").distinct is True

    def test_join_on(self):
        statement = parse_statement(
            "SELECT m.name, r.score FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert len(statement.joins) == 1
        assert statement.joins[0].kind == "inner"
        assert statement.joins[0].right.alias == "r"

    def test_left_join(self):
        statement = parse_statement(
            "SELECT * FROM movies m LEFT JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert statement.joins[0].kind == "left"

    def test_cross_join(self):
        statement = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert statement.joins[0].kind == "cross"
        assert statement.joins[0].condition is None

    def test_case_expression(self):
        statement = parse_statement(
            "SELECT CASE WHEN year < 1980 THEN 'old' ELSE 'new' END FROM movies"
        )
        expr = statement.items[0].expression
        assert isinstance(expr, ast.CaseExpression)
        assert len(expr.branches) == 1
        assert expr.default == ast.Literal("new")

    def test_qualified_column(self):
        statement = parse_statement("SELECT m.name FROM movies m")
        ref = statement.items[0].expression
        assert ref.table == "m"
        assert ref.key() == "m.name"

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1 garbage extra tokens FROM")

    def test_missing_from_value(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT FROM movies")


class TestDDLParsing:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
            "humor REAL PERCEPTUAL, year INTEGER DEFAULT 2000)"
        )
        assert isinstance(statement, ast.CreateTableStatement)
        assert statement.table == "movies"
        assert statement.columns[0].primary_key is True
        assert statement.columns[1].not_null is True
        assert statement.columns[2].perceptual is True
        assert statement.columns[3].default == ast.Literal(2000)

    def test_create_table_if_not_exists(self):
        statement = parse_statement("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
        assert statement.if_not_exists is True

    def test_drop_table(self):
        statement = parse_statement("DROP TABLE IF EXISTS movies")
        assert isinstance(statement, ast.DropTableStatement)
        assert statement.if_exists is True

    def test_alter_table_add_column(self):
        statement = parse_statement("ALTER TABLE movies ADD COLUMN is_comedy BOOLEAN PERCEPTUAL")
        assert isinstance(statement, ast.AlterTableAddColumn)
        assert statement.column.name == "is_comedy"
        assert statement.column.perceptual is True

    def test_alter_table_without_column_keyword(self):
        statement = parse_statement("ALTER TABLE movies ADD suspense REAL")
        assert statement.column.name == "suspense"


class TestDMLParsing:
    def test_insert_with_columns(self):
        statement = parse_statement(
            "INSERT INTO movies (movie_id, name) VALUES (1, 'Rocky'), (2, 'Psycho')"
        )
        assert isinstance(statement, ast.InsertStatement)
        assert statement.columns == ("movie_id", "name")
        assert len(statement.rows) == 2

    def test_insert_without_columns(self):
        statement = parse_statement("INSERT INTO t VALUES (1, 2, 3)")
        assert statement.columns == ()
        assert len(statement.rows[0]) == 3

    def test_insert_missing_literal(self):
        statement = parse_statement("INSERT INTO t (a) VALUES (MISSING)")
        assert statement.rows[0][0] == ast.Literal(MISSING)

    def test_update(self):
        statement = parse_statement("UPDATE movies SET year = 2001, name = 'x' WHERE movie_id = 1")
        assert isinstance(statement, ast.UpdateStatement)
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse_statement("DELETE FROM movies WHERE year < 1950")
        assert isinstance(statement, ast.DeleteStatement)

    def test_delete_without_where(self):
        assert parse_statement("DELETE FROM movies").where is None


class TestScripts:
    def test_parse_sql_multiple_statements(self):
        statements = parse_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;"
        )
        assert len(statements) == 3

    def test_unknown_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("VACUUM movies")


class TestAstHelpers:
    def test_is_aggregate(self):
        statement = parse_statement("SELECT count(*) + 1, year FROM movies GROUP BY year")
        assert ast.is_aggregate(statement.items[0].expression) is True
        assert ast.is_aggregate(statement.items[1].expression) is False

    def test_referenced_columns(self):
        statement = parse_statement(
            "SELECT name FROM movies WHERE year > 1980 AND (rating + 1) * 2 > 10"
        )
        refs = ast.referenced_columns(statement.where)
        assert {ref.name for ref in refs} == {"year", "rating"}


class TestPragmaParsing:
    def test_read_has_no_value(self):
        statement = parse_statement("PRAGMA synchronous")
        assert isinstance(statement, ast.PragmaStatement)
        assert statement.name == "synchronous"
        assert statement.value is None

    @pytest.mark.parametrize(
        "sql, value",
        [
            ("PRAGMA checkpoint_interval = 25", 25),
            ("PRAGMA acquisition_sample_fraction = 0.5", 0.5),
            ("PRAGMA table_stats = 'movies'", "movies"),
            ("PRAGMA synchronous = normal", "normal"),
            ("PRAGMA synchronous = FULL", "full"),
            ("PRAGMA buffer_pool_pages(64)", 64),
        ],
    )
    def test_value_forms(self, sql, value):
        statement = parse_statement(sql)
        assert statement.value == value
        assert type(statement.value) is type(value)

    def test_name_is_lowercased(self):
        assert parse_statement("PRAGMA Wal_Checkpoint").name == "wal_checkpoint"

    def test_missing_value_rejected(self):
        with pytest.raises(SQLSyntaxError, match="expected a PRAGMA value"):
            parse_statement("PRAGMA synchronous = ,")


class TestCrowdConstraintParsing:
    def test_budget_before_completeness_with_comma(self):
        statement = parse_statement(
            "SELECT value FROM CROWD 'birds' WITH BUDGET <= 2, COMPLETENESS >= 0.75"
        )
        assert statement.from_crowd.budget == 2.0
        assert statement.from_crowd.completeness == 0.75

    def test_budget_alone(self):
        statement = parse_statement("SELECT value FROM CROWD 'birds' WITH BUDGET <= 0.5")
        assert statement.from_crowd.budget == 0.5
        assert statement.from_crowd.completeness is None

    def test_duplicate_budget_rejected(self):
        with pytest.raises(SQLSyntaxError, match="duplicate BUDGET"):
            parse_statement("SELECT value FROM CROWD 'x' WITH BUDGET <= 1 AND BUDGET <= 2")

    def test_negative_budget_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT value FROM CROWD 'x' WITH BUDGET <= -1")

    def test_unknown_constraint_rejected(self):
        with pytest.raises(SQLSyntaxError, match="expected COMPLETENESS or BUDGET"):
            parse_statement("SELECT value FROM CROWD 'x' WITH LIMIT 3")


class TestIdentifiers:
    def test_aggregate_keyword_as_alias(self):
        statement = parse_statement("SELECT year AS count FROM movies")
        assert statement.items[0].alias == "count"

    def test_reserved_word_is_not_an_identifier(self):
        with pytest.raises(SQLSyntaxError, match="expected identifier"):
            parse_statement("SELECT year AS FROM movies")
