"""Tests for the query planner (validation, star expansion, access paths)."""

from __future__ import annotations

import pytest

from repro.db.catalog import Catalog
from repro.db.connection import Connection
from repro.db.schema import Column, TableSchema
from repro.db.sql.parser import parse_statement
from repro.db.sql.planner import Planner
from repro.db.types import ColumnType
from repro.errors import PlanningError, UnknownColumnError, UnknownTableError


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    movies = catalog.create_table(
        TableSchema(
            "movies",
            [
                Column("movie_id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT),
                Column("year", ColumnType.INTEGER),
            ],
            primary_key="movie_id",
        )
    )
    movies.insert({"movie_id": 1, "name": "Rocky", "year": 1976})
    ratings = catalog.create_table(
        TableSchema(
            "ratings",
            [
                Column("movie_id", ColumnType.INTEGER),
                Column("user_id", ColumnType.INTEGER),
                Column("score", ColumnType.REAL),
            ],
        )
    )
    ratings.insert({"movie_id": 1, "user_id": 10, "score": 4.0})
    return catalog


@pytest.fixture
def planner(catalog) -> Planner:
    return Planner(catalog)


def plan(planner: Planner, sql: str):
    return planner.plan_select(parse_statement(sql))


class TestValidation:
    def test_unknown_table(self, planner):
        with pytest.raises(UnknownTableError):
            plan(planner, "SELECT * FROM nope")

    def test_unknown_column_triggers_expansion_error(self, planner):
        with pytest.raises(UnknownColumnError) as error:
            plan(planner, "SELECT name FROM movies WHERE is_comedy = true")
        assert error.value.column == "is_comedy"
        assert error.value.table == "movies"

    def test_unknown_column_in_projection(self, planner):
        with pytest.raises(UnknownColumnError):
            plan(planner, "SELECT humor FROM movies")

    def test_unknown_alias(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT x.name FROM movies m")

    def test_duplicate_alias(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT * FROM movies m JOIN ratings m ON 1 = 1")

    def test_ambiguous_column_across_tables(self, planner):
        with pytest.raises(PlanningError):
            plan(
                planner,
                "SELECT movie_id FROM movies m JOIN ratings r ON m.movie_id = r.movie_id",
            )

    def test_order_by_output_alias_is_allowed(self, planner):
        result = plan(planner, "SELECT year AS y FROM movies ORDER BY y")
        assert result.order_by[0].expression.name == "y"

    def test_select_without_from_and_column(self, planner):
        with pytest.raises(UnknownColumnError):
            plan(planner, "SELECT name")


class TestProjectionResolution:
    def test_star_expansion(self, planner):
        result = plan(planner, "SELECT * FROM movies")
        assert [column.name for column in result.output] == ["movie_id", "name", "year"]

    def test_qualified_star_expansion(self, planner):
        result = plan(
            planner,
            "SELECT m.* FROM movies m JOIN ratings r ON m.movie_id = r.movie_id",
        )
        assert [column.name for column in result.output] == ["movie_id", "name", "year"]

    def test_unknown_alias_star(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT x.* FROM movies m")

    def test_alias_names(self, planner):
        result = plan(planner, "SELECT name AS title, year FROM movies")
        assert [column.name for column in result.output] == ["title", "year"]

    def test_duplicate_output_names_are_disambiguated(self, planner):
        result = plan(planner, "SELECT year, year FROM movies")
        assert result.output[0].name != result.output[1].name

    def test_aggregate_detection(self, planner):
        result = plan(planner, "SELECT count(*) FROM movies")
        assert result.output[0].aggregate is True
        assert result.aggregate is not None


class TestAggregateValidation:
    def test_group_by_allows_grouped_columns(self, planner):
        result = plan(planner, "SELECT year, count(*) FROM movies GROUP BY year")
        assert result.aggregate is not None

    def test_non_grouped_column_rejected(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT name, count(*) FROM movies GROUP BY year")

    def test_mixed_aggregate_without_group_by_rejected(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT name, count(*) FROM movies")

    def test_having_without_aggregate_rejected(self, planner):
        with pytest.raises(PlanningError):
            plan(planner, "SELECT name FROM movies HAVING year > 1980")


class TestAccessPath:
    def test_index_lookup_for_pk_equality(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE movie_id = 1")
        path = planner.choose_scan_path(result)
        assert path is not None and path.column == "movie_id"
        assert path.low is path.high  # a point probe: one key, both bounds

    def test_reversed_equality_also_uses_index(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE 1 = movie_id")
        path = planner.choose_scan_path(result)
        assert path is not None and path.column == "movie_id"

    def test_non_indexed_column_uses_scan(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE year = 1976")
        assert planner.choose_scan_path(result) is None

    def test_complex_predicate_uses_scan(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE movie_id = 1 OR year = 1976")
        assert planner.choose_scan_path(result) is None

    def test_point_probe_on_plain_column_survives_acquisition(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE movie_id = ?")
        path = planner.choose_scan_path(result, acquiring=True)
        assert path is not None and path.column == "movie_id"

    def test_explain_mentions_plan_steps(self, catalog):
        description = Connection(catalog).explain(
            "SELECT year, count(*) AS n FROM movies WHERE year > 1950 "
            "GROUP BY year ORDER BY n DESC LIMIT 3"
        )
        assert "SeqScan" in description
        assert "Aggregate" in description
        assert "Sort" in description
        assert "Limit 3" in description

    def test_explain_index_lookup(self, catalog):
        description = Connection(catalog).explain("SELECT name FROM movies WHERE movie_id = ?")
        assert "IndexLookup movies AS movies ON movie_id" in description

    def test_referenced_columns_collected(self, planner):
        result = plan(planner, "SELECT name FROM movies WHERE year > 1950 ORDER BY year")
        names = {name for _qualifier, name in result.referenced_refs}
        assert "year" in names
        assert "name" in names
