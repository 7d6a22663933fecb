"""Tests for SELECT execution, aggregation, joins, ordering and DML."""

from __future__ import annotations

import pytest

from repro.db.connection import Connection
from repro.db.types import is_missing
from repro.errors import ExecutionError


@pytest.fixture
def db(movies_db) -> Connection:
    movies_db.run_statement(
        "CREATE TABLE ratings (movie_id INTEGER, user_id INTEGER, score REAL)"
    )
    movies_db.run_statement(
        "INSERT INTO ratings VALUES (1, 100, 5), (1, 101, 4), (2, 100, 5), (3, 102, 3), (99, 103, 1)"
    )
    return movies_db


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.run_statement("SELECT * FROM movies")
        assert result.columns == ["movie_id", "name", "year", "rating", "humor"]
        assert len(result) == 5

    def test_where_filter(self, db):
        result = db.run_statement("SELECT name FROM movies WHERE year > 1975")
        assert set(result.column("name")) == {"Rocky", "Airplane!", "Dirty Dancing"}

    def test_projection_expression(self, db):
        result = db.run_statement("SELECT name, year + 10 AS later FROM movies WHERE movie_id = 1")
        assert result.rows == [("Rocky", 1986)]

    def test_index_lookup_path(self, db):
        assert "IndexLookup" in db.explain("SELECT name FROM movies WHERE movie_id = 2")
        result = db.run_statement("SELECT name FROM movies WHERE movie_id = 2")
        assert result.rows == [("Psycho",)]

    def test_like_filter(self, db):
        result = db.run_statement("SELECT name FROM movies WHERE name LIKE '%o'")
        assert set(result.column("name")) == {"Psycho", "Vertigo"}

    def test_in_filter(self, db):
        result = db.run_statement("SELECT name FROM movies WHERE movie_id IN (1, 3)")
        assert set(result.column("name")) == {"Rocky", "Airplane!"}

    def test_between_filter(self, db):
        result = db.run_statement("SELECT count(*) FROM movies WHERE year BETWEEN 1960 AND 1980")
        assert result.scalar() == 3

    def test_missing_values_do_not_match_predicates(self, db):
        assert db.run_statement("SELECT name FROM movies WHERE humor > 5").rows == []
        assert db.run_statement("SELECT name FROM movies WHERE humor <= 5").rows == []

    def test_is_missing_predicate(self, db):
        result = db.run_statement("SELECT count(*) FROM movies WHERE humor IS MISSING")
        assert result.scalar() == 5

    def test_distinct(self, db):
        db.run_statement("INSERT INTO movies (movie_id, name, year) VALUES (6, 'Rocky', 1976)")
        result = db.run_statement("SELECT DISTINCT name FROM movies WHERE name = 'Rocky'")
        assert len(result) == 1

    def test_result_helpers(self, db):
        result = db.run_statement("SELECT movie_id, name FROM movies ORDER BY movie_id LIMIT 2")
        assert result.column("name") == ["Rocky", "Psycho"]
        with pytest.raises(ExecutionError):
            result.scalar()
        with pytest.raises(ExecutionError):
            result.column("nope")


class TestOrderingAndLimit:
    def test_order_by_desc(self, db):
        result = db.run_statement("SELECT name FROM movies ORDER BY year DESC")
        assert result.column("name")[0] == "Dirty Dancing"

    def test_order_by_multiple_keys(self, db):
        db.run_statement("INSERT INTO movies (movie_id, name, year) VALUES (7, 'AAA', 1976)")
        result = db.run_statement("SELECT name FROM movies WHERE year = 1976 ORDER BY year, name")
        assert result.column("name") == ["AAA", "Rocky"]

    def test_order_by_output_alias(self, db):
        result = db.run_statement("SELECT year + 1 AS next_year FROM movies ORDER BY next_year LIMIT 1")
        assert result.rows == [(1959,)]

    def test_limit_offset(self, db):
        result = db.run_statement("SELECT name FROM movies ORDER BY movie_id LIMIT 2 OFFSET 1")
        assert result.column("name") == ["Psycho", "Airplane!"]

    def test_nulls_sort_last(self, db):
        db.run_statement("INSERT INTO movies (movie_id, name) VALUES (8, 'Unknown Year')")
        ascending = db.run_statement("SELECT name FROM movies ORDER BY year").column("name")
        descending = db.run_statement("SELECT name FROM movies ORDER BY year DESC").column("name")
        assert ascending[-1] == "Unknown Year"
        assert descending[-1] == "Unknown Year"


class TestAggregation:
    def test_count_star(self, db):
        assert db.run_statement("SELECT count(*) FROM movies").scalar() == 5

    def test_aggregates_ignore_null_and_missing(self, db):
        db.run_statement("INSERT INTO movies (movie_id, name, rating) VALUES (9, 'NoYear', 1.0)")
        assert db.run_statement("SELECT count(year) FROM movies").scalar() == 5
        assert db.run_statement("SELECT count(humor) FROM movies").scalar() == 0
        assert db.run_statement("SELECT sum(humor) FROM movies").scalar() is None

    def test_avg_min_max(self, db):
        result = db.run_statement("SELECT min(year), max(year), avg(rating) FROM movies")
        low, high, average = result.rows[0]
        assert (low, high) == (1958, 1987)
        assert average == pytest.approx((8.1 + 8.5 + 7.7 + 8.3 + 7.0) / 5)

    def test_group_by(self, db):
        result = db.run_statement(
            "SELECT movie_id, count(*) AS votes, avg(score) FROM ratings GROUP BY movie_id "
            "ORDER BY votes DESC, movie_id"
        )
        assert result.rows[0][0] == 1
        assert result.rows[0][1] == 2

    def test_group_by_having(self, db):
        result = db.run_statement(
            "SELECT movie_id FROM ratings GROUP BY movie_id HAVING count(*) >= 2"
        )
        assert result.column("movie_id") == [1]

    def test_having_or_of_aggregates(self, db):
        result = db.run_statement(
            "SELECT movie_id FROM ratings GROUP BY movie_id "
            "HAVING count(*) >= 2 OR avg(score) >= 5 ORDER BY movie_id"
        )
        assert result.column("movie_id") == [1, 2]

    def test_having_and_of_aggregates(self, db):
        result = db.run_statement(
            "SELECT movie_id FROM ratings GROUP BY movie_id "
            "HAVING count(*) = 1 AND avg(score) < 4 ORDER BY movie_id"
        )
        assert result.column("movie_id") == [3, 99]

    @pytest.mark.parametrize(
        "having, expected",
        [
            # max(humor) is NULL in every group: the comparison is unknown.
            ("max(humor) > 0 OR count(*) = 1", [1, 2, 3, 4, 5]),
            ("max(humor) > 0 OR count(*) > 1", []),
            ("max(humor) > 0 AND count(*) = 1", []),
            ("count(*) > 1 AND max(humor) > 0", []),
        ],
    )
    def test_having_three_valued_logic(self, db, having, expected):
        result = db.run_statement(
            f"SELECT movie_id FROM movies GROUP BY movie_id HAVING {having} ORDER BY movie_id"
        )
        assert result.column("movie_id") == expected

    def test_count_distinct(self, db):
        assert db.run_statement("SELECT count(DISTINCT user_id) FROM ratings").scalar() == 4

    def test_aggregate_arithmetic(self, db):
        result = db.run_statement("SELECT max(year) - min(year) FROM movies")
        assert result.scalar() == 1987 - 1958


class TestJoins:
    def test_inner_join(self, db):
        result = db.run_statement(
            "SELECT m.name, r.score FROM movies m JOIN ratings r ON m.movie_id = r.movie_id "
            "ORDER BY m.movie_id, r.user_id"
        )
        assert len(result) == 4
        assert result.rows[0] == ("Rocky", 5.0)

    def test_inner_join_drops_unmatched(self, db):
        result = db.run_statement(
            "SELECT r.movie_id FROM ratings r JOIN movies m ON m.movie_id = r.movie_id"
        )
        assert 99 not in result.column("movie_id")

    def test_left_join_keeps_unmatched(self, db):
        result = db.run_statement(
            "SELECT m.name, r.score FROM movies m LEFT JOIN ratings r ON m.movie_id = r.movie_id "
            "ORDER BY m.movie_id"
        )
        names = [row[0] for row in result.rows]
        assert "Vertigo" in names
        vertigo_rows = [row for row in result.rows if row[0] == "Vertigo"]
        assert vertigo_rows[0][1] is None

    def test_cross_join(self, db):
        result = db.run_statement("SELECT count(*) FROM movies CROSS JOIN ratings")
        assert result.scalar() == 5 * 5

    def test_join_aggregate(self, db):
        result = db.run_statement(
            "SELECT m.name, count(*) AS n FROM movies m JOIN ratings r "
            "ON m.movie_id = r.movie_id GROUP BY m.name ORDER BY n DESC, m.name LIMIT 1"
        )
        assert result.rows == [("Rocky", 2)]


class TestDML:
    def test_insert_rowcount(self, db):
        result = db.run_statement("INSERT INTO movies (movie_id, name) VALUES (20, 'New'), (21, 'Newer')")
        assert result.rowcount == 2

    def test_insert_wrong_arity(self, db):
        with pytest.raises(ExecutionError):
            db.run_statement("INSERT INTO movies (movie_id, name) VALUES (22)")

    def test_update(self, db):
        result = db.run_statement("UPDATE movies SET year = 1999 WHERE name = 'Rocky'")
        assert result.rowcount == 1
        assert db.run_statement("SELECT year FROM movies WHERE name = 'Rocky'").scalar() == 1999

    def test_update_with_expression(self, db):
        db.run_statement("UPDATE movies SET rating = rating + 1 WHERE movie_id = 1")
        assert db.run_statement("SELECT rating FROM movies WHERE movie_id = 1").scalar() == pytest.approx(9.1)

    def test_update_all_rows(self, db):
        assert db.run_statement("UPDATE movies SET rating = 0").rowcount == 5

    def test_delete(self, db):
        assert db.run_statement("DELETE FROM movies WHERE year < 1960").rowcount == 1
        assert db.run_statement("SELECT count(*) FROM movies").scalar() == 4

    def test_delete_all(self, db):
        db.run_statement("DELETE FROM ratings")
        assert db.run_statement("SELECT count(*) FROM ratings").scalar() == 0


class TestDDL:
    def test_alter_table_add_perceptual_column(self, db):
        db.run_statement("ALTER TABLE movies ADD COLUMN is_comedy BOOLEAN PERCEPTUAL")
        values = db.column_values("movies", "is_comedy")
        assert all(is_missing(v) for v in values.values())

    def test_alter_table_add_factual_column_defaults_null(self, db):
        db.run_statement("ALTER TABLE movies ADD COLUMN director TEXT")
        values = db.column_values("movies", "director")
        assert all(v is None for v in values.values())

    def test_alter_table_with_default(self, db):
        db.run_statement("ALTER TABLE movies ADD COLUMN views INTEGER DEFAULT 0")
        assert db.run_statement("SELECT sum(views) FROM movies").scalar() == 0

    def test_create_insert_select_roundtrip(self):
        db = Connection()
        db.run_statement("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        db.run_statement("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.run_statement("SELECT b FROM t WHERE a = 2").scalar() == "y"

    def test_drop_table(self, db):
        db.run_statement("DROP TABLE ratings")
        assert "ratings" not in db.table_names()
