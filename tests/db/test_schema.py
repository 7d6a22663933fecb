"""Tests for table schemas, columns and attribute kinds."""

from __future__ import annotations

import pytest

from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.types import MISSING, ColumnType, is_missing
from repro.errors import (
    DuplicateColumnError,
    IntegrityError,
    UnknownColumnError,
)


def make_schema() -> TableSchema:
    return TableSchema(
        "Movies",
        [
            Column("movie_id", ColumnType.INTEGER, nullable=False),
            Column("Name", ColumnType.TEXT, nullable=False),
            Column("year", ColumnType.INTEGER),
            Column("humor", ColumnType.REAL, kind=AttributeKind.PERCEPTUAL, default=MISSING),
        ],
        primary_key="movie_id",
    )


class TestColumn:
    def test_name_is_lowercased(self):
        assert Column("Year", ColumnType.INTEGER).name == "year"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Column("bad name", ColumnType.TEXT)
        with pytest.raises(ValueError):
            Column("", ColumnType.TEXT)

    def test_default_kind_is_factual(self):
        assert Column("year", ColumnType.INTEGER).kind is AttributeKind.FACTUAL

    def test_coerce_uses_column_type(self):
        assert Column("year", ColumnType.INTEGER).coerce("1999") == 1999


class TestTableSchema:
    def test_names_are_case_insensitive(self):
        schema = make_schema()
        assert schema.name == "movies"
        assert "NAME" in schema
        assert schema.column("NAME").name == "name"

    def test_column_order_preserved(self):
        assert make_schema().column_names == ["movie_id", "name", "year", "humor"]

    def test_len_and_iter(self):
        schema = make_schema()
        assert len(schema) == 4
        assert [column.name for column in schema] == schema.column_names

    def test_duplicate_column_rejected(self):
        with pytest.raises(DuplicateColumnError):
            TableSchema(
                "t", [Column("a", ColumnType.TEXT), Column("A", ColumnType.TEXT)]
            )

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", [])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(UnknownColumnError):
            TableSchema("t", [Column("a", ColumnType.TEXT)], primary_key="b")

    def test_unknown_column_lookup(self):
        with pytest.raises(UnknownColumnError):
            make_schema().column("suspense")

    def test_add_column(self):
        schema = make_schema()
        schema.add_column(
            Column("suspense", ColumnType.REAL, kind=AttributeKind.PERCEPTUAL, default=MISSING)
        )
        assert "suspense" in schema
        with pytest.raises(DuplicateColumnError):
            schema.add_column(Column("suspense", ColumnType.REAL))

    def test_copy_is_independent(self):
        schema = make_schema()
        clone = schema.copy()
        clone.add_column(Column("extra", ColumnType.TEXT))
        assert "extra" in clone
        assert "extra" not in schema


class TestNormaliseRow:
    def test_full_row(self):
        schema = make_schema()
        row = schema.normalise_row({"movie_id": 1, "name": "Rocky", "year": "1976"})
        assert row == {"movie_id": 1, "name": "Rocky", "year": 1976, "humor": MISSING}

    def test_missing_perceptual_default(self):
        row = make_schema().normalise_row({"movie_id": 1, "name": "Rocky"})
        assert is_missing(row["humor"])
        assert row["year"] is None

    def test_unknown_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            make_schema().normalise_row({"movie_id": 1, "name": "x", "director": "y"})

    def test_not_null_enforced(self):
        with pytest.raises(IntegrityError):
            make_schema().normalise_row({"movie_id": 1})

    def test_case_insensitive_keys(self):
        row = make_schema().normalise_row({"MOVIE_ID": 2, "Name": "Psycho"})
        assert row["movie_id"] == 2
        assert row["name"] == "Psycho"

    def test_describe(self):
        description = make_schema().describe()
        assert description[0]["name"] == "movie_id"
        assert description[0]["nullable"] is False
        humor = [d for d in description if d["name"] == "humor"][0]
        assert humor["kind"] == "perceptual"
        assert humor["default"] == "MISSING"
