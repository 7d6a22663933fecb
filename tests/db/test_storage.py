"""Tests for the row storage layer (inserts, updates, indexes, MISSING accounting)."""

from __future__ import annotations

import pytest

from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.storage import TableStorage
from repro.db.types import MISSING, ColumnType, is_missing
from repro.errors import ExecutionError, IntegrityError, UnknownColumnError


@pytest.fixture
def storage() -> TableStorage:
    schema = TableSchema(
        "movies",
        [
            Column("movie_id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("year", ColumnType.INTEGER),
            Column("is_comedy", ColumnType.BOOLEAN, kind=AttributeKind.PERCEPTUAL, default=MISSING),
        ],
        primary_key="movie_id",
    )
    table = TableStorage(schema)
    table.insert({"movie_id": 1, "name": "Rocky", "year": 1976})
    table.insert({"movie_id": 2, "name": "Psycho", "year": 1960})
    table.insert({"movie_id": 3, "name": "Airplane!", "year": 1980})
    return table


class TestInsert:
    def test_insert_returns_increasing_rowids(self, storage):
        rowid = storage.insert({"movie_id": 9, "name": "Vertigo"})
        assert rowid == 4
        assert len(storage) == 4

    def test_successive_inserts_get_consecutive_rowids(self, storage):
        rowids = [
            storage.insert({"movie_id": 10, "name": "a"}),
            storage.insert({"movie_id": 11, "name": "b"}),
        ]
        assert rowids == [4, 5]

    def test_primary_key_uniqueness(self, storage):
        with pytest.raises(IntegrityError):
            storage.insert({"movie_id": 1, "name": "Duplicate"})

    def test_primary_key_must_not_be_null(self, storage):
        with pytest.raises(IntegrityError):
            storage.insert({"movie_id": None, "name": "x"})

    def test_perceptual_column_defaults_to_missing(self, storage):
        row = storage.get(1)
        assert is_missing(row["is_comedy"])


class TestGetUpdateDelete:
    def test_get_unknown_rowid(self, storage):
        with pytest.raises(ExecutionError):
            storage.get(99)

    def test_update_changes_value_and_index(self, storage):
        storage.update(1, {"year": 1977})
        assert storage.get(1)["year"] == 1977

    def test_update_respects_not_null(self, storage):
        with pytest.raises(IntegrityError):
            storage.update(1, {"name": None})

    def test_update_unknown_column(self, storage):
        with pytest.raises(UnknownColumnError):
            storage.update(1, {"director": "someone"})

    def test_delete(self, storage):
        storage.delete(2)
        assert len(storage) == 2
        with pytest.raises(ExecutionError):
            storage.get(2)

    def test_delete_removes_from_index(self, storage):
        index = storage.index_on("movie_id")
        assert index.lookup(2)
        storage.delete(2)
        assert not index.lookup(2)


class TestIndexes:
    def test_primary_key_indexed_automatically(self, storage):
        index = storage.index_on("movie_id")
        assert index is not None
        assert index.lookup(1)

    def test_create_index_backfills(self, storage):
        index = storage.create_index("year")
        assert index.lookup(1976)
        assert len(index) == 3

    def test_create_index_unknown_column(self, storage):
        with pytest.raises(UnknownColumnError):
            storage.create_index("director")

    def test_create_index_twice_returns_same(self, storage):
        first = storage.create_index("year")
        second = storage.create_index("year")
        assert first is second

    def test_missing_values_not_indexed(self, storage):
        index = storage.create_index("is_comedy")
        assert len(index) == 0

    def test_index_updates_on_update(self, storage):
        index = storage.create_index("year")
        storage.update(1, {"year": 2000})
        assert not index.lookup(1976) or 1 not in index.lookup(1976)
        assert 1 in index.lookup(2000)


class TestScans:
    def test_scan_yields_all_rows(self, storage):
        assert len(list(storage.scan())) == 3

    def test_rows_returns_copies(self, storage):
        rows = storage.rows()
        rows[0]["name"] = "mutated"
        assert storage.get(1)["name"] == "Rocky"


class TestSchemaEvolutionAndMissing:
    def test_add_column_fills_missing(self, storage):
        storage.add_column(
            Column("suspense", ColumnType.REAL, kind=AttributeKind.PERCEPTUAL, default=MISSING)
        )
        assert all(is_missing(row["suspense"]) for row in storage.rows())

    def test_add_column_with_value(self, storage):
        storage.add_column(Column("views", ColumnType.INTEGER), fill_value=0)
        assert all(row["views"] == 0 for row in storage.rows())

    def test_missing_rowids_and_fraction(self, storage):
        assert storage.missing_rowids("is_comedy") == [1, 2, 3]
        storage.update(1, {"is_comedy": True})
        assert storage.missing_rowids("is_comedy") == [2, 3]

    def test_fill_values(self, storage):
        updated = storage.fill_values("is_comedy", {1: True, 3: False})
        assert updated == 2
        assert storage.get(1)["is_comedy"] is True
        assert storage.get(3)["is_comedy"] is False
        assert is_missing(storage.get(2)["is_comedy"])
