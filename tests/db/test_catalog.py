"""Tests for the database catalog."""

from __future__ import annotations

import pytest

from repro.db.catalog import Catalog
from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType
from repro.errors import DuplicateTableError, UnknownTableError


def schema(name: str) -> TableSchema:
    return TableSchema(name, [Column("id", ColumnType.INTEGER)])


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        storage = catalog.create_table(schema("movies"))
        assert catalog.table("movies") is storage
        assert catalog.table("MOVIES") is storage
        assert catalog.table_names() == ["movies"]

    def test_duplicate_table(self):
        catalog = Catalog()
        catalog.create_table(schema("movies"))
        with pytest.raises(DuplicateTableError):
            catalog.create_table(schema("movies"))

    def test_if_not_exists_returns_existing(self):
        catalog = Catalog()
        first = catalog.create_table(schema("movies"))
        second = catalog.create_table(schema("movies"), if_not_exists=True)
        assert first is second

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            Catalog().table("nope")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table(schema("movies"))
        catalog.drop_table("movies")
        assert catalog.table_names() == []
        with pytest.raises(UnknownTableError):
            catalog.drop_table("movies")
        catalog.drop_table("movies", if_exists=True)

    def test_recreated_table_never_reuses_rowids(self):
        """Regression: rowids restarted at 1 after DROP TABLE/re-CREATE,
        so stale references (cached crowd answers, provenance) could alias
        the new incarnation's rows.  The catalog now carries a per-name
        high-water mark forward."""
        catalog = Catalog()
        first = catalog.create_table(schema("movies"))
        first.insert({"id": 1})
        first.insert({"id": 2})
        catalog.drop_table("movies")
        second = catalog.create_table(schema("movies"))
        assert second.insert({"id": 99}) == 3
        assert catalog.rowid_watermarks() == {"movies": 3}
        # A second drop/re-create keeps advancing, never rewinds.
        catalog.drop_table("movies")
        third = catalog.create_table(schema("movies"))
        assert third.insert({"id": 1}) == 4

    def test_table_names_and_iteration(self):
        catalog = Catalog()
        catalog.create_table(schema("a"))
        catalog.create_table(schema("b"))
        assert catalog.table_names() == ["a", "b"]
        assert len(catalog) == 2
        assert len(list(iter(catalog))) == 2
