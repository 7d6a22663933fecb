"""Table schemas with factual vs. perceptual attribute kinds.

The paper's central observation is that databases hold two kinds of
attributes: *factual* ones (title, year, director) that can only be looked
up, and *perceptual* ones (humor, suspense, is_comedy) that encode human
judgment and can be extracted from a perceptual space.  The schema records
this distinction so that the expansion layer knows which strategy applies
to a new column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator

from repro.db.types import MISSING, ColumnType, coerce_value, is_missing, python_type_of
from repro.errors import (
    DuplicateColumnError,
    IntegrityError,
    UnknownColumnError,
)


class AttributeKind(enum.Enum):
    """Whether a column stores factual or perceptual (judgment) data."""

    FACTUAL = "factual"
    PERCEPTUAL = "perceptual"


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name (stored lower-case; SQL identifiers are case-insensitive).
    type:
        Storage type, one of :class:`~repro.db.types.ColumnType`.
    kind:
        Factual or perceptual; perceptual columns participate in
        query-driven schema expansion.
    nullable:
        Whether SQL NULL values are accepted.
    default:
        Default value used by INSERT when the column is omitted.  New
        perceptual columns default to :data:`~repro.db.types.MISSING`.
    """

    name: str
    type: ColumnType
    kind: AttributeKind = AttributeKind.FACTUAL
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid column name: {self.name!r}")

    def coerce(self, value: Any) -> Any:
        """Coerce *value* to this column's type (NULL/MISSING pass through)."""
        return coerce_value(value, self.type)

    def with_kind(self, kind: AttributeKind) -> "Column":
        """Return a copy of this column with a different attribute kind."""
        return replace(self, kind=kind)


class TableSchema:
    """Ordered collection of :class:`Column` definitions for one table."""

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        *,
        primary_key: str | None = None,
    ) -> None:
        self.name = name.lower()
        self._columns: dict[str, Column] = {}
        for column in columns:
            if column.name in self._columns:
                raise DuplicateColumnError(column.name, self.name)
            self._columns[column.name] = column
        if not self._columns:
            raise ValueError(f"table {name!r} must have at least one column")
        self.primary_key = primary_key.lower() if primary_key else None
        if self.primary_key is not None and self.primary_key not in self._columns:
            raise UnknownColumnError(self.primary_key, self.name)
        self._refresh_layout()

    # -- introspection ------------------------------------------------------

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name.lower() in self._columns

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self._columns)

    def column(self, name: str) -> Column:
        """Return the column named *name* or raise UnknownColumnError."""
        key = name.lower()
        if key not in self._columns:
            raise UnknownColumnError(name, self.name)
        return self._columns[key]

    def perceptual_columns(self) -> list[Column]:
        """All columns marked as perceptual attributes."""
        return [c for c in self._columns.values() if c.kind is AttributeKind.PERCEPTUAL]

    def factual_columns(self) -> list[Column]:
        """All columns marked as factual attributes."""
        return [c for c in self._columns.values() if c.kind is AttributeKind.FACTUAL]

    # -- mutation -----------------------------------------------------------

    def add_column(self, column: Column) -> None:
        """Add *column* to the schema (used by ALTER TABLE and expansion)."""
        if column.name in self._columns:
            raise DuplicateColumnError(column.name, self.name)
        self._columns[column.name] = column
        self._refresh_layout()

    def _refresh_layout(self) -> None:
        #: ``(name, stored type, column type, nullable, default)`` per column,
        #: in declaration order: what :meth:`normalise_row` reads per value.
        self._layout = tuple(
            (c.name, python_type_of(c.type), c.type, c.nullable, c.default)
            for c in self._columns.values()
        )

    # -- row handling -------------------------------------------------------

    def normalise_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """Validate and coerce an input row against this schema.

        Missing columns receive their default, unknown columns raise,
        NOT NULL violations raise :class:`~repro.errors.IntegrityError`.
        A value that already has the column's stored Python type is kept
        as it is (coercion would return it unchanged).
        """
        row: dict[str, Any] = {}
        lowered = {key.lower(): value for key, value in values.items()}
        for key in lowered:
            if key not in self._columns:
                raise UnknownColumnError(key, self.name)
        for name, stored_type, column_type, nullable, default in self._layout:
            if name in lowered:
                value = lowered[name]
                if type(value) is not stored_type:
                    value = coerce_value(value, column_type)
            else:
                value = default
            if value is None and not nullable:
                raise IntegrityError(f"column {name!r} of table {self.name!r} is NOT NULL")
            row[name] = value
        return row

    def describe(self) -> list[dict[str, Any]]:
        """Return a human-readable description of the schema."""
        return [
            {
                "name": column.name,
                "type": column.type.value,
                "kind": column.kind.value,
                "nullable": column.nullable,
                "default": "MISSING" if is_missing(column.default) else column.default,
            }
            for column in self._columns.values()
        ]

    def copy(self) -> "TableSchema":
        """Return an independent copy of this schema."""
        return TableSchema(
            self.name, list(self._columns.values()), primary_key=self.primary_key
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self._columns.values())
        return f"TableSchema({self.name!r}: {cols})"


def perceptual_column(name: str, type: ColumnType = ColumnType.REAL) -> Column:
    """Convenience constructor for a perceptual column defaulting to MISSING."""
    return Column(
        name=name,
        type=type,
        kind=AttributeKind.PERCEPTUAL,
        nullable=True,
        default=MISSING,
    )
