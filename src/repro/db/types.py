"""Value types and missing-value semantics for the crowd-enabled database.

The database distinguishes two flavours of "no value":

* SQL ``NULL`` (Python ``None``) — the value is known to be absent.
* :data:`MISSING` — the value is *not yet known* and is a candidate for
  crowd-sourcing or perceptual-space extraction at query time.  This is the
  marker newly expanded columns are initialised with.

Both compare as unknown in predicates (three-valued logic collapses to
"does not satisfy the predicate"), but only :data:`MISSING` triggers the
crowd machinery.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError


class Missing:
    """Singleton marker for a value that has not been obtained yet."""

    _instance: "Missing | None" = None

    def __new__(cls) -> "Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False

    def __copy__(self) -> "Missing":
        return self

    def __deepcopy__(self, memo: "dict[int, Any]") -> "Missing":
        return self

    def __reduce__(self) -> "tuple[type[Missing], tuple[object, ...]]":
        return (Missing, ())


#: The canonical missing-value marker used throughout :mod:`repro.db`.
MISSING = Missing()


def is_missing(value: Any) -> bool:
    """Return True if *value* is the :data:`MISSING` marker."""
    return isinstance(value, Missing)


def is_absent(value: Any) -> bool:
    """Return True if *value* is NULL or :data:`MISSING`."""
    return value is None or isinstance(value, Missing)


#: Rank classes of :func:`sort_rank`: numeric < text < other < unknown.
_RANK_NUMERIC = 0
_RANK_TEXT = 1
_RANK_OTHER = 2
_RANK_UNKNOWN = 3
#: Every NaN ranks here: after ``(_RANK_NUMERIC, inf)``, its own prefix,
#: and before any text.
_RANK_NAN = (_RANK_NUMERIC, float("inf"), 1)


def sort_rank(value: Any) -> tuple[Any, ...]:
    """Total-order sort key over heterogeneous SQL values.

    This is the *single* definition of the engine's value ordering: the
    ``Sort`` operator's precomputed per-row keys and the ordered
    secondary index both rank values through it, which is what guarantees
    that an index-backed ORDER BY and an explicit sort agree row-for-row.
    Values rank numeric (bools included) < text < other; ``None`` and
    :data:`MISSING` rank **last** (NULLS LAST).  NaN, which compares
    unequal to everything, gets one fixed rank after every other number
    (including infinity), as in PostgreSQL.
    """
    if value is None or is_missing(value):
        return (_RANK_UNKNOWN, 0)
    if isinstance(value, bool):
        return (_RANK_NUMERIC, int(value))
    if isinstance(value, int):
        return (_RANK_NUMERIC, float(value))
    if isinstance(value, float):
        return _RANK_NAN if value != value else (_RANK_NUMERIC, value)
    if isinstance(value, str):
        return (_RANK_TEXT, value)
    return (_RANK_OTHER, str(value))


class ColumnType(enum.Enum):
    """Supported column types."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def from_name(cls, name: str) -> "ColumnType":
        """Parse a SQL type name (case-insensitive, with common aliases)."""
        normalised = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "NUMERIC": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if normalised not in aliases:
            raise TypeMismatchError(f"unknown column type: {name!r}")
        return aliases[normalised]


_TRUE_STRINGS = {"true", "t", "yes", "1"}
_FALSE_STRINGS = {"false", "f", "no", "0"}


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Coerce *value* to *column_type*, preserving NULL and MISSING.

    Raises :class:`~repro.errors.TypeMismatchError` if the value cannot be
    represented in the requested type without loss of meaning.
    """
    if value is None or is_missing(value):
        return value

    if column_type is ColumnType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to INTEGER")

    if column_type is ColumnType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to REAL") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to REAL")

    if column_type is ColumnType.TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return str(value)
        raise TypeMismatchError(f"cannot coerce {value!r} to TEXT")

    if column_type is ColumnType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in _TRUE_STRINGS:
                return True
            if lowered in _FALSE_STRINGS:
                return False
            raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")
        raise TypeMismatchError(f"cannot coerce {value!r} to BOOLEAN")

    raise TypeMismatchError(f"unsupported column type: {column_type}")


def python_type_of(column_type: ColumnType) -> type:
    """Return the canonical Python type stored for *column_type*."""
    return {
        ColumnType.INTEGER: int,
        ColumnType.REAL: float,
        ColumnType.TEXT: str,
        ColumnType.BOOLEAN: bool,
    }[column_type]
