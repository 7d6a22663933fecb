"""Abstract syntax tree node definitions for the SQL dialect.

All nodes are frozen dataclasses so that parsed statements can be hashed,
compared in tests and safely shared between planner passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (number, string, boolean, NULL or MISSING)."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """A qmark-style ``?`` placeholder, numbered left to right from 0.

    Each execution compiles a placeholder into a read of its slot in the
    execution's parameter tuple (see :mod:`repro.db.sql.parameters`); values
    are never interpolated into SQL text.
    """

    index: int


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified by a table alias."""

    name: str
    table: Optional[str] = None

    def key(self) -> str:
        """Canonical lookup key (``alias.column`` or ``column``)."""
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """The ``*`` wildcard, optionally qualified (``t.*``)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator application (``NOT x``, ``-x``)."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator application (arithmetic, comparison, AND/OR, LIKE)."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` and ``expr IS [NOT] MISSING``."""

    operand: Expression
    negated: bool = False
    missing: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Function application; aggregates are recognised by the planner."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class CaseExpression(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None


#: Names of supported aggregate functions.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def children(expr: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of *expr*, in evaluation order."""
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, IsNull)):
        return (expr.operand,)
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, CaseExpression):
        parts = [part for branch in expr.branches for part in branch]
        if expr.default is not None:
            parts.append(expr.default)
        return tuple(parts)
    return ()


def aggregate_calls(expr: Expression) -> list[FunctionCall]:
    """Every aggregate call in *expr* at any depth, outermost first.

    The arguments of an aggregate call are not searched: an aggregate
    nested in another's argument is an error when it is evaluated.
    """
    if isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS:
        return [expr]
    return [call for child in children(expr) for call in aggregate_calls(child)]


def is_aggregate(expr: Expression) -> bool:
    """True if *expr* contains an aggregate function call."""
    return bool(aggregate_calls(expr))


def aggregate_key(call: FunctionCall) -> str:
    """The identity of an aggregate call: structurally equal calls share it.

    The node's ``repr`` tells ``sum(v * 1)`` from ``sum(v * 1.0)``, which
    compare equal as dataclasses.
    """
    return repr(call)


def referenced_columns(expr: Expression) -> list[ColumnRef]:
    """Return every column reference appearing in *expr* (pre-order)."""
    if isinstance(expr, ColumnRef):
        return [expr]
    return [ref for child in children(expr) for ref in referenced_columns(child)]


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection item: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A table reference in the FROM clause with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        """Alias if present, otherwise the table name."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An inner or left join of *right* onto the accumulated FROM result."""

    right: TableRef
    condition: Optional[Expression]
    kind: str = "inner"  # "inner", "left" or "cross"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class CrowdRelation:
    """The open-world ``FROM CROWD`` relation of a SELECT or INSERT.

    *predicate* is the natural-language description posted to workers
    ("ice cream flavors"); *completeness* and *budget* are the optional
    ``WITH COMPLETENESS >= x`` / ``WITH BUDGET <= y`` stopping constraints.
    The relation exposes exactly one column, ``value``.
    """

    predicate: str
    completeness: Optional[float] = None
    budget: Optional[float] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Marker base class for statement nodes."""


@dataclass(frozen=True)
class SelectStatement(Statement):
    """A SELECT query."""

    items: tuple[SelectItem, ...]
    from_table: Optional[TableRef]
    joins: tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    #: Set for ``SELECT ... FROM CROWD '<predicate>'`` open-world queries;
    #: ``from_table`` is None in that case and the planner routes to the
    #: CrowdEnumerate pipeline.
    from_crowd: Optional[CrowdRelation] = None


@dataclass(frozen=True)
class ColumnDefinition:
    """A column definition inside CREATE TABLE / ALTER TABLE ADD COLUMN."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    perceptual: bool = False
    default: Optional[Expression] = None


@dataclass(frozen=True)
class CreateTableStatement(Statement):
    """CREATE TABLE [IF NOT EXISTS] name (column definitions)."""

    table: str
    columns: tuple[ColumnDefinition, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTableStatement(Statement):
    """DROP TABLE [IF EXISTS] name."""

    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndexStatement(Statement):
    """CREATE INDEX [name] ON table (column)."""

    table: str
    column: str
    name: Optional[str] = None


@dataclass(frozen=True)
class ExplainStatement(Statement):
    """EXPLAIN <select statement>."""

    statement: "SelectStatement"


@dataclass(frozen=True)
class AlterTableAddColumn(Statement):
    """ALTER TABLE name ADD COLUMN definition."""

    table: str
    column: ColumnDefinition


@dataclass(frozen=True)
class InsertStatement(Statement):
    """INSERT INTO name [(cols)] VALUES (...), (...)."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class InsertFromCrowdStatement(Statement):
    """INSERT INTO name (column) FROM CROWD [WHERE 'predicate'] [WITH ...].

    Open-world insertion: the crowd *enumerates* values matching the
    predicate and each new (deduplicated) answer becomes a row.  Exactly
    one target column receives the enumerated values; the table's integer
    primary key is auto-assigned.
    """

    table: str
    columns: tuple[str, ...]
    crowd: CrowdRelation


@dataclass(frozen=True)
class UpdateStatement(Statement):
    """UPDATE name SET col = expr [, ...] [WHERE expr]."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class DeleteStatement(Statement):
    """DELETE FROM name [WHERE expr]."""

    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class PragmaStatement(Statement):
    """PRAGMA name [= value] — durability and engine knobs.

    Without a value the pragma is a *read* (returns the current setting);
    with one it is a *write* (or an action, e.g. ``PRAGMA
    wal_checkpoint``).  Values are plain scalars, never expressions.
    """

    name: str
    value: Union[str, int, float, None] = None


#: Convenience union of all statement types.
AnyStatement = Union[
    SelectStatement,
    CreateTableStatement,
    DropTableStatement,
    AlterTableAddColumn,
    InsertStatement,
    InsertFromCrowdStatement,
    UpdateStatement,
    DeleteStatement,
    PragmaStatement,
]
