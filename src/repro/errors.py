"""Exception hierarchy for the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors.  The
hierarchy mirrors the package layout: database errors, crowd-platform
errors, learning errors and experiment errors each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Database errors
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by :mod:`repro.db`."""


class SQLSyntaxError(DatabaseError):
    """Raised when a SQL statement cannot be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PlanningError(DatabaseError):
    """Raised when a parsed statement cannot be turned into a plan."""


class ParameterBindingError(DatabaseError):
    """Raised when query parameters do not match the ``?`` placeholders.

    Covers both arity mismatches (too few / too many values) and binding
    values of types that cannot be stored.
    """


class ExecutionError(DatabaseError):
    """Raised when a query plan fails during execution."""


class CatalogError(DatabaseError):
    """Raised on catalog violations (missing/duplicate tables or columns)."""


class UnknownTableError(CatalogError):
    """Raised when a statement references a table that does not exist."""

    def __init__(self, table: str) -> None:
        self.table = table
        super().__init__(f"unknown table: {table!r}")


class UnknownColumnError(CatalogError):
    """Raised when a statement references a column that does not exist.

    The schema-expansion machinery intercepts this error for perceptual
    attributes and converts it into an expansion request.
    """

    def __init__(self, column: str, table: str | None = None) -> None:
        self.column = column
        self.table = table
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {column!r}{where}")


class DuplicateTableError(CatalogError):
    """Raised when creating a table whose name already exists."""

    def __init__(self, table: str) -> None:
        self.table = table
        super().__init__(f"table already exists: {table!r}")


class DuplicateColumnError(CatalogError):
    """Raised when adding a column whose name already exists."""

    def __init__(self, column: str, table: str | None = None) -> None:
        self.column = column
        self.table = table
        where = f" in table {table!r}" if table else ""
        super().__init__(f"column already exists: {column!r}{where}")


class TypeMismatchError(DatabaseError):
    """Raised when a value does not match the declared column type."""


class IntegrityError(DatabaseError):
    """Raised on constraint violations (primary key, NOT NULL, ...)."""


class PersistenceError(DatabaseError):
    """Raised when the durability layer cannot open, read or write a
    database directory (unknown snapshot format, locked directory, ...)."""


# ---------------------------------------------------------------------------
# Server / wire-protocol errors
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for errors raised by :mod:`repro.server`."""


class WireProtocolError(ServerError):
    """Raised when a wire frame or message violates the protocol.

    Covers malformed frame headers, oversized frames, payloads that are
    not valid UTF-8 JSON objects, and requests missing required fields.
    The server answers with a typed ``protocol`` wire error and — when the
    framing itself is still intact — keeps the connection alive.
    """


class TenantAuthError(ServerError):
    """Raised when a ``connect`` request names an unknown tenant or
    presents the wrong token."""


class RateLimitError(ServerError):
    """Raised when a tenant exceeds its configured request rate."""


class ServerOverloadedError(ServerError):
    """Raised by admission control when the server is at max in-flight
    statements; clients should back off and retry."""


# ---------------------------------------------------------------------------
# Crowd-platform errors
# ---------------------------------------------------------------------------


class CrowdError(ReproError):
    """Base class for errors raised by :mod:`repro.crowd`."""


class NoWorkersAvailableError(CrowdError):
    """Raised when a HIT group cannot be completed because the worker pool
    is exhausted (e.g. all workers were banned by quality control)."""


class BudgetExceededError(CrowdError):
    """Raised when posting HITs would exceed the configured budget."""

    def __init__(self, budget: float, required: float) -> None:
        self.budget = budget
        self.required = required
        super().__init__(
            f"budget exceeded: limit ${budget:.2f}, required ${required:.2f}"
        )


class HITConfigurationError(CrowdError):
    """Raised when a HIT or HIT group is misconfigured."""


# ---------------------------------------------------------------------------
# Learning / perceptual-space errors
# ---------------------------------------------------------------------------


class LearningError(ReproError):
    """Base class for errors raised by :mod:`repro.learn`."""


class NotFittedError(LearningError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""

    def __init__(self, estimator: object) -> None:
        name = type(estimator).__name__
        super().__init__(f"{name} instance is not fitted yet; call fit() first")


class PerceptualSpaceError(ReproError):
    """Base class for errors raised by :mod:`repro.perceptual`."""


class UnknownItemError(PerceptualSpaceError):
    """Raised when an item id is not present in the perceptual space."""

    def __init__(self, item_id: object) -> None:
        self.item_id = item_id
        super().__init__(f"unknown item: {item_id!r}")


class UnknownUserError(PerceptualSpaceError):
    """Raised when a user id is not present in the perceptual space."""

    def __init__(self, user_id: object) -> None:
        self.user_id = user_id
        super().__init__(f"unknown user: {user_id!r}")


# ---------------------------------------------------------------------------
# Schema-expansion / experiment errors
# ---------------------------------------------------------------------------


class ExpansionError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class InsufficientTrainingDataError(ExpansionError):
    """Raised when too few gold-sample judgments are available to train."""

    def __init__(self, needed: int, available: int) -> None:
        self.needed = needed
        self.available = available
        super().__init__(
            f"insufficient training data: need at least {needed} labelled items, "
            f"got {available}"
        )


class ExperimentError(ReproError):
    """Base class for errors raised by :mod:`repro.experiments`."""
