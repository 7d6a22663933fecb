"""Plan executor for the crowd-enabled database.

SELECT statements are executed by lowering the logical
:class:`~repro.db.sql.planner.SelectPlan` into a physical operator tree
(:mod:`repro.db.sql.operators`) and pulling rows from its root — the
executor itself is a thin driver.  :meth:`Executor.open_select` returns a
:class:`SelectStream` that produces rows incrementally; callers that want
the whole result drain it with :meth:`SelectStream.materialize`.  Planning
is the connection's job (it caches one plan per prepared statement).  DDL,
DML and PRAGMA statements go through :meth:`Executor.execute`, directly
against the catalog.

Crowd integration has one entry point: the executing connection's
:class:`~repro.db.connection.SessionContext`.  Its value source makes the
lowering insert a ``CrowdFill`` operator that acquires missing
crowd-sourced values in coalesced batches through the catalog's
acquisition runtime, and its predictor adds the ``PredictFill`` stage of
hybrid acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.crowd.estimation import normalize_entity
from repro.db.acquisition import PROVENANCE_CROWD
from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.sql import ast
from repro.db.sql.expressions import (
    Params,
    RowContext,
    compile_expression,
    compile_predicate,
    evaluate,
)
from repro.db.sql.operators import CrowdEnumerate, Operator, describe_operator_tree
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.types import MISSING, ColumnType, is_missing
from repro.errors import ExecutionError, PlanningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import SessionContext

#: Row order of ``PRAGMA column_provenance``.
_PROVENANCE_ORDER = ("stored", "crowd", "predicted", "missing")

# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    """The outcome of executing one statement.

    ``columns`` and ``rows`` are populated for SELECT statements; DML and
    DDL statements report the number of affected rows in ``rowcount``.
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    rowcount: int = 0
    #: Open-world enumeration statistics (``INSERT ... FROM CROWD`` only):
    #: the JSON-safe dict of
    #: :class:`~repro.crowd.estimation.EnumerationStats` — rows enumerated,
    #: unique species seen, Chao92 estimates and the stopping reason.
    enumeration: dict[str, Any] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        """Return all values of the output column *name*."""
        if name not in self.columns:
            raise ExecutionError(f"result has no column {name!r}")
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def scalar(self) -> Any:
        """Return the single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class SelectStream:
    """Incremental SELECT result: rows pulled lazily from an operator tree.

    The root operator is pulled a batch at a time, on demand: ``fetchone``
    (which a cursor's ``fetchmany`` and iteration call) hands rows out one
    at a time from the current batch and pulls the next batch only when
    it is used up.  So LIMIT queries terminate without running the plan to
    completion, and crowd work happens only for the batches actually
    consumed — a ``CrowdFill`` ends every batch at a crowd flush, so a
    cursor that fetches *k* rows pays ``ceil(k / crowd_batch_size)``
    dispatches.  Every pulled row is retained internally, which keeps
    whole-result accessors (:attr:`rowcount`, :meth:`materialize`) exact
    without re-executing the plan.
    """

    def __init__(self, plan: SelectPlan, root: Operator) -> None:
        self.plan = plan
        self.root = root
        self.columns = [column.name for column in plan.output]
        self._batches = root.batches()
        self._rows: list[tuple[Any, ...]] = []
        self._pos = 0
        self._exhausted = False
        self._closed = False

    # -- pulling ---------------------------------------------------------------

    def _pull(self) -> bool:
        """Pull one batch from the operator tree; False when exhausted/closed."""
        if self._exhausted or self._closed:
            return False
        batch = next(self._batches, None)
        if batch is None:
            self._exhausted = True
            return False
        self._rows += map(itemgetter(0), batch)
        return True

    def drain(self) -> None:
        """Run the plan to completion, buffering all remaining rows."""
        while self._pull():
            pass

    # -- fetch API -------------------------------------------------------------

    def fetchone(self) -> tuple[Any, ...] | None:
        """Return the next row, pulling from the plan only when needed."""
        if self._pos < len(self._rows) or self._pull():
            row = self._rows[self._pos]
            self._pos += 1
            return row
        return None

    def fetchall(self) -> list[tuple[Any, ...]]:
        """Drain the plan and return every not-yet-fetched row."""
        self.drain()
        chunk = self._rows[self._pos :]
        self._pos = len(self._rows)
        return list(chunk)

    # -- whole-result accessors -------------------------------------------------

    @property
    def rowcount(self) -> int:
        """Total number of result rows (drains the remaining stream)."""
        self.drain()
        return len(self._rows)

    def materialize(self) -> QueryResult:
        """Drain and return the complete result (fetch positions unchanged)."""
        self.drain()
        return QueryResult(
            columns=list(self.columns),
            rows=list(self._rows),
            rowcount=len(self._rows),
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Stop pulling and release operator resources mid-stream."""
        if self._closed:
            return
        self._closed = True
        self._batches.close()
        self.root.close()

    # -- introspection ------------------------------------------------------------

    def describe(self) -> str:
        """Render the physical operator tree with its runtime counters."""
        return describe_operator_tree(self.root, include_stats=True)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class Executor:
    """Executes statements against a :class:`~repro.db.catalog.Catalog`.

    ``hash_joins`` toggles the equi-join fast path; the ablation benchmark
    disables it to measure the nested-loop baseline.
    """

    def __init__(self, catalog: Catalog, *, hash_joins: bool = True) -> None:
        self._catalog = catalog
        #: The one planner over this catalog; the connection plans its
        #: prepared statements with it and lowering runs through it.
        self.planner = Planner(catalog)
        self.hash_joins = hash_joins

    # -- entry point ------------------------------------------------------------

    def execute(
        self,
        statement: ast.Statement,
        *,
        params: Params = (),
        session: SessionContext | None = None,
    ) -> QueryResult:
        """Execute a parsed DDL, DML or PRAGMA statement and return its result.

        SELECT and EXPLAIN are not statements of this method: the
        connection plans them and runs :meth:`open_select` or
        :meth:`describe_physical_plan`.  Catalog and storage access runs
        under the catalog lock; ``INSERT ... FROM CROWD`` releases it while
        the crowd enumerates for *session*.

        *params* is the execution's ``?`` tuple, read by the compiled
        expressions (see :func:`~repro.db.sql.expressions.compile_expression`).
        """
        if isinstance(statement, ast.InsertFromCrowdStatement):
            return self._execute_insert_from_crowd(statement, session)
        with self._catalog.lock:
            if isinstance(statement, ast.PragmaStatement):
                return self._execute_pragma(statement)
            if isinstance(statement, ast.CreateTableStatement):
                return self._execute_create_table(statement, params)
            if isinstance(statement, ast.CreateIndexStatement):
                table = self._catalog.table(statement.table)
                table.create_index(statement.column)
                return QueryResult(columns=[], rows=[], rowcount=0)
            if isinstance(statement, ast.DropTableStatement):
                return self._execute_drop_table(statement)
            if isinstance(statement, ast.AlterTableAddColumn):
                return self._execute_alter_add_column(statement, params)
            if isinstance(statement, ast.InsertStatement):
                return self._execute_insert(statement, params)
            if isinstance(statement, ast.UpdateStatement):
                return self._execute_update(statement, params)
            if isinstance(statement, ast.DeleteStatement):
                return self._execute_delete(statement, params)
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    # -- SELECT -----------------------------------------------------------------

    def open_select(
        self,
        plan: SelectPlan,
        *,
        params: Params = (),
        session: SessionContext | None = None,
    ) -> SelectStream:
        """Lower *plan* for *session*, open the operator tree and return a
        live stream.

        Lowering and ``open()`` (where scans snapshot their row sets) run
        under the catalog lock; pulling rows from the returned stream does
        not take the lock, so crowd-backed evaluation never serializes
        other sessions sharing the catalog.
        """
        with self._catalog.lock:
            root = self.planner.lower(
                plan, params=params, session=session, hash_joins=self.hash_joins
            )
            root.open()
        return SelectStream(plan, root)

    def describe_analyzed(self, stream: SelectStream) -> str:
        """EXPLAIN ANALYZE text of a drained *stream*.

        The operator tree with its runtime counters, plus one line of WAL
        counters when the catalog is durable.
        """
        description = stream.describe()
        durability = self._catalog.durability
        if durability is not None:
            stats = durability.stats()
            description += (
                "\nDurability: synchronous={synchronous} "
                "wal_records={wal_records} fsyncs={fsyncs} "
                "checkpoints={checkpoints} replayed={records_replayed}".format(**stats)
            )
        return description

    def describe_physical_plan(
        self,
        plan: SelectPlan,
        *,
        params: Params = (),
        session: SessionContext | None = None,
    ) -> str:
        """Render the physical operator tree for *plan* without executing.

        Must run under the catalog lock when the catalog is shared (the
        lowering reads table schemas).  Placeholders render as their
        *params* values, or as ``?N`` when none are given.
        """
        root = self.planner.lower(plan, params=params, session=session, hash_joins=self.hash_joins)
        return describe_operator_tree(root, include_stats=False)

    # -- DDL -----------------------------------------------------------------------

    def _execute_create_table(
        self, statement: ast.CreateTableStatement, params: Params
    ) -> QueryResult:
        columns = []
        primary_key = None
        for definition in statement.columns:
            column = _column_from_definition(definition, params)
            columns.append(column)
            if definition.primary_key:
                if primary_key is not None:
                    raise PlanningError("multiple PRIMARY KEY columns are not supported")
                primary_key = column.name
        schema = TableSchema(statement.table, columns, primary_key=primary_key)
        self._catalog.create_table(schema, if_not_exists=statement.if_not_exists)
        return QueryResult(columns=[], rows=[], rowcount=0)

    def _execute_drop_table(self, statement: ast.DropTableStatement) -> QueryResult:
        self._catalog.drop_table(statement.table, if_exists=statement.if_exists)
        return QueryResult(columns=[], rows=[], rowcount=0)

    # -- PRAGMA ----------------------------------------------------------------

    def _execute_pragma(self, statement: ast.PragmaStatement) -> QueryResult:
        """Durability and planner knobs and actions.

        Durability-backed: ``synchronous``, ``checkpoint_interval``,
        ``wal_checkpoint``, ``durability_stats``, ``buffer_pool_pages``,
        ``buffer_pool_stats`` — these require a durable database opened
        via ``repro.connect(path=...)``, except reading ``synchronous`` on
        an in-memory database, which reports ``"memory"``.

        Statistics (work on any database): ``analyze [= 'table']``
        rebuilds planner statistics (including histograms) from a full
        scan, ``table_stats = 'table'`` reports the per-column statistics
        the cost model estimates with, and ``column_provenance =
        'table.column'`` counts where a column's cells came from.

        Reads (no value) return one row; writes apply the setting and
        return an empty result.
        """
        name = statement.name
        durability = self._catalog.durability
        if name in ("analyze", "table_stats", "column_provenance"):
            return self._execute_stats_pragma(statement)
        if name == "worker_stats":
            return self._execute_worker_stats_pragma()
        if name == "synchronous" and statement.value is None and durability is None:
            return QueryResult(columns=["synchronous"], rows=[("memory",)], rowcount=0)
        if name in (
            "synchronous",
            "checkpoint_interval",
            "wal_checkpoint",
            "durability_stats",
            "buffer_pool_pages",
            "buffer_pool_stats",
        ):
            if durability is None:
                raise ExecutionError(
                    f"PRAGMA {name} requires a durable database "
                    f"(open one with repro.connect(path=...))"
                )
        else:
            raise ExecutionError(f"unknown PRAGMA {statement.name!r}")
        if name == "wal_checkpoint":
            durability.checkpoint()
            return QueryResult(columns=["wal_checkpoint"], rows=[("ok",)], rowcount=0)
        if name == "durability_stats":
            stats = durability.stats()
            return QueryResult(
                columns=["key", "value"],
                rows=[(key, value) for key, value in stats.items()],
                rowcount=0,
            )
        if name == "buffer_pool_stats":
            pool_stats = durability.buffer_pool_stats()
            return QueryResult(
                columns=["key", "value"],
                rows=[(key, value) for key, value in pool_stats.items()],
                rowcount=0,
            )
        if name == "buffer_pool_pages":
            if statement.value is None:
                capacity = durability.buffer_pool_stats().get("capacity_pages", 0)
                return QueryResult(
                    columns=["buffer_pool_pages"], rows=[(capacity,)], rowcount=0
                )
            try:
                capacity = int(statement.value)
            except (TypeError, ValueError) as exc:
                raise ExecutionError(
                    f"PRAGMA buffer_pool_pages expects an integer, "
                    f"got {statement.value!r}"
                ) from exc
            durability.set_buffer_pool_pages(capacity)
            return QueryResult(columns=[], rows=[], rowcount=0)
        if name == "synchronous":
            if statement.value is None:
                return QueryResult(
                    columns=["synchronous"], rows=[(durability.synchronous,)], rowcount=0
                )
            durability.set_synchronous(str(statement.value))
            return QueryResult(columns=[], rows=[], rowcount=0)
        # checkpoint_interval
        if statement.value is None:
            interval = durability.checkpoint_interval
            return QueryResult(
                columns=["checkpoint_interval"],
                rows=[(0 if interval is None else interval,)],
                rowcount=0,
            )
        try:
            interval = int(statement.value)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"PRAGMA checkpoint_interval expects an integer, "
                f"got {statement.value!r}"
            ) from exc
        durability.set_checkpoint_interval(interval)
        return QueryResult(columns=[], rows=[], rowcount=0)

    def _execute_stats_pragma(self, statement: ast.PragmaStatement) -> QueryResult:
        """``PRAGMA analyze [= 'table']``, ``PRAGMA table_stats = 'table'`` and
        ``PRAGMA column_provenance = 'table.column'``: one ``(provenance,
        cells)`` row per source holding a cell, in :data:`_PROVENANCE_ORDER`.
        """
        if statement.name == "column_provenance":
            table_name, dot, column_name = str(statement.value or "").partition(".")
            if not dot:
                raise ExecutionError(
                    "PRAGMA column_provenance requires 'table.column', "
                    "e.g. PRAGMA column_provenance = 'movies.humor'"
                )
            counts = self._catalog.table(table_name).provenance_counts(column_name)
            rows = [(source, counts[source]) for source in _PROVENANCE_ORDER if source in counts]
            return QueryResult(columns=["provenance", "cells"], rows=rows, rowcount=0)
        if statement.name == "analyze":
            if statement.value is None:
                names = self._catalog.table_names()
            else:
                names = [str(statement.value)]
            for name in names:
                self._catalog.table(name).analyze()
            return QueryResult(
                columns=["analyzed_tables"], rows=[(len(names),)], rowcount=0
            )
        if statement.value is None:
            raise ExecutionError(
                "PRAGMA table_stats requires a table name, "
                "e.g. PRAGMA table_stats = 'items'"
            )
        storage = self._catalog.table(str(statement.value))
        summaries = storage.stats.column_summaries()
        return QueryResult(
            columns=["column", "non_null", "ndv", "min", "max", "histogram_buckets"],
            rows=[
                (
                    column,
                    summary["non_null"],
                    summary["ndv"],
                    summary["min"],
                    summary["max"],
                    summary["histogram_buckets"],
                )
                for column, summary in sorted(summaries.items())
            ],
            rowcount=0,
        )

    def _execute_worker_stats_pragma(self) -> QueryResult:
        """``PRAGMA worker_stats``: per-worker accuracy evidence and estimate.

        Reports the catalog's recorded ``(correct, incorrect)`` observation
        totals together with the Beta-posterior accuracy estimate the
        accuracy-weighted aggregator weighs votes with — the same
        :func:`~repro.crowd.worker_quality.estimate_accuracy` function, so
        the SQL surface can never drift from the aggregation math.  Works
        on any database; an empty result simply means no quality-tracked
        dispatch has run (and, when durable, none was recovered).
        """
        from repro.crowd.worker_quality import estimate_accuracy  # lazy: crowd imports db

        return QueryResult(
            columns=["worker_id", "correct", "incorrect", "accuracy"],
            rows=[
                (worker_id, correct, incorrect, estimate_accuracy(correct, incorrect))
                for worker_id, (correct, incorrect) in sorted(
                    self._catalog.worker_stats().items()
                )
            ],
            rowcount=0,
        )

    def _execute_alter_add_column(
        self, statement: ast.AlterTableAddColumn, params: Params
    ) -> QueryResult:
        table = self._catalog.table(statement.table)
        column = _column_from_definition(statement.column, params)
        fill = column.default if column.default is not None else (
            MISSING if column.kind is AttributeKind.PERCEPTUAL else None
        )
        table.add_column(column, fill_value=fill)
        return QueryResult(columns=[], rows=[], rowcount=len(table))

    # -- DML -----------------------------------------------------------------------

    def _execute_insert(self, statement: ast.InsertStatement, params: Params) -> QueryResult:
        table = self._catalog.table(statement.table)
        schema = table.schema
        columns = list(statement.columns) or schema.column_names
        context = RowContext()
        bound = len(params)
        inserted = 0
        for value_exprs in statement.rows:
            if len(value_exprs) != len(columns):
                raise ExecutionError(
                    f"INSERT expects {len(columns)} values, got {len(value_exprs)}"
                )
            values = {}
            for column, expr in zip(columns, value_exprs):
                # Bound ``?`` slots and literals are read directly; any other
                # expression (and an unbound slot, for its error) compiles.
                kind = type(expr)
                if kind is ast.Parameter and expr.index < bound:
                    values[column] = params[expr.index]
                elif kind is ast.Literal:
                    values[column] = expr.value
                else:
                    values[column] = evaluate(expr, context, params)
            table.insert(values)
            inserted += 1
        return QueryResult(columns=[], rows=[], rowcount=inserted)

    def _execute_insert_from_crowd(
        self, statement: ast.InsertFromCrowdStatement, session: SessionContext | None
    ) -> QueryResult:
        """Open-world insertion: enumerate crowd answers into new rows.

        Validation and the existing-row dedup snapshot run under the
        catalog lock; the enumeration itself (where the crowd spends real
        time) runs outside it; the write-back re-takes the lock and
        re-checks dedup, so answers that raced a concurrent insert are
        dropped instead of duplicated.  Each inserted row is written as an
        insert of the auto-assigned key plus one batched
        :meth:`~repro.db.storage.TableStorage.fill_values` of the target
        column with ``crowd`` provenance — the same WAL shape as
        closed-world fills, so enumerations replay after a crash and
        warm-start the answer cache.
        """
        if len(statement.columns) != 1:
            raise ExecutionError(
                "INSERT ... FROM CROWD requires exactly one target column, "
                f"got {len(statement.columns)}"
            )
        with self._catalog.lock:
            table = self._catalog.table(statement.table)
            schema = table.schema
            column = schema.column(statement.columns[0])
            pk = schema.primary_key
            if pk is not None and pk == column.name:
                raise ExecutionError(
                    "INSERT ... FROM CROWD cannot target the primary key "
                    f"{pk!r} of table {schema.name!r}"
                )
            existing = {
                normalize_entity(row[column.name])
                for _rowid, row in table.scan()
                if not is_missing(row.get(column.name)) and row.get(column.name) is not None
            }

        operator = CrowdEnumerate(
            self._catalog, statement.crowd, session, existing_keys=frozenset(existing)
        )
        operator.open()
        try:
            enumerated = [row["value"] for _ordinal, row in operator]
        finally:
            operator.close()

        inserted = 0
        with self._catalog.lock:
            table = self._catalog.table(statement.table)
            current: set[str] = set()
            max_pk = 0
            for _rowid, row in table.scan():
                value = row.get(column.name)
                if value is not None and not is_missing(value):
                    current.add(normalize_entity(value))
                if pk is not None:
                    pk_value = row.get(pk)
                    if isinstance(pk_value, (int, float)) and not isinstance(pk_value, bool):
                        max_pk = max(max_pk, int(pk_value))
            fills: dict[int, Any] = {}
            for value in enumerated:
                key = normalize_entity(value)
                if key in current:
                    continue  # a concurrent insert won the race
                current.add(key)
                values: dict[str, Any] = {column.name: MISSING}
                if pk is not None:
                    max_pk += 1
                    values[pk] = max_pk
                fills[table.insert(values)] = value
                inserted += 1
            if fills:
                table.fill_values(column.name, fills, provenance=PROVENANCE_CROWD)

        return QueryResult(
            columns=[],
            rows=[],
            rowcount=inserted,
            enumeration=operator.stats_snapshot().as_dict(),
        )

    def _execute_update(self, statement: ast.UpdateStatement, params: Params) -> QueryResult:
        table = self._catalog.table(statement.table)
        alias = table.schema.name
        matches = compile_predicate(statement.where, params)
        assignments = [
            (column, compile_expression(expr, params)) for column, expr in statement.assignments
        ]
        updated = 0
        for rowid, row in list(table.scan()):
            # The context reads the stored row itself, uncopied: every SET
            # value is evaluated before update() writes the row.
            context = RowContext.for_table_row(alias, row)
            if matches(context):
                changes = {column: value_of(context) for column, value_of in assignments}
                table.update(rowid, changes)
                updated += 1
        return QueryResult(columns=[], rows=[], rowcount=updated)

    def _execute_delete(self, statement: ast.DeleteStatement, params: Params) -> QueryResult:
        table = self._catalog.table(statement.table)
        alias = table.schema.name
        matches = compile_predicate(statement.where, params)
        to_delete = [
            rowid
            for rowid, row in table.scan()
            if matches(RowContext.for_table_row(alias, row))
        ]
        for rowid in to_delete:
            table.delete(rowid)
        return QueryResult(columns=[], rows=[], rowcount=len(to_delete))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _column_from_definition(definition: ast.ColumnDefinition, params: Params) -> Column:
    column_type = ColumnType.from_name(definition.type_name)
    default: Any = None
    if definition.default is not None:
        default = evaluate(definition.default, RowContext(), params)
    kind = AttributeKind.PERCEPTUAL if definition.perceptual else AttributeKind.FACTUAL
    if definition.perceptual and definition.default is None:
        default = MISSING
    return Column(
        name=definition.name,
        type=column_type,
        kind=kind,
        nullable=not definition.not_null,
        default=default,
    )
