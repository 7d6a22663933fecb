"""DB-API-2.0-style connection layer for the crowd-enabled database.

This module is the public entry point of :mod:`repro.db`:

>>> import repro
>>> conn = repro.connect()
>>> cur = conn.cursor()
>>> _ = cur.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
>>> _ = cur.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (1, "Rocky"))
>>> cur.execute("SELECT name FROM movies WHERE movie_id = ?", (1,)).fetchone()
('Rocky',)

It offers three capabilities the paper's query-driven workload needs at
scale:

* **parameter binding** — qmark-style ``?`` placeholders compiled into
  reads of the execution's parameter tuple, so values never get
  interpolated into SQL strings and a cached plan is never rewritten;
* a **prepared-statement LRU cache** per connection, keyed on SQL text:
  hot repeated queries skip tokenize/parse/plan (plans are invalidated via
  the catalog's schema version when DDL changes the schema); and
* a **session-scoped crowd context** (:class:`SessionContext`) carrying the
  batch value source and predictor, the schema-expansion handler and the
  session's :class:`~repro.db.acquisition.AcquisitionPolicy` (budget,
  batching, prediction and enumeration knobs).  Two connections
  sharing one :class:`~repro.db.catalog.Catalog` can run different crowd
  policies concurrently; the catalog's lock guards shared reads and writes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from dataclasses import fields as dataclass_fields

from repro.db.acquisition import AcquisitionPolicy, AttributePredictor, PredictSpec
from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.sql import ast
from repro.db.sql.executor import Executor, QueryResult, SelectStream
from repro.db.sql.operators import CrowdFillSpec, Operator
from repro.db.sql.parameters import check_arity, count_parameters
from repro.db.sql.parser import parse_script, parse_statement
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.storage import TableStorage, ValueProvenance
from repro.db.types import MISSING, ColumnType
from repro.errors import DuplicateColumnError, ExecutionError, UnknownColumnError

#: Signature of the query-driven schema-expansion hook: ``(table, column)``
#: returns True if the column was added (the statement is retried once).
#: The handler only adds the column; the session's value source, predictor
#: and policy fill it when the statement is retried.
ExpansionHandler = Callable[[str, str], bool]

#: DB-API module attributes.
apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections' catalog
paramstyle = "qmark"


def _materialize(outcome: QueryResult | SelectStream) -> QueryResult:
    """The whole result of an execution, draining a SELECT's stream."""
    return outcome.materialize() if isinstance(outcome, SelectStream) else outcome


def _normalize_params(params: Sequence[Any]) -> tuple[Any, ...]:
    """Validate and normalize a caller-supplied parameter sequence."""
    if isinstance(params, (str, bytes)) or not isinstance(params, Sequence):
        raise TypeError("parameters must be a sequence, e.g. a tuple")
    return tuple(params)


#: Distinguishes "knob not passed" from an explicit None (a valid value).
_UNSET: Any = object()

#: Knob names `PRAGMA acquisition_<knob>` exposes — exactly the fields of
#: :class:`~repro.db.acquisition.AcquisitionPolicy`.
_POLICY_FIELDS: tuple[str, ...] = tuple(f.name for f in dataclass_fields(AcquisitionPolicy))
_POLICY_INT_FIELDS = frozenset(
    {
        "min_sample",
        "max_sample",
        "crowd_batch_size",
        "enum_dry_batches",
        "max_enum_batches",
        "min_assignments",
        "max_assignments",
    }
)
_POLICY_BOOL_FIELDS = frozenset({"crowd_write_back"})
#: Fields whose value may be None; PRAGMA writes accept the word ``none``.
_POLICY_OPTIONAL_FIELDS = frozenset({"max_sample", "max_cost", "completeness_target"})


def _coerce_policy_pragma_value(knob: str, raw: Any) -> Any:
    """Parse a PRAGMA scalar into the typed value of policy field *knob*."""
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if knob in _POLICY_OPTIONAL_FIELDS and lowered in ("none", "null", ""):
            return None
        if knob in _POLICY_BOOL_FIELDS:
            if lowered in ("true", "on", "yes", "1"):
                return True
            if lowered in ("false", "off", "no", "0"):
                return False
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects a boolean, got {raw!r}"
            )
        try:
            raw = float(lowered)
        except ValueError as exc:
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects a number, got {raw!r}"
            ) from exc
    if knob in _POLICY_BOOL_FIELDS:
        return bool(raw)
    if knob in _POLICY_INT_FIELDS:
        number = float(raw)
        if number != int(number):
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects an integer, got {raw!r}"
            )
        return int(number)
    return float(raw)


# ---------------------------------------------------------------------------
# Session context
# ---------------------------------------------------------------------------


class SessionContext:
    """Per-connection crowd-sourcing policy state.

    Each connection owns one session, so two connections to the same
    shared catalog can acquire MISSING values and expand schemas with
    entirely different policies without clobbering each other.

    Parameters
    ----------
    expansion_handler:
        Hook consulted when a SELECT references an unknown column.
    value_source:
        Optional batch :class:`~repro.db.acquisition.ValueSource`.
        When set, queries referencing crowd-sourced (perceptual) columns
        get a ``CrowdFill`` operator in their physical plan that acquires
        MISSING values through the acquisition runtime in coalesced batches
        of ``policy.crowd_batch_size`` rows — one platform call per
        attribute per batch.
    predictor:
        Optional :class:`~repro.db.acquisition.AttributePredictor` (e.g. a
        :class:`~repro.core.prediction.PerceptualPredictor`).  When set
        together with a ``value_source``, queries touching crowd-sourced
        columns lower to the *hybrid* two-stage plan: ``CrowdFill``
        acquires only a planner-chosen sample and ``PredictFill`` trains
        the predictor on the crowd answers and fills the remaining rows
        with predictions (provenance- and confidence-tagged in storage).
    policy:
        The :class:`~repro.db.acquisition.AcquisitionPolicy` carrying every
        acquisition knob: prediction sampling, the session budget
        (``max_cost``), crowd batching, worker quality and the open-world
        enumeration targets.  Read and replace it through :attr:`policy`.

    Every session dispatches through its catalog's one
    :class:`~repro.crowd.runtime.AcquisitionRuntime`
    (:meth:`~repro.db.catalog.Catalog.acquisition_runtime`): crowd answers
    are shared across sessions, budgets are not.
    """

    def __init__(
        self,
        *,
        expansion_handler: ExpansionHandler | None = None,
        value_source: Any = None,
        predictor: AttributePredictor | None = None,
        policy: AcquisitionPolicy | None = None,
    ) -> None:
        self.policy = policy
        self.expansion_handler = expansion_handler
        self.cost_spent = 0.0
        self.value_source = value_source
        self.predictor = predictor

    def crowd_spec(self, runtime: Any) -> CrowdFillSpec | None:
        """The batch crowd-fill configuration, or None when not set up.

        The session itself rides along as the budget hook: batch crowd
        spending is charged to ``cost_spent`` (for cost-aware sources) and
        stops once ``budget_exhausted``.  *runtime* is the acquisition
        runtime the operator dispatches through
        (:meth:`Connection.acquisition_runtime`).
        """
        if self.value_source is None:
            return None
        return CrowdFillSpec(
            source=self.value_source,
            runtime=runtime,
            batch_size=self._policy.crowd_batch_size,
            write_back=self._policy.crowd_write_back,
            session=self,
        )

    def predict_spec(self, runtime: Any) -> PredictSpec | None:
        """The prediction-stage configuration, or None when no predictor."""
        if self.predictor is None:
            return None
        return PredictSpec(
            predictor=self.predictor,
            runtime=runtime,
            policy=self._policy,
            write_back=self._policy.crowd_write_back,
            session=self,
        )

    @property
    def remaining_budget(self) -> float | None:
        """Money left before the budget is exhausted (None = unlimited)."""
        max_cost = self._policy.max_cost
        if max_cost is None:
            return None
        return max(0.0, max_cost - self.cost_spent)

    @property
    def budget_exhausted(self) -> bool:
        """True once the session has spent its entire budget."""
        max_cost = self._policy.max_cost
        return max_cost is not None and self.cost_spent >= max_cost

    def record_cost(self, cost: float) -> None:
        """Account *cost* dollars of crowd spending against this session."""
        self.cost_spent += float(cost)

    @property
    def policy(self) -> AcquisitionPolicy:
        """The session's :class:`~repro.db.acquisition.AcquisitionPolicy`."""
        return self._policy

    @policy.setter
    def policy(self, value: AcquisitionPolicy | None) -> None:
        self._policy = value if value is not None else AcquisitionPolicy()

    def __repr__(self) -> str:
        max_cost = self._policy.max_cost
        budget = "unlimited" if max_cost is None else f"${max_cost:.2f}"
        return (
            f"SessionContext(source={self.value_source is not None}, "
            f"expansion={self.expansion_handler is not None}, budget={budget})"
        )


# ---------------------------------------------------------------------------
# Prepared statements and their cache
# ---------------------------------------------------------------------------


class PreparedStatement:
    """A parsed statement template plus its lazily cached SELECT plan."""

    __slots__ = ("sql", "statement", "parameter_count", "_plan", "_plan_version")

    def __init__(self, sql: str, statement: ast.Statement) -> None:
        self.sql = sql
        self.statement = statement
        self.parameter_count = count_parameters(statement)
        self._plan: SelectPlan | None = None
        self._plan_version: int = -1

    @property
    def is_select(self) -> bool:
        """True for plain SELECT statements (the plan-cached path)."""
        return isinstance(self.statement, ast.SelectStatement)

    def plan_for(self, planner: Planner, catalog_version: int) -> SelectPlan:
        """Return the plan of this SELECT (or of an EXPLAIN's SELECT),
        re-planning after DDL changes."""
        statement = self.statement
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        assert isinstance(statement, ast.SelectStatement)
        if self._plan is None or self._plan_version != catalog_version:
            self._plan = planner.plan_select(statement)
            self._plan_version = catalog_version
        return self._plan


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`StatementCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StatementCache:
    """LRU cache of :class:`PreparedStatement` objects keyed on SQL text.

    A ``maxsize`` of 0 disables caching entirely (every lookup misses),
    which is how the ablation benchmark measures the cache's effect.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 0:
            raise ValueError("statement cache size must be >= 0")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, sql: str) -> PreparedStatement | None:
        """Return the cached statement for *sql*, updating LRU order."""
        entry = self._entries.get(sql)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(sql)
        self._hits += 1
        return entry

    def put(self, sql: str, prepared: PreparedStatement) -> None:
        """Insert *prepared* (evicting the least recently used on overflow)."""
        if self.maxsize == 0:
            return
        self._entries[sql] = prepared
        self._entries.move_to_end(sql)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached statement (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries


# ---------------------------------------------------------------------------
# Cursor
# ---------------------------------------------------------------------------


class Cursor:
    """DB-API-2.0-style cursor bound to one :class:`Connection`.

    SELECT statements *stream*: ``execute`` plans the query and opens the
    physical operator tree, but rows are pulled from it only as
    ``fetchone`` / ``fetchmany`` / iteration ask for them.  A ``LIMIT k``
    query therefore stops scanning after *k* rows, and closing the cursor
    mid-stream abandons the rest of the plan without running it.
    Whole-result accessors (:attr:`rowcount`, :attr:`result`, ``fetchall``)
    drain the remaining stream on demand.
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection: Connection | None = connection
        self.arraysize = 1
        self._result: QueryResult | None = None
        self._stream: SelectStream | None = None
        self._position = 0

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Execute one statement with optional qmark parameters."""
        connection = self._require_connection()
        # Drop the previous result first so a failed execute can never be
        # followed by fetches of stale rows.
        self._discard()
        outcome = connection._run(sql, params)
        if isinstance(outcome, SelectStream):
            self._stream = outcome
        else:
            self._result = outcome
        return self

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        """Execute a DML statement once per parameter tuple.

        The statement is prepared once; only binding and execution repeat.
        Returning statements (SELECT/EXPLAIN) are rejected, mirroring the
        standard DB-API behaviour, and so is ``INSERT ... FROM CROWD``.
        """
        connection = self._require_connection()
        self._discard()
        total = connection._run_many(sql, seq_of_params)
        self._result = QueryResult(columns=[], rows=[], rowcount=total)
        return self

    # -- result access -----------------------------------------------------------

    @property
    def result(self) -> QueryResult | None:
        """The full :class:`QueryResult` of the last ``execute`` call.

        For streaming SELECTs this drains the remaining stream (fetch
        positions are preserved, so interleaving with ``fetchone`` is safe).
        """
        if self._stream is not None:
            return self._stream.materialize()
        return self._result

    @property
    def plan(self) -> Operator | None:
        """Root of the live physical operator tree of a streaming SELECT.

        Exposes per-operator runtime counters (``rows_out``, scan and
        crowd-batch statistics) for tests, benchmarks and diagnostics.
        """
        if self._stream is None:
            return None
        return self._stream.root

    def explain(self) -> str | None:
        """Physical plan of the last SELECT with current runtime counters."""
        if self._stream is None:
            return None
        return self._stream.describe()

    @property
    def description(self) -> list[tuple[Any, ...]] | None:
        """DB-API column descriptions (7-tuples) of the last result."""
        columns = (
            self._stream.columns
            if self._stream is not None
            else (self._result.columns if self._result is not None else None)
        )
        if not columns:
            return None
        return [(name, None, None, None, None, None, None) for name in columns]

    @property
    def rowcount(self) -> int:
        """Rows returned (SELECT) or affected (DML) by the last statement."""
        if self._stream is not None:
            return self._stream.rowcount
        if self._result is None:
            return -1
        return self._result.rowcount

    def fetchone(self) -> tuple[Any, ...] | None:
        """Return the next result row, or None when exhausted."""
        if self._stream is not None:
            return self._stream.fetchone()
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        """Return up to *size* rows (default: ``cursor.arraysize``)."""
        if size is None:
            size = self.arraysize
        if self._stream is not None:
            return self._stream.fetchmany(size)
        rows = self._rows()
        chunk = rows[self._position : self._position + size]
        self._position += len(chunk)
        return list(chunk)

    def fetchall(self) -> list[tuple[Any, ...]]:
        """Return all remaining result rows."""
        if self._stream is not None:
            return self._stream.fetchall()
        rows = self._rows()
        chunk = rows[self._position :]
        self._position = len(rows)
        return list(chunk)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self

    def __next__(self) -> tuple[Any, ...]:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach the cursor, abandoning any partially fetched stream."""
        self._discard()
        self._connection = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- helpers ----------------------------------------------------------------

    def _discard(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self._result = None
        self._position = 0

    def _require_connection(self) -> "Connection":
        if self._connection is None:
            raise ExecutionError("cursor is closed")
        return self._connection

    def _rows(self) -> list[tuple[Any, ...]]:
        if self._result is None:
            raise ExecutionError("no statement has been executed on this cursor")
        return self._result.rows


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------


class Connection:
    """A session against a (possibly shared) crowd-database catalog.

    Parameters
    ----------
    catalog:
        The catalog to operate on.  Pass an existing instance to share
        tables between connections; by default a fresh private catalog is
        created.
    session:
        The crowd context; a blank :class:`SessionContext` by default.
    statement_cache_size:
        Capacity of the prepared-statement LRU cache (0 disables caching).
    statement_log_size:
        Number of most recent SQL strings retained in
        :attr:`statement_log` (None keeps an unbounded log).
    hash_joins:
        Enable the hash-join fast path for qualified equi-joins (default
        True; the ablation benchmark disables it to measure the
        nested-loop baseline).
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        *,
        session: SessionContext | None = None,
        statement_cache_size: int = 128,
        statement_log_size: int | None = 1000,
        hash_joins: bool = True,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.session = session if session is not None else SessionContext()
        self._executor = Executor(self.catalog, hash_joins=hash_joins)
        self._cache = StatementCache(statement_cache_size)
        self._lock = threading.RLock()
        self._statement_log: deque[str] = deque(maxlen=statement_log_size)
        #: True for the connection :func:`connect` opened a database
        #: directory with — closing it closes the durability manager too.
        self._owns_durability = False
        self._closed = False

    # -- DB-API surface -----------------------------------------------------------

    def cursor(self) -> Cursor:
        """Return a new :class:`Cursor` bound to this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Cursor:
        """Shortcut: create a cursor and execute *sql* on it."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> Cursor:
        """Shortcut: create a cursor and run ``executemany`` on it."""
        return self.cursor().executemany(sql, seq_of_params)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a ``;``-separated script; returns one result per statement."""
        self._check_open()
        results = []
        with self._lock:
            for source, statement in parse_script(sql):
                self._statement_log.append(source)
                prepared = PreparedStatement(source, statement)
                check_arity(prepared.parameter_count, ())
                results.append(_materialize(self._execute(prepared, ())))
        return results

    def commit(self) -> None:
        """Force durability of acknowledged statements.

        The engine auto-commits every statement logically; on a durable
        database (``connect(path=...)``) this additionally flushes the
        write-ahead log, so everything executed so far survives a crash
        even under group-commit (``synchronous=normal``) batching.  On an
        in-memory database it is a no-op.
        """
        self._check_open()
        if self.catalog.durability is not None:
            self.catalog.durability.flush()

    def rollback(self) -> None:
        """Unsupported: the in-memory engine has no transactions."""
        raise ExecutionError("the crowd database does not support transactions")

    def checkpoint(self) -> None:
        """Snapshot the catalog to disk and truncate the write-ahead log.

        Shortcut for ``PRAGMA wal_checkpoint``; requires a durable
        database opened via :func:`connect` with a ``path``.
        """
        self._check_open()
        if self.catalog.durability is None:
            raise ExecutionError(
                "checkpoint() requires a durable database "
                "(open one with repro.connect(path=...))"
            )
        self.catalog.durability.checkpoint()

    @property
    def durability(self) -> Any:
        """The catalog's :class:`~repro.db.durability.DurabilityManager` (or None)."""
        return self.catalog.durability

    def close(self) -> None:
        """Close the connection; subsequent statement execution fails.

        The connection that opened a database directory also flushes and
        closes its durability manager (releasing the directory lock);
        connections merely *sharing* a durable catalog leave it open.
        """
        if self._closed:
            return
        self._closed = True
        self._cache.clear()
        if self._owns_durability and self.catalog.durability is not None:
            self.catalog.durability.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- session configuration ----------------------------------------------------

    def set_expansion_handler(self, handler: ExpansionHandler | None) -> None:
        """Install the session's handler for unknown-column expansion."""
        self.session.expansion_handler = handler

    @property
    def policy(self) -> AcquisitionPolicy:
        """The session's unified :class:`~repro.db.acquisition.AcquisitionPolicy`."""
        return self.session.policy

    def set_policy(self, policy: AcquisitionPolicy | None) -> None:
        """Install the session's unified acquisition policy (None = defaults).

        This is the single configuration path for every acquisition knob:
        prediction sampling, the session budget, crowd batching, worker
        quality and the open-world enumeration targets.
        Individual knobs are also readable/settable as ``PRAGMA
        acquisition_<knob>`` and listable via ``PRAGMA acquisition_policy``.
        """
        if policy is not None and not isinstance(policy, AcquisitionPolicy):
            raise TypeError(
                f"set_policy expects an AcquisitionPolicy, got {type(policy).__name__}"
            )
        self.session.policy = policy

    def set_value_source(self, source: Any) -> None:
        """Install a batch :class:`~repro.db.acquisition.ValueSource` for
        coalesced crowd acquisition.

        Queries referencing crowd-sourced (perceptual) columns then carry a
        ``CrowdFill(batch_size=…)`` operator in their physical plan that
        dispatches MISSING values to *source* one batch per attribute; the
        batch size is ``AcquisitionPolicy.crowd_batch_size``.
        """
        self.session.value_source = source

    def set_predictor(self, predictor: AttributePredictor | None) -> None:
        """Install (or remove) the session's hybrid-acquisition predictor.

        Together with a batch value source this turns crowd acquisition
        hybrid: ``CrowdFill`` asks the crowd for a planner-chosen sample,
        ``PredictFill`` predicts the rest from perceptual-space features.
        The sampling knobs live on the session's
        :class:`~repro.db.acquisition.AcquisitionPolicy`.
        """
        self.session.predictor = predictor

    def acquisition_runtime(self) -> Any:
        """The catalog's one acquisition runtime, which crowd acquisition
        dispatches through (see :meth:`Catalog.acquisition_runtime`)."""
        return self.catalog.acquisition_runtime()

    # -- statement cache ----------------------------------------------------------

    @property
    def statement_cache(self) -> StatementCache:
        """The connection's prepared-statement cache."""
        return self._cache

    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the prepared-statement cache."""
        return self._cache.stats()

    # -- execution core ----------------------------------------------------------

    def _crowd_spec(self) -> CrowdFillSpec | None:
        """Session crowd-fill spec wired to the acquisition runtime."""
        if self.session.value_source is None:
            return None
        return self.session.crowd_spec(runtime=self.acquisition_runtime())

    def _predict_spec(self) -> PredictSpec | None:
        """Session prediction spec wired to the acquisition runtime."""
        if self.session.predictor is None:
            return None
        return self.session.predict_spec(runtime=self.acquisition_runtime())

    def run_statement(self, sql: str, params: Sequence[Any] = ()) -> QueryResult:
        """Prepare (or reuse), bind and execute *sql*; SELECT rows are
        materialized into the returned :class:`QueryResult`."""
        return _materialize(self._run(sql, params))

    def _run(self, sql: str, params: Sequence[Any]) -> QueryResult | SelectStream:
        """Prepare (or reuse) *sql*, bind *params* and :meth:`_execute` it."""
        with self._lock:
            prepared, params = self._bind(sql, params)
            return self._execute(prepared, params)

    def _bind(self, sql: str, params: Sequence[Any]) -> tuple[PreparedStatement, tuple[Any, ...]]:
        """Log *sql*, prepare it (one cache lookup) and check *params*.

        Callers hold ``self._lock``.
        """
        self._check_open()
        params = _normalize_params(params)
        self._statement_log.append(sql)
        prepared = self._prepare(sql)
        check_arity(prepared.parameter_count, params)
        return prepared, params

    def _run_many(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> int:
        """Prepare *sql* once, then execute it per parameter tuple.

        Returns the total affected row count.  Statements that return rows
        are rejected (DB-API behaviour), and so is ``INSERT ... FROM
        CROWD``, whose crowd enumeration must not run under the catalog
        lock the whole batch holds.
        """
        self._check_open()
        total = 0
        with self._lock:
            self._statement_log.append(sql)
            prepared = self._prepare(sql)
            statement = prepared.statement
            if isinstance(statement, (ast.SelectStatement, ast.ExplainStatement)):
                raise ExecutionError("executemany() cannot execute statements that return rows")
            if isinstance(statement, ast.InsertFromCrowdStatement):
                raise ExecutionError(
                    "executemany() cannot execute INSERT ... FROM CROWD; use execute()"
                )
            # Drain and validate the caller's iterable outside the catalog
            # lock (a slow generator must not stall other connections).
            batches = []
            for params in seq_of_params:
                params = _normalize_params(params)
                check_arity(prepared.parameter_count, params)
                batches.append(params)
            with self.catalog.lock:
                for params in batches:
                    total += self._execute(prepared, params).rowcount
        return total

    def _execute(
        self, prepared: PreparedStatement, params: tuple[Any, ...]
    ) -> QueryResult | SelectStream:
        """Execute one bound statement: the path every entry point takes.

        A SELECT comes back as a live stream (planned, bound and with its
        scans open, so schema expansion triggers here).  A SELECT naming
        an unknown column gives the session's expansion handler one chance
        to add it, then runs again.  The handler runs with no catalog lock
        held, taking it itself for the schema change; the retried statement
        fills the new column through ``CrowdFill``/``PredictFill``.  Two
        sessions sharing a catalog can both miss the same column: the loser's
        :class:`DuplicateColumnError` means the column now exists, so the
        statement is retried all the same.
        """
        try:
            return self._execute_once(prepared, params)
        except UnknownColumnError as error:
            handler = self.session.expansion_handler
            if handler is None or not prepared.is_select or error.table is None:
                raise
            try:
                added = handler(error.table, error.column)
            except DuplicateColumnError:
                added = True
            if not added:
                raise
        return self._execute_once(prepared, params)

    def _execute_once(
        self, prepared: PreparedStatement, params: tuple[Any, ...]
    ) -> QueryResult | SelectStream:
        statement = prepared.statement
        if isinstance(statement, ast.SelectStatement):
            with self.catalog.lock:
                plan = prepared.plan_for(self._executor.planner, self.catalog.version)
            return self._executor.open_select(
                plan,
                params=params,
                crowd=self._crowd_spec(),
                predict=self._predict_spec(),
                lock=self.catalog.lock,
            )
        if isinstance(statement, ast.ExplainStatement):
            description = self._describe(prepared, params)
            return QueryResult(
                columns=["plan"], rows=[(line,) for line in description.splitlines()]
            )
        pragma_result = self._maybe_acquisition_pragma(statement)
        if pragma_result is not None:
            return pragma_result
        crowd = self._crowd_spec() if isinstance(statement, ast.InsertFromCrowdStatement) else None
        return self._executor.execute(statement, params=params, crowd=crowd, lock=self.catalog.lock)

    def _describe(self, prepared: PreparedStatement, params: tuple[Any, ...]) -> str:
        """Physical plan of a prepared SELECT or EXPLAIN, without running it."""
        with self.catalog.lock:
            plan = prepared.plan_for(self._executor.planner, self.catalog.version)
            return self._executor.describe_physical_plan(
                plan,
                params=params,
                crowd=self._crowd_spec(),
                predict=self._predict_spec(),
            )

    def _maybe_acquisition_pragma(self, statement: ast.Statement) -> QueryResult | None:
        """Handle ``PRAGMA acquisition_*`` at the connection layer.

        Acquisition knobs are per-session state, unlike the durability and
        engine pragmas the executor owns, so they are intercepted here
        before the statement reaches the (catalog-scoped) executor.
        ``PRAGMA acquisition_policy`` lists every knob; ``PRAGMA
        acquisition_<knob>`` reads one, ``PRAGMA acquisition_<knob> =
        value`` writes it (``none`` clears an optional knob).
        """
        if not isinstance(statement, ast.PragmaStatement):
            return None
        name = statement.name
        if name == "acquisition_policy":
            if statement.value is not None:
                raise ExecutionError(
                    "PRAGMA acquisition_policy is read-only; write individual "
                    "knobs via PRAGMA acquisition_<knob> or Connection.set_policy()"
                )
            policy = self.session.policy
            rows = [(knob, getattr(policy, knob)) for knob in _POLICY_FIELDS]
            return QueryResult(columns=["knob", "value"], rows=rows, rowcount=0)
        if not name.startswith("acquisition_"):
            return None
        knob = name[len("acquisition_") :]
        if knob not in _POLICY_FIELDS:
            raise ExecutionError(f"unknown PRAGMA: {name}")
        if statement.value is None:
            value = getattr(self.session.policy, knob)
            return QueryResult(columns=[name], rows=[(value,)], rowcount=0)
        value = _coerce_policy_pragma_value(knob, statement.value)
        # with_overrides revalidates through AcquisitionPolicy.__post_init__,
        # so an out-of-range PRAGMA write fails without touching the session.
        self.session.policy = self.session.policy.with_overrides(**{knob: value})
        return QueryResult(columns=[], rows=[], rowcount=0)

    def _prepare(self, sql: str) -> PreparedStatement:
        prepared = self._cache.get(sql)
        if prepared is None:
            prepared = PreparedStatement(sql, parse_statement(sql))
            self._cache.put(sql, prepared)
        return prepared

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")
        durability = self.catalog.durability
        if durability is not None and durability.closed:
            # The owning connection closed the database directory; a
            # sharer must fail *before* executing, or its mutations would
            # apply in memory without ever reaching the (closed) WAL.
            raise ExecutionError(
                "the database directory backing this catalog is closed"
            )

    # -- introspection and plan inspection ---------------------------------------

    def explain(self, sql: str, params: Sequence[Any] = ()) -> str:
        """Return the *physical* operator tree of a SELECT without running it.

        The rendering shows access paths (``SeqScan`` / ``IndexLookup``),
        join strategies (``HashJoin`` / ``NestedLoopJoin``), and a
        ``CrowdFill(batch_size=…)`` operator whenever the query references
        a crowd-sourced attribute and the session has a batch value source.
        Placeholders render as the values in *params*; without any they
        render as ``?N``.  The access path is chosen from the values, as
        it is when the statement runs.
        """
        self._check_open()
        with self._lock:
            prepared = self._prepare(sql)
            if not prepared.is_select:
                raise ExecutionError("EXPLAIN is only supported for SELECT statements")
            if params:
                params = _normalize_params(params)
                check_arity(prepared.parameter_count, params)
            return self._describe(prepared, tuple(params))

    def explain_analyze(self, sql: str, params: Sequence[Any] = ()) -> str:
        """Execute a SELECT and return its operator tree with row counts.

        Each line carries the operator's runtime counters — rows produced,
        inclusive wall time, hash-build sizes and crowd-batch statistics
        (batches dispatched, values filled, answer-cache hits, coalesced
        requests) — the EXPLAIN ANALYZE of the engine.  See
        ``docs/operators.md`` for a worked transcript.  Any other statement
        is rejected before it runs.
        """
        with self._lock:
            prepared, params = self._bind(sql, params)
            if not prepared.is_select:
                raise ExecutionError("explain_analyze is only supported for SELECT statements")
            stream = self._execute(prepared, params)
            assert isinstance(stream, SelectStream)
            stream.drain()
            return self._executor.describe_analyzed(stream)

    @property
    def statement_log(self) -> Sequence[str]:
        """The most recent SQL strings executed on this connection."""
        return tuple(self._statement_log)

    def table_names(self) -> list[str]:
        """Names of all tables in the catalog."""
        with self.catalog.lock:
            return self.catalog.table_names()

    def describe(self, table_name: str) -> list[dict[str, Any]]:
        """Schema description of *table_name* (one dict per column)."""
        with self.catalog.lock:
            return self.catalog.table(table_name).schema.describe()

    # -- programmatic schema and data access --------------------------------------

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> TableStorage:
        """Create a table from a :class:`~repro.db.schema.TableSchema` object."""
        with self.catalog.lock:
            return self.catalog.create_table(schema, if_not_exists=if_not_exists)

    def table(self, name: str) -> TableStorage:
        """Return the storage object of table *name*."""
        return self.catalog.table(name)

    def insert_rows(self, table_name: str, rows: Iterable[dict[str, Any]]) -> int:
        """Bulk-insert dictionaries into *table_name*; returns the row count."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            return len(table.insert_many(rows))

    def add_perceptual_column(
        self,
        table_name: str,
        column_name: str,
        column_type: Any = None,
    ) -> Column:
        """Add a new perceptual column initialised to MISSING and return it."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            if isinstance(column_type, str):
                # Accept SQL type names ("REAL", "boolean", ...); a raw string
                # in Column.type would crash the durability journal later.
                column_type = ColumnType.from_name(column_type)
            resolved_type = column_type or ColumnType.REAL
            column = Column(
                name=column_name,
                type=resolved_type,
                kind=AttributeKind.PERCEPTUAL,
                nullable=True,
                default=MISSING,
            )
            table.add_column(column, fill_value=MISSING)
            return column

    def column_values(self, table_name: str, column_name: str) -> dict[int, Any]:
        """Return ``rowid -> value`` for one column (including MISSING cells)."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            key = table.schema.column(column_name).name
            return {rowid: row.get(key) for rowid, row in table.scan()}

    def missing_count(self, table_name: str, column_name: str) -> int:
        """Number of MISSING cells in ``table_name.column_name``."""
        with self.catalog.lock:
            return len(self.catalog.table(table_name).missing_rowids(column_name))

    def value_provenance(
        self, table_name: str, column_name: str
    ) -> dict[int, ValueProvenance]:
        """``rowid -> ValueProvenance`` for the non-stored cells of a column."""
        with self.catalog.lock:
            return self.catalog.table(table_name).provenance_map(column_name)

    def provenance_counts(self, table_name: str, column_name: str) -> dict[str, int]:
        """Histogram of value provenance (stored/crowd/predicted) of a column."""
        with self.catalog.lock:
            return self.catalog.table(table_name).provenance_counts(column_name)

    def __repr__(self) -> str:
        tables = ", ".join(self.table_names()) or "<empty>"
        state = "closed" if self._closed else "open"
        return f"Connection({state}, tables=[{tables}])"


def connect(
    catalog: Catalog | None = None,
    *,
    path: Any = None,
    synchronous: str | None = None,
    checkpoint_interval: int | None = _UNSET,
    buffer_pool_pages: int | None = None,
    page_size: int | None = None,
    session: SessionContext | None = None,
    policy: AcquisitionPolicy | None = None,
    statement_cache_size: int = 128,
    statement_log_size: int | None = 1000,
    hash_joins: bool = True,
) -> Connection:
    """Open a connection to an in-memory or durable crowd database.

    This is the module-level DB-API entry point::

        conn = repro.connect()
        conn.cursor().execute("SELECT name FROM movies WHERE movie_id = ?", (1,))

    Pass an existing :class:`~repro.db.catalog.Catalog` to share one set of
    tables between several connections, each with its own
    :class:`SessionContext` (value source, expansion handler, budget).  A
    *policy* — the unified
    :class:`~repro.db.acquisition.AcquisitionPolicy` — seeds the session's
    acquisition knobs (budget, batching, prediction, enumeration); when a
    *session* is passed too, the policy is installed on it.

    With ``path`` the database lives in a directory on disk and survives
    restarts: opening replays the last snapshot plus the write-ahead-log
    tail (recovering paid crowd answers, their provenance and confidence,
    and warm-starting the answer cache), and every later statement is
    logged before it is acknowledged.  ``synchronous`` picks the fsync
    policy (``"full"`` per statement, ``"normal"`` group commit,
    ``"off"``) and ``checkpoint_interval`` the automatic-snapshot cadence
    in WAL records (``None`` disables) — both adjustable at runtime via
    ``PRAGMA``.  Durable tables keep their rows in a paged store behind a
    fixed-size buffer pool (``docs/storage.md``): ``buffer_pool_pages``
    sets its capacity (0 keeps rows in plain memory), ``page_size`` the
    page size in bytes; the pool is resizable at runtime via ``PRAGMA
    buffer_pool_pages = N``.  Closing this connection closes the database
    directory; see ``docs/persistence.md`` for the file format and
    crash-safety guarantees.
    """
    if policy is not None:
        if session is None:
            session = SessionContext(policy=policy)
        else:
            session.policy = policy
    owns_durability = False
    if path is None:
        if (
            synchronous is not None
            or checkpoint_interval is not _UNSET
            or buffer_pool_pages is not None
            or page_size is not None
        ):
            # Silently accepting the knobs would let e.g.
            # connect(synchronous="full") look durable while nothing is.
            raise ValueError(
                "synchronous/checkpoint_interval/buffer_pool_pages/page_size "
                "are durability knobs: they require path=..."
            )
    else:
        if catalog is not None:
            raise ValueError("pass either a catalog or a path, not both")
        from repro.db.durability import (
            DEFAULT_PAGE_SIZE,
            DEFAULT_POOL_PAGES,
            DurabilityManager,
        )

        manager = DurabilityManager(
            path,
            synchronous="normal" if synchronous is None else synchronous,
            checkpoint_interval=1000 if checkpoint_interval is _UNSET else checkpoint_interval,
            buffer_pool_pages=(
                DEFAULT_POOL_PAGES if buffer_pool_pages is None else buffer_pool_pages
            ),
            page_size=DEFAULT_PAGE_SIZE if page_size is None else page_size,
        )
        catalog = manager.catalog
        owns_durability = True
    connection = Connection(
        catalog,
        session=session,
        statement_cache_size=statement_cache_size,
        statement_log_size=statement_log_size,
        hash_joins=hash_joins,
    )
    connection._owns_durability = owns_durability
    return connection
