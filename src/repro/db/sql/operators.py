"""Physical operator algebra: batch-at-a-time pull iterators for SELECT.

The planner produces a *logical* :class:`~repro.db.sql.planner.SelectPlan`;
:func:`lower_select_plan` lowers it into a tree of composable physical
operators.  Each is pulled a *batch* at a time (:meth:`Operator.batches`):
a batch is a non-empty list of items, so the per-pull cost — a generator
resumption and the pull's timing — is paid once per batch at every level
instead of once per row:

* access paths — :class:`SeqScan` and :class:`IndexRangeScan` (point
  probe rendered as ``IndexLookup``, range probe and/or Sort-eliminating
  ordered walk), both capturing the row set under the catalog lock at
  ``open()`` time; rows materialize a batch at a time as they are pulled,
  each copied or decoded once by the storage
  (:meth:`~repro.db.storage.TableStorage.snapshot`): one page run of the
  paged store per batch, or :data:`~repro.db.storage.BATCH_ROWS` rows;
* :class:`CrowdFill` — the crowd-acquisition operator, the one way a
  MISSING cell gets filled from the crowd.  It watches the rows streaming
  out of a scan for MISSING values of crowd-sourced (perceptual)
  attributes and acquires them in configurable batches — one coalesced
  platform call per attribute per ``batch_size`` missing rows — through
  the catalog's :class:`~repro.crowd.runtime.AcquisitionRuntime`:
  per-attribute batches execute concurrently on a bounded worker pool,
  repeat requests are served from the cross-query answer cache, and cells
  another query is already acquiring are coalesced onto that in-flight
  dispatch.  Under hybrid acquisition it acquires only the planner-chosen
  *sample* of the missing rows (plus any low-confidence predicted cells up
  for re-acquisition) and leaves the rest to :class:`PredictFill`;
* :class:`PredictFill` — the prediction stage of hybrid acquisition.  It
  trains an :class:`~repro.db.acquisition.AttributePredictor` (e.g. an
  SVR/SVC over perceptual-space coordinates) on every known value streaming
  by — crowd answers from the ``CrowdFill`` below plus previously stored
  cells — and fills the remaining MISSING cells with predictions, tagging
  each value's provenance (``crowd`` vs ``predicted`` vs ``stored``) and
  per-value confidence in storage;
* joins — :class:`NestedLoopJoin` (general predicates, per-join invariants
  such as the materialized right side and the LEFT JOIN null-row template
  are hoisted out of the probe loop) and :class:`HashJoin`, the equi-join
  fast path that builds a hash table on the right input once and probes it
  with each left batch;
* :class:`Filter`, :class:`Project`, :class:`Aggregate`, :class:`Distinct`,
  :class:`Sort` and :class:`Limit`.

Operators pull from their children lazily, so a ``LIMIT k`` query without an
ORDER BY stops pulling from the scan after the batch holding its *k*-th row
instead of materializing the table, and cursors can stream rows to the
client incrementally.  A :class:`CrowdFill` ends a batch at every crowd
flush, so a batch never spans a platform dispatch.  Every operator counts
the rows it produced (``rows_out``) and its inclusive wall-clock time
(``wall_seconds``, billed per batch pull); the EXPLAIN rendering
(:func:`describe_operator_tree`) shows the tree in pipeline order together
with those counters and the crowd-batch statistics of any ``CrowdFill``
(batches dispatched, cells filled, answer-cache hits, coalesced requests).

Item types flowing between operators:

* below :class:`Bind`: ``(rowid, row_dict)`` pairs (rows the query owns);
* between :class:`Bind` and the projection: *pipeline rows*, plain tuples
  holding one row dict per FROM/JOIN table in plan order — :class:`Bind`
  makes ``(row,)`` and each join appends its table's row (or a LEFT
  JOIN's all-NULL row); the dicts are never copied or mutated.  Every
  column reference was resolved to its slot when the plan was built
  (:class:`~repro.db.sql.expressions.RowLayout`), so no name is looked up
  per row;
* inside :class:`Aggregate`: the pipeline row of a group is its
  representative (its first row) plus, when the plan has aggregate
  calls, one more slot holding their values
  (:attr:`~repro.db.sql.planner.SelectPlan.group_layout`);
* above :class:`Project`/:class:`Aggregate`: ``(row_tuple, pipeline_row)``
  pairs.

Filter, Project, the HashJoin probe and Aggregate run the plan's
per-batch kernels (:mod:`repro.db.sql.kernels`), generated once when the
plan was built; the other operators compile their expressions into
closures when they are lowered.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.crowd.estimation import (
    ENUMERATION_TABLE,
    Chao92Estimator,
    EnumerationStats,
    enumeration_attribute,
    normalize_entity,
)
from repro.db.acquisition import (
    PROVENANCE_CROWD,
    PROVENANCE_PREDICTED,
    PROVENANCE_STORED,
    SamplePlan,
    affordable_values,
    plan_sample,
)
from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind, TableSchema
from repro.db.storage import RowSnapshot
from repro.db.sql import ast
from repro.db.sql.expressions import (
    NO_TABLES,
    Params,
    PipelineRow,
    RowLayout,
    compile_expression,
    compile_predicate,
    evaluate,
    expression_label,
    hashable_key,
)
from repro.db.sql.kernels import AggregateKernel, Kernel
from repro.db.sql.planner import AccessPath, OutputColumn, ScanPlan, SelectPlan
from repro.db.types import MISSING, is_missing, sort_rank
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import SessionContext


# ---------------------------------------------------------------------------
# Operator base
# ---------------------------------------------------------------------------


class Operator:
    """One node of a physical execution plan.

    Lifecycle: construct (cheap), ``open()`` once under the catalog lock
    (scans snapshot their row set here), pull :meth:`batches` (unlocked),
    ``close()``.  An operator tree is single-use.  Subclasses implement
    :meth:`_produce`, a generator of non-empty batches.
    """

    label = "Operator"
    #: Hidden operators are glue (e.g. :class:`Bind`) and are omitted from
    #: the EXPLAIN rendering.
    hidden = False

    def __init__(self, *children: "Operator") -> None:
        self.children: tuple[Operator, ...] = children
        #: Number of items this operator has produced so far (the sum of
        #: its batches' lengths).
        self.rows_out = 0
        #: Cost-model row estimate set at lowering time (None when the
        #: planner made no estimate for this operator).  EXPLAIN ANALYZE
        #: renders it as ``est=N`` next to the actual count.
        self.est_rows: Optional[int] = None
        #: Inclusive wall-clock seconds spent producing batches (contains
        #: the children's time, like the "actual time" of EXPLAIN ANALYZE
        #: in mainstream engines; for a CrowdFill it contains the platform
        #: latency the crowd dispatches waited on).
        self.wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """Prepare for execution; called once, under the catalog lock."""
        for child in self.children:
            child.open()

    def close(self) -> None:
        """Release resources (snapshots, hash tables)."""
        for child in self.children:
            child.close()

    # -- iteration -----------------------------------------------------------

    def batches(self) -> Iterator[list[Any]]:
        """Pull this operator's output a batch (a non-empty list) at a time.

        The one timed pull: each batch adds its length to ``rows_out`` and
        the time spent producing it to ``wall_seconds``.
        """
        produce = self._produce()
        try:
            # Time each pull, not the whole loop: the time a *consumer*
            # spends between pulls (e.g. a client iterating a streaming
            # cursor) must not be billed to this operator.
            start = perf_counter()
            for batch in produce:
                self.wall_seconds += perf_counter() - start
                self.rows_out += len(batch)
                yield batch
                start = perf_counter()
            self.wall_seconds += perf_counter() - start
        except GeneratorExit:
            # The consumer stopped early.  Freeing what ``_produce`` still
            # holds (a Sort's buffered rows, say) is this operator's work,
            # not the self time of the consumer whose pull ended it.
            start = perf_counter()
            produce.close()
            self.wall_seconds += perf_counter() - start
            raise

    def __iter__(self) -> Iterator[Any]:
        """The output row by row: :meth:`batches`, flattened."""
        batches = self.batches()
        try:
            for batch in batches:
                yield from batch
        finally:
            batches.close()

    def _produce(self) -> Iterator[list[Any]]:
        """Yield the output as non-empty lists of items."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- introspection -------------------------------------------------------

    def detail(self) -> str:
        """Operator-specific annotation rendered after the label."""
        return ""

    def stats(self) -> str:
        """Runtime statistics rendered by EXPLAIN when the tree executed.

        Every operator reports its row count and inclusive wall time;
        subclasses contribute extra counters through :meth:`extra_stats`.
        """
        parts = [f"rows={self.rows_out}"]
        if self.est_rows is not None:
            parts.append(f"est={self.est_rows}")
        parts.extend(self.extra_stats())
        parts.append(f"time={self.wall_seconds * 1000.0:.1f}ms")
        return " ".join(parts)

    def extra_stats(self) -> list[str]:
        """Operator-specific ``key=value`` counters for EXPLAIN ANALYZE."""
        return []

    def render_line(self) -> str:
        """The operator's EXPLAIN line (without indentation or stats)."""
        detail = self.detail()
        return self.label + (f" {detail}" if detail else "")

    def walk(self) -> Iterator["Operator"]:
        """Yield this operator and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        detail = self.detail()
        return f"<{self.label}{' ' + detail if detail else ''} rows_out={self.rows_out}>"


# ---------------------------------------------------------------------------
# Row-level helpers
# ---------------------------------------------------------------------------


def _is_unknown(value: Any) -> bool:
    return value is None or is_missing(value)


# ---------------------------------------------------------------------------
# Access paths (batches of (rowid, row) pairs)
# ---------------------------------------------------------------------------


class _TableScan(Operator):
    """A table access path: passes on the batches of a storage snapshot.

    ``open()`` takes the snapshot (:meth:`~repro.db.storage.TableStorage.snapshot`)
    under the catalog lock; ``rows_scanned`` counts the rows actually
    pulled through the scan.
    """

    def __init__(self, catalog: Catalog, table: str, alias: str) -> None:
        super().__init__()
        self._catalog = catalog
        self.table = table
        self.alias = alias
        self._snapshot: Optional[RowSnapshot] = None
        self.rows_scanned = 0

    def close(self) -> None:
        """Release the snapshot."""
        self._snapshot = None
        super().close()

    def _produce(self) -> Iterator[list[tuple[int, dict[str, Any]]]]:
        if self._snapshot is None:
            return
        for batch in self._snapshot.batches():
            self.rows_scanned += len(batch)
            yield batch


class SeqScan(_TableScan):
    """Full-table scan over a snapshot taken at ``open()`` time.

    The snapshot fixes the row set; rows materialize (the storage's one
    copy or decode) a batch at a time as they are pulled — one page run of
    the paged store, or :data:`~repro.db.storage.BATCH_ROWS` in-memory
    rows — so a downstream LIMIT stops the work after the batch that
    satisfied it.
    """

    label = "SeqScan"

    def open(self) -> None:
        """Snapshot the table's row set (runs under the catalog lock)."""
        self._snapshot = self._catalog.table(self.table).snapshot()

    def detail(self) -> str:
        return f"{self.table} AS {self.alias}"


class IndexRangeScan(_TableScan):
    """Ordered-index walk: point probe, range probe, ordered scan, or both.

    Lowered from an :class:`~repro.db.sql.planner.AccessPath`.  With
    bounds set, only entries inside ``low <op> value <op> high`` are
    fetched (unknown cells are never inside a range — exactly the rows the
    residual WHERE filter would keep).  A point probe (``col = v``) passes
    one key expression as both bounds; it evaluates the key once and
    renders as ``IndexLookup``.  With ``ordered`` set and *no* bounds, the
    scan walks the whole index in order — every row including
    NULL/MISSING cells, which come last in both directions — and the
    lowering has eliminated the Sort operator.  An ascending ordered walk
    composes with bounds (a range is emitted in index order already); the
    planner never pairs bounds with a descending walk.

    ``open()`` probes the index and captures the matching rows (see
    :meth:`~repro.db.storage.TableStorage.snapshot`); they decode
    :data:`~repro.db.storage.BATCH_ROWS` at a time as they are pulled, so
    an ordered walk under a LIMIT decodes only the batches it reads.

    Bound expressions (literals or ``?`` slots of *params*) are resolved
    at ``open()`` time.  A NULL bound makes the range predicate unknown
    for every row, so the scan is empty.  A vanished index degrades to a
    full snapshot scan — the residual filter keeps the result correct (the
    dialect has no DROP INDEX, so an eliminated Sort can only lose its
    index to DROP TABLE, which makes the whole query fail on lookup
    instead).
    """

    label = "IndexRangeScan"

    def __init__(
        self,
        catalog: Catalog,
        table: str,
        alias: str,
        column: str,
        low: Optional[ast.Expression] = None,
        high: Optional[ast.Expression] = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        ordered: bool = False,
        descending: bool = False,
        params: Params = (),
    ) -> None:
        super().__init__(catalog, table, alias)
        self.column = column
        self._low = low
        self._high = high
        self._params = params
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.ordered = ordered
        self.descending = descending
        self._point = low is not None and low is high
        if self._point:
            self.label = "IndexLookup"

    def open(self) -> None:
        """Probe the index and capture the matching rows (under the lock)."""
        storage = self._catalog.table(self.table)
        index = storage.index_on(self.column)
        if index is None:  # index vanished between planning and execution
            self._snapshot = storage.snapshot()
            return
        low = high = None
        if self._low is not None:
            low = evaluate(self._low, self._params)
            if _is_unknown(low):
                return  # NULL bound: predicate unknown for every row
        if self._point:
            high = low
        elif self._high is not None:
            high = evaluate(self._high, self._params)
            if _is_unknown(high):
                return
        if low is None and high is None:
            rowids: Iterator[int] | list[int] = index.ordered_rowids(
                descending=self.descending
            )
        else:
            rowids = index.range_rowids(
                low,
                high,
                low_inclusive=self.low_inclusive,
                high_inclusive=self.high_inclusive,
            )
        self._snapshot = storage.snapshot(rowids)

    def detail(self) -> str:
        if self._point:
            return f"{self.table} AS {self.alias} ON {self.column}"
        pieces = []
        if self._low is not None:
            op = ">=" if self.low_inclusive else ">"
            pieces.append(f"{self.column} {op} {expression_label(self._low, self._params)}")
        if self._high is not None:
            op = "<=" if self.high_inclusive else "<"
            pieces.append(f"{self.column} {op} {expression_label(self._high, self._params)}")
        condition = " AND ".join(pieces) if pieces else self.column
        suffix = ""
        if self.ordered:
            suffix = " (ordered desc)" if self.descending else " (ordered)"
        return f"{self.table} AS {self.alias} ON {condition}{suffix}"


class CrowdFill(Operator):
    """Batch-acquire MISSING crowd-sourced attribute values mid-stream.

    Sits directly above a table's scan.  Rows stream through in input
    order; whenever ``crowd_batch_size`` rows with at least one MISSING
    watched attribute have accumulated (or the input is exhausted), one
    coalesced batch per attribute is handed to the catalog's acquisition
    runtime, which dispatches it to the session's value source and charges
    its cost to the session.  Obtained values are patched into the
    in-flight rows and, when ``crowd_write_back`` is set, persisted to
    storage under the catalog lock.  The operator keeps the session's
    policy and value source as they were when it was built, so a live
    cursor is not changed by a later ``PRAGMA acquisition_*``.

    Contract: N missing rows for one attribute produce
    ``ceil(N / crowd_batch_size)`` platform calls — never one call per row.

    Under hybrid acquisition the lowering passes *sample* (attribute ->
    rowids the planner chose for the crowd; everything else is left MISSING
    for the :class:`PredictFill` above) and *reacquire* (attribute ->
    rowids whose stored predicted value fell below the session's confidence
    threshold; those cells are answered again by the crowd even though they
    currently hold a value).
    """

    label = "CrowdFill"

    def __init__(
        self,
        child: Operator,
        catalog: Catalog,
        table: str,
        attributes: Sequence[str],
        session: SessionContext,
        *,
        sample: Mapping[str, frozenset[int]] | None = None,
        reacquire: Mapping[str, frozenset[int]] | None = None,
    ) -> None:
        super().__init__(child)
        self._catalog = catalog
        self.table = table
        self.attributes = list(attributes)
        self.session = session
        self.policy = session.policy
        self.source = session.value_source
        self.runtime = catalog.acquisition_runtime()
        self.sample = dict(sample) if sample is not None else None
        self.reacquire = {key: frozenset(value) for key, value in (reacquire or {}).items()}
        #: Number of coalesced platform calls dispatched (per attribute).
        self.batches_dispatched = 0
        #: Number of missing values requested from the source.
        self.values_requested = 0
        #: Number of values actually obtained and patched in.
        self.values_filled = 0
        #: Cells served from the runtime's cross-query AnswerCache.
        self.cache_hits = 0
        #: Cells joined onto another query's in-flight platform dispatch.
        self.coalesced = 0
        #: Platform assignments adaptive sizing avoided (quality dispatches).
        self.assignments_saved = 0
        #: Sum and count of the per-dispatch worker-accuracy estimates of
        #: this operator's quality-tracked dispatches.
        self._accuracy_sum = 0.0
        self._accuracy_dispatches = 0
        #: attribute -> rowid -> posterior confidence of quality dispatches;
        #: written back as provenance confidence so low-confidence crowd
        #: cells feed the re-acquisition loop.
        self._cell_confidences: dict[str, dict[int, float]] = {}

    def _needs_value(self, attribute: str, rowid: int, row: dict[str, Any]) -> bool:
        """Whether this operator should crowd-source ``row[attribute]``."""
        reacquire = rowid in self.reacquire.get(attribute, ())
        if not reacquire and not is_missing(row.get(attribute)):
            return False
        if self.sample is None:
            return True
        return rowid in self.sample.get(attribute, frozenset())

    def _produce(self) -> Iterator[list[tuple[int, dict[str, Any]]]]:
        pending: list[tuple[int, dict[str, Any]]] = []
        missing = 0
        for batch in self.children[0].batches():
            ready: list[tuple[int, dict[str, Any]]] = []
            for rowid, row in batch:
                row_missing = any(
                    self._needs_value(attribute, rowid, row) for attribute in self.attributes
                )
                # Rows with nothing to fill stream straight through while
                # no crowd batch is accumulating, so fully-populated tables
                # keep LIMIT early termination; once a missing row opens a
                # crowd batch, later rows queue behind it to preserve input
                # order.  Every output batch ends at a flush boundary: the
                # rows ahead of a crowd batch go out before it dispatches,
                # so a consumer that stops there pays for no dispatch.
                if not pending:
                    if not row_missing:
                        ready.append((rowid, row))
                        continue
                    if ready:
                        yield ready
                        ready = []
                pending.append((rowid, row))
                if row_missing:
                    missing += 1
                    if missing >= self.policy.crowd_batch_size:
                        yield self._flush(pending)
                        pending = []
                        missing = 0
            if ready:
                yield ready
        if pending:
            yield self._flush(pending)

    def _flush(
        self, pending: list[tuple[int, dict[str, Any]]]
    ) -> list[tuple[int, dict[str, Any]]]:
        cap = self._crowd_only_cap()
        requests: list[tuple[str, list[tuple[int, dict[str, Any]]]]] = []
        for attribute in self.attributes:
            if self.session.budget_exhausted:
                # Budget ran out mid-query: emit the rows with their cells
                # still MISSING instead of spending past the cap.
                break
            items = [
                (rowid, row)
                for rowid, row in pending
                if self._needs_value(attribute, rowid, row)
            ]
            if cap is not None:
                # Cells past what the budget buys stay MISSING.
                items = items[:cap]
                cap -= len(items)
            if items:
                requests.append((attribute, items))
        if requests:
            self._acquire(requests)
        return pending

    def _crowd_only_cap(self) -> int | None:
        """Cells a crowd-only flush may request within the session's budget.

        None when nothing caps the flush: no budget, or a hybrid plan,
        whose sample the planner already sized to the budget.
        """
        budget = self.session.remaining_budget
        if self.sample is not None or budget is None:
            return None
        return affordable_values(budget, self.policy)

    def _acquire(
        self, requests: list[tuple[str, list[tuple[int, dict[str, Any]]]]]
    ) -> None:
        """Resolve the flush through the acquisition runtime.

        The runtime serves what it can from the cross-query answer cache,
        joins cells another query is already acquiring, and dispatches the
        per-attribute remainders *concurrently* on its bounded worker
        pool — the wall-clock win on multi-attribute queries.  Budget cost
        for the dispatches this flush owns is charged inside the runtime.
        """
        outcome = self.runtime.acquire(
            self.source,
            self.table,
            [
                (attribute, [(rowid, dict(row)) for rowid, row in items])
                for attribute, items in requests
            ],
            session=self.session,
            policy=self.policy,
        )
        self.batches_dispatched += outcome.dispatches
        self.cache_hits += outcome.cache_hits
        self.coalesced += outcome.coalesced
        self.assignments_saved += outcome.assignments_saved
        self._accuracy_sum += outcome.accuracy_sum
        self._accuracy_dispatches += outcome.accuracy_dispatches
        for attribute, confidences in outcome.confidences.items():
            self._cell_confidences.setdefault(attribute, {}).update(confidences)
        for attribute, items in requests:
            self.values_requested += len(items)
            self._apply_resolved(attribute, items, outcome.values.get(attribute, {}))

    def _apply_resolved(
        self,
        attribute: str,
        items: list[tuple[int, dict[str, Any]]],
        values: Mapping[int, Any],
    ) -> None:
        """Patch obtained values into the in-flight rows and persist them.

        The write-back re-checks each cell under the catalog lock: a
        direct UPDATE that landed while the dispatch was in flight made
        the stored value authoritative, so the crowd answer is dropped
        for that cell (and evicted from the answer cache) instead of
        silently overwriting application data.  Cells that are still
        MISSING, or hold an earlier crowd/predicted value (re-acquisition),
        are written as usual.
        """
        resolved = {
            rowid: value for rowid, value in values.items() if not is_missing(value)
        }
        for rowid, row in items:
            if rowid in resolved:
                row[attribute] = resolved[rowid]
                self.values_filled += 1
        if self.policy.crowd_write_back and resolved:
            with self._catalog.lock:
                storage = self._catalog.table(self.table)
                writable: dict[int, Any] = {}
                for rowid, value in resolved.items():
                    try:
                        current = storage.get(rowid)
                    except ExecutionError:
                        continue  # row deleted mid-flight; nothing to write
                    if (
                        not is_missing(current.get(attribute))
                        and storage.provenance_of(attribute, rowid).source
                        == PROVENANCE_STORED
                    ):
                        # A concurrent direct UPDATE won the race; its
                        # value is authoritative.  The cache may hold our
                        # answer (the UPDATE's invalidation can have fired
                        # before the dispatch cached it) — evict it.
                        self.runtime.cache.invalidate(self.table, attribute, rowid)
                        continue
                    writable[rowid] = value
                if writable:
                    confidences = self._cell_confidences.get(attribute, {})
                    storage.fill_values(
                        attribute,
                        writable,
                        skip_deleted=True,
                        provenance=PROVENANCE_CROWD,
                        confidences={
                            rowid: confidences[rowid]
                            for rowid in writable
                            if rowid in confidences
                        },
                    )

    @property
    def mean_worker_accuracy(self) -> float | None:
        """Mean worker-accuracy estimate over this operator's quality-tracked
        dispatches (None when none ran)."""
        if not self._accuracy_dispatches:
            return None
        return self._accuracy_sum / self._accuracy_dispatches

    def detail(self) -> str:
        return ", ".join(f"{self.table}.{a}" for a in self.attributes)

    def render_line(self) -> str:
        options = f"batch_size={self.policy.crowd_batch_size}"
        if self.sample is not None:
            sampled = sum(len(rowids) for rowids in self.sample.values())
            options += f", sample={sampled}"
        return f"CrowdFill({options}) {self.detail()}"

    def extra_stats(self) -> list[str]:
        parts = [
            f"batches={self.batches_dispatched}",
            f"filled={self.values_filled}/{self.values_requested}",
            f"cache_hits={self.cache_hits}",
            f"coalesced={self.coalesced}",
        ]
        if self.mean_worker_accuracy is not None:
            parts.append(f"mean_worker_accuracy={self.mean_worker_accuracy:.3f}")
            parts.append(f"assignments_saved={self.assignments_saved}")
        return parts


class PredictFill(Operator):
    """Predict remaining MISSING crowd-sourced values from the known ones.

    The second stage of hybrid acquisition: sits directly above a table's
    :class:`CrowdFill` (or its scan).  The operator is *blocking* — it
    materializes the child's rows, then for each watched attribute trains
    the session's :class:`~repro.db.acquisition.AttributePredictor` on
    every row that already holds a *trustworthy* value (crowd answers
    obtained below plus previously stored cells; cells whose provenance is
    ``predicted`` are excluded so the model never trains on its own
    earlier outputs) and predicts the cells still MISSING.

    Because it blocks, a ``LIMIT`` query under hybrid acquisition acquires
    the full planner-chosen sample instead of terminating the scan early:
    the session pays the sample once and ``write_back`` amortizes it
    across all later queries.  Sessions that want cheap point queries
    against a sparsely filled table should run crowd-only (no predictor).
    Predicted values are patched into the in-flight rows and, when
    ``crowd_write_back`` is set, persisted with provenance ``predicted``
    and the model's per-value confidence, so later sessions can re-acquire
    low-confidence cells.  Like :class:`CrowdFill`, the operator keeps the
    session's policy and predictor as they were when it was built.

    EXPLAIN ANALYZE counters: rows predicted, crowd platform calls saved
    versus a crowd-only plan, and the model's training RMSE per attribute.
    """

    label = "PredictFill"

    def __init__(
        self,
        child: Operator,
        catalog: Catalog,
        table: str,
        attributes: Sequence[str],
        session: SessionContext,
        plans: Mapping[str, SamplePlan],
    ) -> None:
        super().__init__(child)
        self._catalog = catalog
        self.table = table
        self.attributes = list(attributes)
        self.policy = session.policy
        self.predictor = session.predictor
        self.runtime = catalog.acquisition_runtime()
        self.plans = dict(plans)
        #: Number of cells filled with predictions (all attributes).
        self.rows_predicted = 0
        #: Crowd platform calls avoided versus crowd-only acquisition.
        self.crowd_calls_saved = 0
        #: attribute -> training RMSE of the fitted model.
        self.model_rmse: dict[str, float] = {}
        #: attribute -> model kind ("svr-rbf", "svc-rbf", ...).
        self.model_kinds: dict[str, str] = {}
        #: attribute -> number of training examples used.
        self.training_sizes: dict[str, int] = {}

    def _produce(self) -> Iterator[list[tuple[int, dict[str, Any]]]]:
        rows = list(chain.from_iterable(self.children[0].batches()))
        for attribute in self.attributes:
            self._predict_attribute(attribute, rows)
        if rows:
            yield rows

    def _predict_attribute(
        self, attribute: str, rows: list[tuple[int, dict[str, Any]]]
    ) -> None:
        targets = [
            (rowid, row) for rowid, row in rows if is_missing(row.get(attribute))
        ]
        if not targets:
            return
        # Cells a model filled earlier must not feed the next model's
        # training set (self-training would relearn prior errors as truth).
        with self._catalog.lock:
            previously_predicted = {
                rowid
                for rowid, entry in self._catalog.table(self.table)
                .provenance_map(attribute)
                .items()
                if entry.source == PROVENANCE_PREDICTED
            }
        train = [
            (rowid, row, row[attribute])
            for rowid, row in rows
            if not is_missing(row.get(attribute)) and rowid not in previously_predicted
        ]

        def fit_predict():
            return self.predictor.fit_predict(
                attribute,
                [(rowid, dict(row), value) for rowid, row, value in train],
                [(rowid, dict(row)) for rowid, row in targets],
            )

        # Train/predict through the runtime's accounting chokepoint (inline —
        # prediction is CPU work and must not occupy the platform dispatch
        # pool).
        batch = self.runtime.run_prediction(fit_predict)
        self.model_kinds[attribute] = batch.model_kind
        self.training_sizes[attribute] = batch.training_size
        if batch.rmse is not None:
            self.model_rmse[attribute] = batch.rmse
        if not batch.values:
            return
        predicted: dict[int, Any] = {}
        for rowid, row in targets:
            if rowid in batch.values:
                row[attribute] = batch.values[rowid]
                predicted[rowid] = batch.values[rowid]
        self.rows_predicted += len(predicted)
        sample_size = (
            self.plans[attribute].sample_size if attribute in self.plans else len(train)
        )
        # Platform calls a crowd-only plan would have dispatched for the
        # cells this stage filled by prediction instead.
        batch_size = self.policy.crowd_batch_size
        crowd_only_calls = math.ceil((sample_size + len(predicted)) / batch_size)
        self.crowd_calls_saved += crowd_only_calls - math.ceil(sample_size / batch_size)
        if self.policy.crowd_write_back and predicted:
            confidences = {
                rowid: batch.confidence_for(rowid) for rowid in predicted
            }
            with self._catalog.lock:
                self._catalog.table(self.table).fill_values(
                    attribute,
                    predicted,
                    skip_deleted=True,
                    provenance=PROVENANCE_PREDICTED,
                    confidences=confidences,
                )

    def detail(self) -> str:
        return ", ".join(f"{self.table}.{a}" for a in self.attributes)

    def render_line(self) -> str:
        options = f"sample_fraction={self.policy.sample_fraction:g}"
        if self.policy.min_confidence > 0:
            options += f", min_confidence={self.policy.min_confidence:g}"
        return f"PredictFill({options}) {self.detail()}"

    def extra_stats(self) -> list[str]:
        parts = [
            f"predicted={self.rows_predicted}",
            f"crowd_calls_saved={self.crowd_calls_saved}",
        ]
        if self.model_rmse:
            parts.append(
                "rmse=" + ",".join(f"{a}:{v:.3f}" for a, v in sorted(self.model_rmse.items()))
            )
        return parts


class Bind(Operator):
    """Glue: turn a table source's ``(rowid, row)`` pairs into one-slot
    pipeline rows ``(row,)``."""

    label = "Bind"
    hidden = True

    def _produce(self) -> Iterator[list[PipelineRow]]:
        for batch in self.children[0].batches():
            yield [(row,) for _rowid, row in batch]


class SingleRow(Operator):
    """Source for table-less SELECTs: one empty pipeline row."""

    label = "Result"

    def _produce(self) -> Iterator[list[PipelineRow]]:
        yield [()]

    def detail(self) -> str:
        return "(no table)"


class CrowdEnumerate(Operator):
    """Open-world enumeration source: crowd answers become rows.

    The leaf operator of ``FROM CROWD`` pipelines (SELECT and
    ``INSERT ... FROM CROWD`` alike).  It pulls HIT batches for the
    predicate through the shared acquisition runtime, dedupes the streaming
    answers via entity resolution (:func:`~repro.crowd.estimation.normalize_entity`)
    and feeds every observation to a streaming
    :class:`~repro.crowd.estimation.Chao92Estimator`, which drives the
    stopping rule: stop on reaching the completeness target, on running out
    of budget, or on ``enum_dry_batches`` consecutive batches with no new
    species.  Each *new* species is emitted as one ``(ordinal, {"value":
    answer})`` row in first-seen order, so the operator slots in below
    :class:`Bind` exactly like a table scan.

    The statement's *relation* supplies the predicate posted to workers and
    its ``COMPLETENESS`` and ``BUDGET`` constraints; the session's policy
    supplies the completeness fallback and the ``enum_dry_batches`` /
    ``max_enum_batches`` stops, and its budget is honoured independently
    of the statement's.  Enumeration never dispatches a batch it cannot
    pay for: when the source exposes its per-batch cost
    (``payment_per_hit``) the check is exact, otherwise the loop stops as
    soon as the accumulated cost reaches the cap.  *existing_keys* are the
    normalized entities already in the target table (``INSERT ... FROM
    CROWD`` dedup): they still feed the estimator but are never emitted.
    Every batch that cost a platform dispatch is recorded with
    :meth:`~repro.db.catalog.Catalog.record_enum_answers`, so a durable
    catalog replays repeat enumerations at zero spend after a restart.

    EXPLAIN ANALYZE counters: ``rows_enumerated`` / ``unique_seen`` /
    ``est_total`` / ``est_coverage`` / ``stopped_on`` plus the usual
    cache/coalescing/cost counters.
    """

    label = "CrowdEnumerate"

    def __init__(
        self,
        catalog: Catalog,
        relation: ast.CrowdRelation,
        session: SessionContext | None,
        *,
        existing_keys: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__()
        if session is None or session.value_source is None:
            raise ExecutionError(
                "FROM CROWD requires a crowd value source "
                "(set one via Connection.set_value_source)"
            )
        self._catalog = catalog
        self.predicate = relation.predicate
        self.session = session
        self.policy = session.policy
        self.source = session.value_source
        self.runtime = catalog.acquisition_runtime()
        self.completeness = (
            relation.completeness
            if relation.completeness is not None
            else self.policy.completeness_target
        )
        self.budget = relation.budget
        self.existing_keys = existing_keys
        self.estimator = Chao92Estimator()
        #: Batches pulled (platform dispatches + cache/coalesced replays).
        self.batches_pulled = 0
        #: Actual platform dispatches (what the crowd was paid for).
        self.batches_dispatched = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.cost_spent = 0.0
        self.rows_enumerated = 0
        #: Why the enumeration loop ended: "completeness", "budget" or
        #: "exhausted" (None while running or when the consumer stopped
        #: pulling first, e.g. a LIMIT above).
        self.stopped_on: Optional[str] = None

    # -- enumeration loop ----------------------------------------------------

    def _produce(self) -> Iterator[list[tuple[int, dict[str, Any]]]]:
        attribute = enumeration_attribute(self.predicate)
        emitted: set[str] = set()
        dry = 0
        ordinal = 0
        batch_index = 0
        while True:
            if not self._within_budget():
                self.stopped_on = "budget"
                return
            if self.batches_pulled >= self.policy.max_enum_batches:
                self.stopped_on = "exhausted"
                return
            answers = self._pull_batch(attribute, batch_index)
            batch_index += 1
            self.batches_pulled += 1
            new_in_batch = 0
            rows: list[tuple[int, dict[str, Any]]] = []
            for answer in answers:
                key = normalize_entity(answer)
                if not key:
                    continue
                if self.estimator.observe(key):
                    new_in_batch += 1
                if key in self.existing_keys or key in emitted:
                    continue
                emitted.add(key)
                ordinal += 1
                rows.append((ordinal, {"value": answer}))
            if rows:
                self.rows_enumerated += len(rows)
                yield rows
            dry = dry + 1 if new_in_batch == 0 else 0
            if (
                self.completeness is not None
                and self.batches_pulled >= 2
                and self.estimator.unique_seen > 0
                and self.estimator.est_coverage() >= self.completeness
            ):
                self.stopped_on = "completeness"
                return
            if dry >= self.policy.enum_dry_batches:
                self.stopped_on = "exhausted"
                return

    def _within_budget(self) -> bool:
        if self.session.budget_exhausted:
            return False
        budget = self.budget
        if budget is None:
            return True
        if self.cost_spent >= budget:
            return False
        per_batch = getattr(self.source, "payment_per_hit", None)
        if per_batch is not None and self.cost_spent + per_batch > budget + 1e-9:
            return False
        return True

    def _pull_batch(self, attribute: str, batch_index: int) -> list[Any]:
        """Fetch one HIT batch of answers through the runtime."""
        outcome = self.runtime.acquire(
            self.source,
            ENUMERATION_TABLE,
            [(attribute, [(batch_index, {})])],
            session=self.session,
            policy=self.policy,
        )
        self.batches_dispatched += outcome.dispatches
        self.cache_hits += outcome.cache_hits
        self.coalesced += outcome.coalesced
        self.cost_spent += outcome.cost
        dispatched = outcome.dispatches > 0
        answers = outcome.values.get(attribute, {}).get(batch_index)
        if answers is None or is_missing(answers):
            batch: list[Any] = []
        elif isinstance(answers, (list, tuple)):
            batch = list(answers)
        else:
            batch = [answers]
        # Journal even empty dispatched batches: replay must reproduce the
        # dry-streak exhaustion without paying for the batches again.
        if dispatched:
            self._catalog.record_enum_answers(attribute, batch_index, batch)
        return batch

    # -- introspection -------------------------------------------------------

    def stats_snapshot(self) -> EnumerationStats:
        """The enumeration counters as one reusable stats object."""
        return EnumerationStats(
            predicate=self.predicate,
            rows_enumerated=self.rows_enumerated,
            unique_seen=self.estimator.unique_seen,
            est_total=self.estimator.est_total(),
            est_coverage=self.estimator.est_coverage(),
            stopped_on=self.stopped_on,
            batches=self.batches_pulled,
            sample_size=self.estimator.sample_size,
            cache_hits=self.cache_hits,
            coalesced=self.coalesced,
            cost=self.cost_spent,
            completeness_target=self.completeness,
            budget=self.budget,
        )

    def detail(self) -> str:
        return repr(self.predicate)

    def render_line(self) -> str:
        options = []
        if self.completeness is not None:
            options.append(f"completeness>={self.completeness:g}")
        if self.budget is not None:
            options.append(f"budget<={self.budget:g}")
        prefix = f"CrowdEnumerate({', '.join(options)})" if options else "CrowdEnumerate"
        return f"{prefix} {self.detail()}"

    def extra_stats(self) -> list[str]:
        parts = [
            f"batches={self.batches_pulled}",
            f"rows_enumerated={self.rows_enumerated}",
            f"unique_seen={self.estimator.unique_seen}",
            f"est_total={self.estimator.est_total():.1f}",
            f"est_coverage={self.estimator.est_coverage():.3f}",
            f"stopped_on={self.stopped_on}",
            f"cache_hits={self.cache_hits}",
            f"coalesced={self.coalesced}",
            f"cost={self.cost_spent:.4f}",
        ]
        tracker = self.runtime.worker_quality
        if tracker.n_workers:
            parts.append(f"mean_worker_accuracy={tracker.mean_accuracy():.3f}")
        return parts


# ---------------------------------------------------------------------------
# Joins (left child: batches of pipeline rows; right child: of (rowid, row) pairs)
# ---------------------------------------------------------------------------


class NestedLoopJoin(Operator):
    """General-purpose join: evaluate the condition per candidate pair.

    Join invariants are hoisted out of the probe loop: the right input is
    materialized exactly once at first pull, and the LEFT JOIN null-row
    template is built once per join, not once per unmatched left row.
    """

    label = "NestedLoopJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        alias: str,
        condition: Optional[ast.Expression],
        kind: str,
        right_columns: Sequence[str],
        params: Params = (),
        layout: RowLayout = NO_TABLES,
    ) -> None:
        """*layout* covers the tables up to and including this join's."""
        super().__init__(left, right)
        self.alias = alias
        self.condition = condition
        self.kind = kind
        self._right_columns = list(right_columns)
        self._params = params
        self._matches = compile_predicate(condition, params, layout)

    def _produce(self) -> Iterator[list[PipelineRow]]:
        # The right input, materialized once per join.
        right_rows = [row for _rowid, row in chain.from_iterable(self.children[1].batches())]
        null_row = dict.fromkeys(self._right_columns)  # hoisted
        cross = self.kind == "cross"
        left = self.kind == "left"
        matches = self._matches
        for batch in self.children[0].batches():
            out: list[PipelineRow] = []
            for context in batch:
                joined = [context + (row,) for row in right_rows]
                if not cross:
                    joined = list(filter(matches, joined))
                if joined:
                    out.extend(joined)
                elif left:
                    out.append(context + (null_row,))
            if out:
                yield out

    def detail(self) -> str:
        condition = (
            expression_label(self.condition, self._params) if self.condition is not None else "TRUE"
        )
        return f"{self.kind.upper()} {self.alias} ON {condition}"


class HashJoin(Operator):
    """Equi-join fast path: hash the right input once, probe a left batch at a time.

    Only lowered for ``left.col = right.col`` conditions with qualified
    references.  Unknown keys (NULL/MISSING) never match, matching SQL
    three-valued equality; unmatched left rows of a LEFT JOIN get the
    hoisted null row.  The probe is the plan's kernel: one comprehension
    per left batch.
    """

    label = "HashJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        alias: str,
        left_key: ast.ColumnRef,
        right_key_column: str,
        kind: str,
        right_columns: Sequence[str],
        probe: Kernel,
        params: Params = (),
    ) -> None:
        super().__init__(left, right)
        self.alias = alias
        self.left_key = left_key
        self.right_key_column = right_key_column
        self.kind = kind
        self._right_columns = list(right_columns)
        self._probe = probe.bind(params)
        #: Number of buckets in the build-side hash table (for EXPLAIN).
        self.build_rows = 0

    def _produce(self) -> Iterator[list[PipelineRow]]:
        table: dict[Any, list[dict[str, Any]]] = {}
        key_column = self.right_key_column
        for _rowid, row in chain.from_iterable(self.children[1].batches()):
            key = row.get(key_column)
            if key is None or key is MISSING:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
            self.build_rows += 1
        # An unknown key never matches: no bucket holds None or MISSING.
        pad = (dict.fromkeys(self._right_columns),) if self.kind == "left" else ()
        probe = self._probe
        lookup = table.get
        for batch in self.children[0].batches():
            out = probe(batch, lookup, pad)
            if out:
                yield out

    def detail(self) -> str:
        left = (
            f"{self.left_key.table}.{self.left_key.name}"
            if self.left_key.table
            else self.left_key.name
        )
        return f"{self.kind.upper()} {self.alias} ON {left} = {self.alias}.{self.right_key_column}"

    def extra_stats(self) -> list[str]:
        return [f"build={self.build_rows}"]


# ---------------------------------------------------------------------------
# Row-set operators
# ---------------------------------------------------------------------------


class Filter(Operator):
    """Keep pipeline rows whose predicate evaluates to TRUE (unknown drops)."""

    label = "Filter"

    def __init__(
        self,
        child: Operator,
        predicate: ast.Expression,
        kernel: Kernel,
        params: Params = (),
    ) -> None:
        super().__init__(child)
        self.predicate = predicate
        self._params = params
        self._kept = kernel.bind(params)
        self.rows_in = 0

    def _produce(self) -> Iterator[list[PipelineRow]]:
        kept = self._kept
        for batch in self.children[0].batches():
            self.rows_in += len(batch)
            out = kept(batch)
            if out:
                yield out

    def detail(self) -> str:
        return expression_label(self.predicate, self._params)


class Project(Operator):
    """Evaluate the output expressions; yields ``(row_tuple, pipeline_row)``."""

    label = "Project"

    def __init__(
        self,
        child: Operator,
        output: Sequence[OutputColumn],
        kernel: Kernel,
        params: Params = (),
    ) -> None:
        super().__init__(child)
        self.output = tuple(output)
        self._project = kernel.bind(params)

    def _produce(self) -> Iterator[list[tuple[tuple[Any, ...], PipelineRow]]]:
        project = self._project
        for batch in self.children[0].batches():
            yield project(batch)

    def detail(self) -> str:
        return ", ".join(column.name for column in self.output)


class Aggregate(Operator):
    """Blocking GROUP BY/HAVING operator; yields ``(row_tuple, pipeline_row)``.

    One pass folds the input into running accumulators, one per aggregate
    call, and keeps one representative row per group: its first row, or
    for a global aggregate over no input an all-NULL row of *layout*.  The
    pipeline row of a group is its representative plus, when the plan has
    aggregate calls, one more slot holding their values (see
    :attr:`~repro.db.sql.planner.SelectPlan.group_layout`); HAVING and the
    outputs are then evaluated over the groups in first-seen order.
    """

    label = "Aggregate"

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[ast.Expression],
        kernel: AggregateKernel,
        emit: Kernel,
        params: Params = (),
        layout: RowLayout = NO_TABLES,
    ) -> None:
        super().__init__(child)
        self.group_by = tuple(group_by)
        self._params = params
        self._layout = layout
        self._fold, self._start, self._finish = kernel.bind(params)
        self._emit = emit.bind(params)
        self.groups_built = 0

    def _produce(self) -> Iterator[list[tuple[tuple[Any, ...], PipelineRow]]]:
        groups: dict[Any, list[Any]] = {}
        fold = self._fold
        for batch in self.children[0].batches():
            fold(batch, groups)
        if not groups and not self.group_by:
            # A global aggregate always emits one row, even over no input.
            groups[()] = self._start(self._layout.null_row())
        self.groups_built = len(groups)
        out = self._emit([self._finish(state) for state in groups.values()])
        if out:
            yield out

    def detail(self) -> str:
        keys = ", ".join(expression_label(e, self._params) for e in self.group_by) or "<all>"
        return f"BY {keys}"

    def extra_stats(self) -> list[str]:
        return [f"groups={self.groups_built}"]


class Distinct(Operator):
    """Drop duplicate projected rows (first occurrence wins)."""

    label = "Distinct"

    def __init__(self, child: Operator) -> None:
        super().__init__(child)

    def _produce(self) -> Iterator[list[tuple[tuple[Any, ...], PipelineRow]]]:
        seen: set[tuple[Any, ...]] = set()
        for batch in self.children[0].batches():
            out = []
            for row, context in batch:
                key = tuple([hashable_key(value) for value in row])
                if key not in seen:
                    seen.add(key)
                    out.append((row, context))
            if out:
                yield out


#: What a Sort orders: a projected row and its pipeline row.
SortEntry = tuple[tuple[Any, ...], PipelineRow]


class Sort(Operator):
    """Blocking multi-key sort on one precomputed composite key per row.

    Each ORDER BY item contributes ``(unknown, sort_rank(value))``,
    computed once per row, so comparisons never re-rank values.  Unknown
    sort keys (NULL/MISSING) are placed last regardless of sort direction
    (NULLS LAST); known values order through
    :func:`~repro.db.types.sort_rank`, the same total order the ordered
    secondary index uses, with a descending item's rank wrapped in
    :class:`_Descending`.  Rows with equal keys keep their input order.

    With *keep* (a LIMIT directly above: its limit plus offset) the sort is
    a top-N: only the first *keep* rows are ordered and emitted.
    """

    label = "Sort"

    def __init__(
        self,
        child: Operator,
        order_by: Sequence[ast.OrderItem],
        output_names: Sequence[str],
        params: Params = (),
        keep: Optional[int] = None,
        layout: RowLayout = NO_TABLES,
    ) -> None:
        """*layout* is that of the child's pipeline rows (an Aggregate's
        includes its aggregate values)."""
        super().__init__(child)
        self.order_by = tuple(order_by)
        self.keep = keep
        self._output_names = list(output_names)
        self._params = params
        self._layout = layout.with_outputs(self._output_names)
        keys = [self._compile_key(item) for item in self.order_by]

        def composite(entry: SortEntry) -> tuple[tuple[bool, Any], ...]:
            return tuple([key_of(entry) for key_of in keys])

        self._key: Callable[[SortEntry], Any] = keys[0] if len(keys) == 1 else composite

    def _compile_key(self, item: ast.OrderItem) -> Callable[[SortEntry], tuple[bool, Any]]:
        """Compile one ORDER BY item into a per-row ``(unknown, rank)`` key.

        The key expression sees the pipeline row plus the projected row in
        one more slot, whose values are bound by output name (so ``ORDER
        BY alias`` works); a bare reference to an output column reads the
        projected value directly.
        """
        expression = item.expression
        names = self._output_names
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.name in names
        ):
            # The last binding of a name wins, as in the extended context.
            index = len(names) - 1 - names[::-1].index(expression.name)

            def value_of(entry: SortEntry) -> Any:
                return entry[0][index]

        else:
            scalar = compile_expression(expression, self._params, self._layout)

            def value_of(entry: SortEntry) -> Any:
                row, context = entry
                return scalar(context + (row,))

        if item.ascending:

            def key(entry: SortEntry) -> tuple[bool, Any]:
                value = value_of(entry)
                return value is None or value is MISSING, sort_rank(value)

        else:

            def key(entry: SortEntry) -> tuple[bool, Any]:
                value = value_of(entry)
                return value is None or value is MISSING, _Descending(sort_rank(value))

        return key

    def _produce(self) -> Iterator[list[SortEntry]]:
        entries = chain.from_iterable(self.children[0].batches())
        if self.keep is None:
            ordered = sorted(entries, key=self._key)
        else:
            # Specified to equal sorted(...)[:keep], ties included.  It
            # streams: a row that cannot make the top keep is freed at once.
            ordered = heapq.nsmallest(self.keep, entries, key=self._key)
        if ordered:
            yield ordered

    def detail(self) -> str:
        return ", ".join(
            expression_label(item.expression, self._params) + ("" if item.ascending else " DESC")
            for item in self.order_by
        )


class _Descending:
    """A sort-key component that orders its rank in reverse."""

    __slots__ = ("rank",)

    def __init__(self, rank: tuple[Any, ...]) -> None:
        self.rank = rank

    def __lt__(self, other: "_Descending") -> bool:
        return other.rank < self.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.rank == other.rank

    __hash__ = None  # type: ignore[assignment]


class Limit(Operator):
    """OFFSET/LIMIT with early termination.

    Batches are sliced to the window.  Once ``limit`` rows have been
    emitted the operator stops pulling from its child entirely, so an
    un-sorted ``LIMIT k`` query never scans past the batch that holds the
    last row it needs.
    """

    label = "Limit"

    def __init__(self, child: Operator, limit: Optional[int], offset: int = 0) -> None:
        super().__init__(child)
        self.limit = limit
        self.offset = offset

    def _produce(self) -> Iterator[list[Any]]:
        if self.limit == 0:
            return
        skip = self.offset
        remaining = self.limit
        for batch in self.children[0].batches():
            if skip:
                if skip >= len(batch):
                    skip -= len(batch)
                    continue
                batch = batch[skip:]
                skip = 0
            if remaining is not None:
                if len(batch) >= remaining:
                    yield batch[:remaining]
                    return
                remaining -= len(batch)
            yield batch

    def detail(self) -> str:
        if self.limit is None:
            return f"ALL Offset {self.offset}"
        return f"{self.limit}" + (f" Offset {self.offset}" if self.offset else "")


# ---------------------------------------------------------------------------
# Lowering: SelectPlan -> operator tree
# ---------------------------------------------------------------------------


def crowd_attributes_for(plan: SelectPlan, schema: TableSchema, alias: str) -> list[str]:
    """Columns of the table scanned as *alias* that *plan* reads and that
    are crowd-sourced in *schema*.

    Qualified references (``m.is_comedy``) only ever target their own
    alias; unqualified references bind to the single table that has the
    column (the planner rejects ambiguous bare names).  This keeps
    ``CrowdFill`` from spending crowd money on a same-named perceptual
    column of a joined table the query never evaluates.
    """
    alias = alias.lower()
    attributes: list[str] = []
    for qualifier, name in plan.referenced_refs:
        if qualifier is not None and qualifier != alias:
            continue
        if (
            name in schema
            and schema.column(name).kind is AttributeKind.PERCEPTUAL
            and name not in attributes
        ):
            attributes.append(name)
    return sorted(attributes)


def _plan_acquisition(
    catalog: Catalog,
    table: str,
    attributes: Sequence[str],
    session: SessionContext,
) -> tuple[dict[str, SamplePlan], dict[str, frozenset[int]], dict[str, frozenset[int]]]:
    """Choose, per attribute, which MISSING cells the crowd answers.

    Runs at lowering time (under the catalog lock): the acquisition
    candidates are the attribute's MISSING cells plus any previously
    predicted cells whose confidence fell below the policy threshold
    (re-acquisition).  The sample size is the cost model's call
    (:func:`repro.db.acquisition.choose_sample_size`), capped by the
    session's remaining budget — which is apportioned across the query's
    attributes as the plans are built, so the *total* planned crowd spend
    never exceeds it.
    """
    storage = catalog.table(table)
    policy = session.policy
    budget = session.remaining_budget
    plans: dict[str, SamplePlan] = {}
    sample: dict[str, frozenset[int]] = {}
    reacquire: dict[str, frozenset[int]] = {}
    for attribute in attributes:
        candidates = list(storage.missing_rowids(attribute))
        if policy.min_confidence > 0:
            low = storage.low_confidence_rowids(attribute, policy.min_confidence)
            reacquire[attribute] = frozenset(low)
            candidates.extend(low)
        attribute_plan = plan_sample(
            attribute,
            candidates,
            policy,
            budget=budget,
            can_acquire=session.value_source is not None,
        )
        plans[attribute] = attribute_plan
        sample[attribute] = attribute_plan.sample_rowids
        if budget is not None:
            budget = max(
                0.0, budget - attribute_plan.sample_size * policy.crowd_cost_per_value
            )
    return plans, sample, reacquire


def _lower_scan(
    plan: SelectPlan,
    scan: ScanPlan,
    catalog: Catalog,
    session: SessionContext | None,
    access_path: AccessPath | None = None,
    params: Params = (),
) -> Operator:
    """Lower one table scan, stacking acquisition operators as configured.

    The shape depends on the session: bare scan (no value source and no
    predictor), ``scan -> CrowdFill`` (exhaustive crowd-only acquisition),
    ``scan -> PredictFill`` (predict-only) or the hybrid
    ``scan -> CrowdFill(sample) -> PredictFill`` two-stage plan.
    An *access_path* (only ever passed for the driving scan of a
    single-table plan) lowers to an :class:`IndexRangeScan` instead.
    """
    source: Operator
    if access_path is not None:
        source = IndexRangeScan(
            catalog,
            scan.table,
            scan.alias,
            access_path.column,
            access_path.low,
            access_path.high,
            low_inclusive=access_path.low_inclusive,
            high_inclusive=access_path.high_inclusive,
            ordered=access_path.ordered,
            descending=access_path.descending,
            params=params,
        )
        source.est_rows = access_path.est_rows
    else:
        source = SeqScan(catalog, scan.table, scan.alias)
        source.est_rows = len(catalog.table(scan.table))
    if session is None or (session.value_source is None and session.predictor is None):
        return source
    attributes = crowd_attributes_for(plan, catalog.table(scan.table).schema, scan.alias)
    if not attributes:
        return source
    if session.predictor is None:
        # Exhaustive (crowd-only) acquisition: every MISSING cell is asked.
        return CrowdFill(source, catalog, scan.table, attributes, session)
    plans, sample, reacquire = _plan_acquisition(catalog, scan.table, attributes, session)
    if session.value_source is not None:
        source = CrowdFill(
            source,
            catalog,
            scan.table,
            attributes,
            session,
            sample=sample,
            reacquire=reacquire,
        )
    if any(p.predicted_count > 0 for p in plans.values()):
        source = PredictFill(source, catalog, scan.table, attributes, session, plans)
    return source


def lower_select_plan(
    plan: SelectPlan,
    catalog: Catalog,
    *,
    session: SessionContext | None = None,
    hash_joins: bool = True,
    access_path: AccessPath | None = None,
    params: Params = (),
) -> Operator:
    """Lower a logical :class:`SelectPlan` into a physical operator tree.

    Must be called (and the returned tree ``open()``-ed) under the catalog
    lock when the catalog is shared; iteration afterwards is lock-free.

    *session* is the executing connection's
    :class:`~repro.db.connection.SessionContext`: its value source and
    predictor choose the acquisition shape of each scan (see
    :func:`_lower_scan`), and the acquisition operators read its policy
    and charge its budget.  With both a value source and a predictor,
    scans of tables whose referenced perceptual attributes have MISSING
    cells lower to the two-stage hybrid plan
    ``scan -> CrowdFill(sample) -> PredictFill``.

    *access_path* is the planner's index verdict for the driving scan (see
    :meth:`~repro.db.sql.planner.Planner.choose_scan_path`); when it is
    ``ordered`` the index walk already emits rows in ORDER BY order and no
    Sort operator is planted.

    *params* is the execution's ``?`` tuple.  Filter, Project, HashJoin
    and Aggregate run the plan's kernels (:mod:`repro.db.sql.kernels`),
    generated when the plan was built, and pass them *params*; the other
    operators compile their expressions with it.  Either way the cached
    plan itself is never rewritten.
    """
    root: Operator
    layout = plan.layout
    kernels = plan.kernels
    if plan.from_crowd is not None:
        root = Bind(CrowdEnumerate(catalog, plan.from_crowd, session))
    elif plan.scan is None:
        root = SingleRow()
    else:
        source = _lower_scan(plan, plan.scan, catalog, session, access_path, params)
        root = Bind(source)
        left_est = source.est_rows if source.est_rows is not None else 1
        for slot, join in enumerate(plan.joins, start=1):
            right = _lower_scan(plan, join.scan, catalog, session, params=params)
            right_columns = catalog.table(join.scan.table).schema.column_names
            right_est = len(catalog.table(join.scan.table))
            if hash_joins and join.hash_key is not None:
                left_key, right_column = join.hash_key
                root = HashJoin(
                    root,
                    right,
                    join.scan.alias,
                    left_key,
                    right_column,
                    join.kind,
                    right_columns,
                    kernels.probes[slot - 1],
                    params,
                )
                # Equi-join output heuristic: each left row matches about
                # one right group, so the larger input bounds the estimate.
                left_est = max(1, left_est, right_est)
            else:
                root = NestedLoopJoin(
                    root,
                    right,
                    join.scan.alias,
                    join.condition,
                    join.kind,
                    right_columns,
                    params,
                    layout.prefix(slot + 1),
                )
                if join.condition is None:  # cross join: full product
                    left_est = max(1, left_est * right_est)
                else:
                    left_est = max(1, left_est, right_est)
            root.est_rows = left_est

    if plan.where is not None:
        root = Filter(root, plan.where, kernels.where, params)

    if plan.aggregate is not None:
        root = Aggregate(
            root, plan.aggregate.group_by, kernels.aggregate, kernels.emit, params, layout
        )
        layout = plan.group_layout
    else:
        root = Project(root, plan.output, kernels.project, params)

    if plan.distinct:
        root = Distinct(root)

    if plan.order_by and not (access_path is not None and access_path.ordered):
        # An ordered access path already emits rows in ORDER BY order
        # (including NULLS LAST), so the Sort is eliminated.
        root = Sort(
            root,
            plan.order_by,
            [column.name for column in plan.output],
            params,
            # A LIMIT directly above needs only its first limit + offset rows.
            keep=None if plan.limit is None else plan.limit + (plan.offset or 0),
            layout=layout,
        )

    if plan.limit is not None or plan.offset:
        root = Limit(root, plan.limit, plan.offset or 0)

    return root


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------


def describe_operator_tree(root: Operator, *, include_stats: bool = False) -> str:
    """Render the physical operator tree in pipeline order.

    The driving pipeline reads top to bottom (scan first, sink last); the
    build side of a join is indented beneath the join operator.  With
    ``include_stats`` each line carries the operator's runtime counters
    (row counts, hash-build sizes, crowd-batch statistics).
    """
    lines: list[str] = []
    _render(root, lines, 0, include_stats)
    return "\n".join(lines)


def _render(op: Operator, lines: list[str], indent: int, stats: bool) -> None:
    if op.children:
        _render(op.children[0], lines, indent, stats)
    if not op.hidden:
        line = op.render_line()
        if stats:
            line += f"  [{op.stats()}]"
        lines.append("  " * indent + line)
    for child in op.children[1:]:
        _render(child, lines, indent + 1, stats)
