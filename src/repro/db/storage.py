"""Row storage with rowids, ordered indexes and MISSING accounting.

Rows live behind a ``MutableMapping[rowid, Row]``: a plain dict for
in-memory databases, or a :class:`~repro.db.pager.PagedRowMap` that spills
rows to fixed-size pages behind a bounded buffer pool for durable ones —
same interface, so every layer above (operators, crowd fills, schema
expansion) is storage-agnostic.  What matters for the paper's reproduction
is that interface: scans expose which rows still carry
:data:`~repro.db.types.MISSING` values so that the crowd layer and the
schema-expansion layer can target exactly those.

Secondary indexes are :class:`~repro.db.indexes.OrderedIndex` runs —
one index kind serving equality, range predicates and sort elimination —
and every table maintains :class:`~repro.db.stats.TableStats` on the
write path for the cost-based planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, MutableMapping, Protocol

from repro.db.indexes import OrderedIndex
from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.stats import TableStats
from repro.db.types import MISSING, is_missing
from repro.db.wal import encode_row_json
from repro.errors import ExecutionError, IntegrityError, UnknownColumnError

#: A stored row: column name -> value (always contains every schema column).
Row = dict[str, Any]


class RowSnapshot(Protocol):
    """What :meth:`TableStorage.snapshot` returns: captured rows, in batches."""

    def batches(self) -> Iterator[list[tuple[int, Row]]]: ...


@dataclass(frozen=True)
class ValueProvenance:
    """Where a stored cell value came from, and how much it is trusted.

    ``source`` is ``"stored"`` (inserted/updated by the application),
    ``"crowd"`` (acquired from a crowd platform) or ``"predicted"``
    (filled by a perceptual-space model).  ``confidence`` is in ``[0, 1]``;
    predicted cells below a session's ``min_confidence`` threshold are
    re-acquisition candidates for later queries.
    """

    source: str = "stored"
    confidence: float = 1.0


#: Default provenance for values written through the ordinary DML path.
STORED_PROVENANCE = ValueProvenance()


#: Rows per batch of an in-memory scan and of every index-order scan.  A
#: heap-order scan of the paged store passes one page run per batch.
BATCH_ROWS = 64


class _MemorySnapshot:
    """Point-in-time ``(rowid, row)`` pairs over live in-memory rows.

    The pairs are captured at construction; each row is copied as its
    batch is pulled, so a LIMIT stops the copying early.
    """

    def __init__(self, pairs: list[tuple[int, Row]]) -> None:
        self._pairs = pairs

    def batches(self) -> Iterator[list[tuple[int, Row]]]:
        """Yield the rows, copied, :data:`BATCH_ROWS` pairs at a time."""
        pairs = self._pairs
        for start in range(0, len(pairs), BATCH_ROWS):
            chunk = pairs[start : start + BATCH_ROWS]
            try:
                batch = [(rowid, dict(row)) for rowid, row in chunk]
            except RuntimeError:  # pragma: no cover - needs a racing ALTER TABLE
                batch = [(rowid, _copy(row)) for rowid, row in chunk]
            yield batch


def _copy(row: Row) -> Row:
    """Copy a live row, retrying while a concurrent ALTER TABLE resizes it."""
    while True:
        try:
            return dict(row)
        except RuntimeError:  # pragma: no cover - needs a racing ALTER TABLE
            continue


class TableStorage:
    """Row store for a single table.

    *row_map* injects the physical row container: omitted, rows live in a
    plain dict; durable catalogs pass a
    :class:`~repro.db.pager.PagedRowMap` so rows spill to pages instead.
    """

    def __init__(self, schema: TableSchema, *, row_map: MutableMapping[int, Row] | None = None) -> None:
        self.schema = schema
        self._rows: MutableMapping[int, Row] = row_map if row_map is not None else {}
        #: ``store(rowid, row) -> payload`` of a paged row map: writes the
        #: row and returns its encoded bytes, which inserts journal as-is.
        self._store_encoded: Callable[[int, Row], bytes] | None = getattr(row_map, "store", None)
        self._next_rowid = 1
        self._indexes: dict[str, OrderedIndex] = {}
        self._pk_index: OrderedIndex | None = None
        #: Write-maintained statistics feeding the cost-based planner.
        self.stats = TableStats()
        #: column -> {rowid -> ValueProvenance} for cells written by the
        #: acquisition layers; cells without an entry are "stored".
        self._provenance: dict[str, dict[int, ValueProvenance]] = {}
        #: Optional callback invoked after every schema change (column or
        #: index added).  The catalog installs its version bump here so
        #: prepared-statement caches can invalidate stale plans.
        self.on_schema_change: Callable[[], Any] | None = None
        #: Optional callback ``(column, rowid)`` invoked when a direct
        #: UPDATE overwrites a cell.  The catalog forwards it to the
        #: acquisition runtime's cross-query AnswerCache so a stale crowd
        #: answer can never shadow an application-stored value.  Writes by
        #: the acquisition layers (:meth:`fill_values`) do *not* fire it:
        #: the written value is the cached value.
        self.on_cell_invalidated: Callable[[str, int], Any] | None = None
        self._suppress_invalidation = False
        #: Optional write-ahead journal (duck-typed as
        #: :class:`~repro.db.durability.TableJournal`).  When a catalog is
        #: durable it installs one here; every mutation is then logged
        #: *before* the statement is acknowledged.  ``fill_values``
        #: suppresses the per-row update records and logs one batched
        #: ``fill`` record carrying provenance and confidences instead.
        self.journal: Any = None
        self._suppress_journal = False
        if schema.primary_key is not None:
            self._pk_index = self.create_index(schema.primary_key)

    # -- index management ---------------------------------------------------

    def create_index(self, column_name: str) -> OrderedIndex:
        """Create (or return an existing) ordered index on *column_name*."""
        key = column_name.lower()
        if key not in self.schema:
            raise UnknownColumnError(column_name, self.schema.name)
        if key in self._indexes:
            return self._indexes[key]
        index = OrderedIndex(key)
        index.build((rowid, row.get(key)) for rowid, row in self._rows.items())
        self._indexes[key] = index
        if self.journal is not None:
            self.journal.index_created(key)
        self._notify_schema_change()
        return index

    def index_on(self, column_name: str) -> OrderedIndex | None:
        """Return the index on *column_name* if one exists."""
        return self._indexes.get(column_name.lower())

    def index_columns(self) -> list[str]:
        """Names of all indexed columns (snapshot serialization)."""
        return list(self._indexes)

    # -- basic row operations -----------------------------------------------

    def insert(self, values: dict[str, Any]) -> int:
        """Insert a row (validated against the schema) and return its rowid."""
        row = self.schema.normalise_row(values)
        if self._pk_index is not None:
            pk = self.schema.primary_key
            value = row.get(pk)
            if value is None or is_missing(value):
                raise IntegrityError(
                    f"primary key {pk!r} of table {self.schema.name!r} must not be NULL"
                )
            if self._pk_index.lookup(value):
                raise IntegrityError(
                    f"duplicate primary key {value!r} in table {self.schema.name!r}"
                )
        rowid = self._next_rowid
        self._next_rowid += 1
        payload = None
        if self._store_encoded is not None:
            payload = self._store_encoded(rowid, row)
        else:
            self._rows[rowid] = row
        for index in self._indexes.values():
            index.add(rowid, row.get(index.column))
        self.stats.observe_row(row)
        if self.journal is not None and not self._suppress_journal:
            self.journal.row_inserted(rowid, row, payload)
        return rowid

    # -- recovery support -----------------------------------------------------

    @property
    def next_rowid(self) -> int:
        """The rowid the next insert will receive (the high-water mark)."""
        return self._next_rowid

    def advance_rowid(self, minimum: int) -> None:
        """Ensure the next insert's rowid is at least *minimum*.

        Rowids are monotone per table *name*, across restarts and across
        ``DROP TABLE``/re-``CREATE`` (the catalog carries the watermark of
        dropped tables forward) — a recovered or recreated table never
        reuses a rowid, so stale references (cached crowd answers, logged
        provenance) can never alias a new row.
        """
        if minimum > self._next_rowid:
            self._next_rowid = minimum

    def restore_row(self, rowid: int, row: Row, *, observe: bool = True) -> None:
        """Place an already-normalized row at an explicit rowid.

        The recovery path (snapshot restore and WAL ``insert`` replay):
        rows were validated when first inserted, so constraints are not
        re-checked, but indexes are maintained and the rowid high-water
        mark advances past *rowid*.  Restoring over an existing rowid
        replaces the row cleanly (replay is idempotent at the record
        level; this keeps the operation itself idempotent too).  With
        ``observe=False`` the statistics are left alone: a snapshot restore
        loads the checkpointed statistics afterwards instead.
        """
        existing = self._rows.get(rowid) if rowid in self._rows else None
        for index in self._indexes.values():
            if existing is not None:
                index.remove(rowid, existing.get(index.column))
            index.add(rowid, row.get(index.column))
        self._rows[rowid] = row
        if observe:
            if existing is not None:
                self.stats.forget_row()
            self.stats.observe_row(row)
        self.advance_rowid(rowid + 1)

    def set_provenance(
        self, column_name: str, rowid: int, provenance: ValueProvenance
    ) -> None:
        """Record one cell's provenance directly (snapshot restore path)."""
        column = self.schema.column(column_name)
        self._provenance.setdefault(column.name, {})[rowid] = provenance

    def get(self, rowid: int) -> Row:
        """Return the row stored under *rowid*."""
        try:
            return self._rows[rowid]
        except KeyError as exc:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.schema.name!r}"
            ) from exc

    def delete(self, rowid: int) -> None:
        """Delete the row stored under *rowid*.

        Rowids are never reused, so cached crowd answers for the deleted
        row could not poison later rows — but they would squat in the
        answer cache's LRU forever, so the perceptual cells (the only
        ones the crowd layer caches) are invalidated eagerly.
        """
        row = self.get(rowid)
        for index in self._indexes.values():
            index.remove(rowid, row.get(index.column))
        for entries in self._provenance.values():
            entries.pop(rowid, None)
        if self.on_cell_invalidated is not None:
            for name in self.schema.column_names:
                if self.schema.column(name).kind is AttributeKind.PERCEPTUAL:
                    self.on_cell_invalidated(name, rowid)
        del self._rows[rowid]
        self.stats.forget_row()
        if self.journal is not None and not self._suppress_journal:
            self.journal.row_deleted(rowid)

    def update(self, rowid: int, changes: dict[str, Any]) -> Row:
        """Apply *changes* (column -> new value) to the row at *rowid*.

        A direct update makes the cell an application-stored value again:
        any crowd/predicted provenance recorded for it is cleared.
        """
        row = self.get(rowid)
        for name, value in changes.items():
            column = self.schema.column(name)
            coerced = column.coerce(value)
            if coerced is None and not column.nullable:
                raise IntegrityError(
                    f"column {column.name!r} of table {self.schema.name!r} is NOT NULL"
                )
            index = self._indexes.get(column.name)
            if index is not None:
                index.remove(rowid, row.get(column.name))
                index.add(rowid, coerced)
            row[column.name] = coerced
            # Write the row back column by column: a no-op for the
            # in-memory dict (same object), but the paged row map only
            # persists on assignment — and per-column write-back keeps
            # the partial-failure semantics identical in both stores.
            self._rows[rowid] = row
            self.stats.observe_value(column.name, coerced)
            entries = self._provenance.get(column.name)
            if entries is not None:
                entries.pop(rowid, None)
            # Journal column-by-column, mirroring the in-memory semantics
            # exactly: a NOT NULL failure on a later column leaves the
            # earlier assignments applied — and logged.
            if self.journal is not None and not self._suppress_journal:
                self.journal.row_updated(rowid, {column.name: coerced})
            if self.on_cell_invalidated is not None and not self._suppress_invalidation:
                self.on_cell_invalidated(column.name, rowid)
        return row

    # -- scans ----------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(rowid, row)`` pairs in insertion order.

        The paged store reads a page at a time from a directory captured
        when the scan starts (:meth:`~repro.db.pager.PagedRowMap.items`).
        """
        yield from self._rows.items()

    def snapshot(self, rowids: Iterable[int] | None = None) -> RowSnapshot:
        """Return a point-in-time snapshot of ``(rowid, row)`` pairs.

        Every row, in insertion order, or the rows of *rowids* in their
        order.  Only the *membership* is captured here (later
        inserts/deletes do not change it): rows materialize a batch at a
        time as the snapshot's ``batches()`` are pulled, so a LIMIT stops
        the work early and a million-row table is never materialized
        whole.

        Each row is the caller's own, copied at most once: the in-memory
        store's rows are live dicts that :meth:`update` mutates in place,
        so they are copied as their batch is pulled (:data:`BATCH_ROWS`
        at a time); the paged store captures the directory entries and
        the ADD COLUMN fills, then decodes a fresh dict per row, one page
        run per batch in heap order or :data:`BATCH_ROWS` rows per batch
        in the order of *rowids*.  The scan operators pass these rows on
        without copying again.
        """
        try:
            if not isinstance(self._rows, dict):
                return self._rows.snapshot(  # type: ignore[attr-defined]
                    rowids, None if rowids is None else BATCH_ROWS
                )
            if rowids is None:
                return _MemorySnapshot(list(self._rows.items()))
            rows = self._rows
            return _MemorySnapshot([(rowid, rows[rowid]) for rowid in rowids])
        except KeyError as exc:
            raise ExecutionError(
                f"rowid {exc.args[0]} not found in table {self.schema.name!r}"
            ) from exc

    def encoded_rows(self) -> Iterable[tuple[int, bytes]]:
        """``(rowid, payload)`` pairs in insertion order, for checkpoints.

        Each payload is :func:`~repro.db.wal.encode_row_json` of the row.
        The paged store returns the bytes it already holds.
        """
        encoded = getattr(self._rows, "encoded_rows", None)
        if encoded is not None:
            return encoded()
        return ((rowid, encode_row_json(row)) for rowid, row in self._rows.items())

    def rows(self) -> list[Row]:
        """Return a list of copies of all rows (insertion order)."""
        return [dict(row) for _rowid, row in self._rows.items()]

    def rowids(self) -> list[int]:
        """Return all rowids in insertion order."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # -- statistics ------------------------------------------------------------

    def analyze(self) -> None:
        """Rebuild this table's planner statistics (with histograms)."""
        self.stats.analyze(row for _rowid, row in self._rows.items())

    # -- schema evolution -----------------------------------------------------

    def add_column(self, column: Column, fill_value: Any = MISSING) -> None:
        """Add *column* to the schema and initialise existing rows.

        Newly added perceptual columns are filled with MISSING so the
        expansion machinery can discover which values still need to be
        obtained.
        """
        self.schema.add_column(column)
        value = column.coerce(fill_value) if not is_missing(fill_value) else fill_value
        add_fill = getattr(self._rows, "add_column_fill", None)
        if add_fill is not None:
            # Paged rows: record a decode-time fill instead of rewriting
            # every stored record — O(1) regardless of table size.
            add_fill(column.name, value)
        else:
            for row in self._rows.values():
                row[column.name] = value
        if self.journal is not None and not self._suppress_journal:
            self.journal.column_added(column, value)
        self._notify_schema_change()

    def _notify_schema_change(self) -> None:
        if self.on_schema_change is not None:
            self.on_schema_change()

    # -- missing-value accounting ---------------------------------------------

    def missing_rowids(self, column_name: str) -> list[int]:
        """Rowids whose value for *column_name* is MISSING."""
        key = self.schema.column(column_name).name
        return [rowid for rowid, row in self._rows.items() if is_missing(row.get(key))]

    def fill_values(
        self,
        column_name: str,
        values: dict[int, Any],
        *,
        skip_deleted: bool = False,
        provenance: str | None = None,
        confidences: dict[int, float] | None = None,
    ) -> int:
        """Fill *column_name* for the given ``rowid -> value`` mapping.

        Returns the number of rows updated.  Used by the crowd and
        perceptual-space layers to write obtained judgments back.  With
        ``skip_deleted`` rowids that no longer exist are silently dropped
        (a concurrent session may delete rows while crowd values are being
        obtained); otherwise a stale rowid raises :class:`ExecutionError`.

        When *provenance* is given (``"crowd"`` / ``"predicted"``) each
        written cell is tagged with it, together with its per-value
        confidence from *confidences* (default 1.0), so later queries can
        distinguish acquired from stored data and re-acquire
        low-confidence predictions.
        """
        column = self.schema.column(column_name)
        confidences = confidences or {}
        updated = 0
        written: dict[int, Any] = {}
        # Acquisition write-backs must not fire cell invalidations: the
        # value being persisted is exactly the value the runtime cached, so
        # evicting it would only forfeit valid cache entries.  (Callers
        # hold the catalog lock on shared catalogs, so the flag is not
        # racing other writers.)  The journal is suppressed for the same
        # span: instead of one update record per row, the whole batch is
        # logged below as a single ``fill`` record that also carries the
        # provenance and confidences a plain update would lose.
        self._suppress_invalidation = True
        self._suppress_journal = True
        try:
            for rowid, value in values.items():
                if skip_deleted and rowid not in self._rows:
                    continue
                self.update(rowid, {column.name: value})
                if provenance is not None:
                    self._provenance.setdefault(column.name, {})[rowid] = ValueProvenance(
                        source=provenance,
                        confidence=float(confidences.get(rowid, 1.0)),
                    )
                written[rowid] = value
                updated += 1
        finally:
            self._suppress_invalidation = False
            self._suppress_journal = False
            # Logged in the finally so a fill that errors part-way still
            # journals the rows it did apply (memory and WAL stay equal).
            if written and self.journal is not None:
                self.journal.values_filled(
                    column.name,
                    written,
                    provenance,
                    {rowid: float(confidences.get(rowid, 1.0)) for rowid in written},
                )
        return updated

    # -- provenance accounting -------------------------------------------------

    def provenance_of(self, column_name: str, rowid: int) -> ValueProvenance:
        """Provenance of one cell (application-stored by default)."""
        column = self.schema.column(column_name)
        self.get(rowid)  # raises on unknown rowid
        return self._provenance.get(column.name, {}).get(rowid, STORED_PROVENANCE)

    def provenance_map(self, column_name: str) -> dict[int, ValueProvenance]:
        """``rowid -> ValueProvenance`` for every non-stored cell of a column."""
        column = self.schema.column(column_name)
        return dict(self._provenance.get(column.name, {}))

    def provenance_counts(self, column_name: str) -> dict[str, int]:
        """Histogram of provenance sources over all rows of a column.

        A MISSING cell has no value whose origin could be counted; it
        counts as ``"missing"``.
        """
        column = self.schema.column(column_name)
        entries = self._provenance.get(column.name, {})
        counts: dict[str, int] = {}
        for rowid, row in self._rows.items():
            if is_missing(row.get(column.name)):
                source = "missing"
            else:
                source = entries.get(rowid, STORED_PROVENANCE).source
            counts[source] = counts.get(source, 0) + 1
        return counts

    def low_confidence_rowids(self, column_name: str, threshold: float) -> list[int]:
        """Rowids whose acquired value falls below the confidence threshold.

        These are the re-acquisition candidates: cells filled by a model —
        or by an accuracy-weighted crowd vote whose posterior stayed low —
        with a confidence the session no longer accepts.  Crowd cells
        written without an explicit confidence default to 1.0 and are
        never re-acquired.
        """
        column = self.schema.column(column_name)
        entries = self._provenance.get(column.name, {})
        return sorted(
            rowid
            for rowid, entry in entries.items()
            if rowid in self._rows
            and entry.source in ("predicted", "crowd")
            and entry.confidence < threshold
        )
