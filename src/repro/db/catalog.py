"""Database catalog: the collection of tables known to a database instance.

A catalog can be shared between several :class:`~repro.db.connection.Connection`
objects (the multi-tenant setup of the connection API), so it carries

* a re-entrant ``lock`` that connections hold while executing statements
  against the shared tables, and
* a monotonically increasing schema ``version`` that is bumped by every DDL
  change (table created/dropped, column added, index created).  Prepared
  statement caches use the version to invalidate stale query plans.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro.db.schema import TableSchema
from repro.db.storage import TableStorage
from repro.errors import DuplicateTableError, UnknownTableError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (crowd imports db)
    from repro.crowd.runtime import AcquisitionRuntime
    from repro.db.durability import DurabilityManager


class Catalog:
    """Maps table names to their storage objects."""

    def __init__(self) -> None:
        self._tables: dict[str, TableStorage] = {}
        self._version = 0
        #: Guards reads and writes when the catalog is shared by connections.
        self.lock = threading.RLock()
        #: The catalog-shared acquisition runtime (created lazily) plus any
        #: session-private runtimes that registered for cell invalidations.
        #: Weakly referenced: a session dropping its private runtime must
        #: not pin its cache and worker pool for the catalog's lifetime.
        self._runtime: "AcquisitionRuntime | None" = None
        self._runtimes: "weakref.WeakSet[AcquisitionRuntime]" = weakref.WeakSet()
        #: The durability manager of a persistent catalog (None in memory).
        #: Installed by :meth:`attach_durability` after recovery completes.
        self.durability: "DurabilityManager | None" = None
        #: Monotone per-table-name rowid high-water marks.  Recorded when a
        #: table is dropped and applied when a table of the same name is
        #: created, so recreated (and recovered) tables never reuse rowids.
        self._rowid_watermarks: dict[str, int] = {}
        #: Crowd answers recovered from persisted provenance, used to warm
        #: the AnswerCache of every runtime that registers afterwards.
        self._warm_answers: dict[tuple[str, str, int], Any] = {}
        #: Open-world enumeration batches: ``(attribute, batch) -> answers``.
        #: Journaled on durable catalogs so a restarted process replays
        #: repeat enumerations from the answer cache at zero platform calls.
        self._enum_answers: dict[tuple[str, int], list[Any]] = {}
        #: Per-worker accuracy evidence: ``worker_id -> (correct, incorrect)``
        #: absolute observation totals.  Journaled on durable catalogs and
        #: used to warm-start the worker-quality tracker of every runtime
        #: that registers, so a restarted process weights votes with
        #: everything it already paid to learn about its workers.
        self._worker_stats: dict[int, tuple[float, float]] = {}
        #: Builds the storage of newly created tables.  Durable catalogs
        #: install a factory that injects a paged row map (the shared
        #: buffer pool of :class:`~repro.db.pager.Pager`); None means
        #: plain in-memory rows.  Must be set *before* recovery replays
        #: ``create_table`` records.
        self.storage_factory: Callable[[TableSchema], TableStorage] | None = None

    # -- acquisition runtime ------------------------------------------------------

    def acquisition_runtime(self, **knobs) -> "AcquisitionRuntime":
        """Return the catalog's shared :class:`~repro.crowd.runtime.AcquisitionRuntime`.

        Created on first call with the given knobs (``max_concurrent_batches``,
        ``cache_size``, ``cache_ttl_seconds``); later callers share the same
        instance — which is what makes answer caching and in-flight request
        coalescing work *across* connections, not just within one — and
        their knobs are ignored.  A session wanting different knobs installs
        its own runtime via
        :attr:`~repro.db.connection.SessionContext.runtime`.
        """
        from repro.crowd.runtime import AcquisitionRuntime  # lazy: crowd imports db

        with self.lock:
            if self._runtime is None:
                self._runtime = AcquisitionRuntime(**knobs)
                # Only the catalog-shared runtime journals worker evidence:
                # session-private runtimes are read-only consumers of the
                # persisted stats (they warm-start on register_runtime).
                self._runtime.worker_quality.journal = self.record_worker_stats
                self.register_runtime(self._runtime)
            return self._runtime

    def register_runtime(self, runtime: "AcquisitionRuntime") -> None:
        """Subscribe *runtime* to this catalog's cell invalidations.

        Direct UPDATEs (and DROP TABLE) on cached cells must evict the
        corresponding :class:`~repro.crowd.runtime.AnswerCache` entries of
        every runtime observing this catalog, including session-private
        runtimes that bypass :meth:`acquisition_runtime`.

        A runtime registering for the first time on a *recovered* catalog
        is warm-started: crowd answers reloaded from persisted provenance
        are inserted into its :class:`~repro.crowd.runtime.AnswerCache`,
        so a restarted process serves repeat crowd queries with zero
        platform calls.
        """
        with self.lock:
            if runtime in self._runtimes:
                return
            self._runtimes.add(runtime)
            for (table, column, rowid), value in self._warm_answers.items():
                runtime.cache.put(table, column, rowid, value)
            warm_stats = dict(self._worker_stats)
        tracker = getattr(runtime, "worker_quality", None)
        if tracker is not None and warm_stats:
            tracker.load_totals(warm_stats)

    def set_warm_answers(self, answers: Mapping[tuple[str, str, int], Any]) -> None:
        """Install the recovered crowd answers used to warm new runtimes."""
        with self.lock:
            self._warm_answers = dict(answers)

    def _invalidate_cell(self, table: str, column: str, rowid: int) -> None:
        self._warm_answers.pop((table, column, rowid), None)
        for runtime in list(self._runtimes):
            runtime.cache.invalidate(table, column, rowid)

    def _invalidate_table(self, table: str) -> None:
        self._warm_answers = {
            key: value for key, value in self._warm_answers.items() if key[0] != table
        }
        for runtime in list(self._runtimes):
            runtime.cache.invalidate_table(table)

    @property
    def version(self) -> int:
        """Schema version; changes whenever a DDL statement alters the catalog."""
        return self._version

    def bump_version(self) -> int:
        """Record a schema change and return the new version."""
        self._version += 1
        return self._version

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> TableStorage:
        """Create a table for *schema* and return its storage.

        A table that reuses the name of a previously dropped one continues
        that table's rowid sequence (the recorded high-water mark) instead
        of restarting at 1 — rowids are never reused across incarnations.
        """
        key = schema.name
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise DuplicateTableError(schema.name)
        if self.storage_factory is not None:
            storage = self.storage_factory(schema)
        else:
            storage = TableStorage(schema)
        storage.on_schema_change = self.bump_version
        storage.on_cell_invalidated = (
            lambda column, rowid, table=schema.name: self._invalidate_cell(
                table, column, rowid
            )
        )
        watermark = self._rowid_watermarks.get(key)
        if watermark is not None:
            storage.advance_rowid(watermark)
        self._tables[key] = storage
        if self.durability is not None:
            storage.journal = self.durability.journal_for(storage)
            self.durability.log_create_table(storage)
        self.bump_version()
        return storage

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        """Remove the table *name* from the catalog."""
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise UnknownTableError(name)
        storage = self._tables[key]
        # Carry the rowid high-water mark forward: a re-created table of
        # the same name continues the sequence instead of reusing rowids.
        self.record_rowid_watermark(key, storage.next_rowid)
        storage.on_schema_change = None
        storage.on_cell_invalidated = None
        storage.journal = None
        del self._tables[key]
        # Even though rowids are never reused, dead entries must not squat
        # in the answer caches' LRU capacity.
        self._invalidate_table(key)
        if self.durability is not None:
            self.durability.log_drop_table(key)
        self.bump_version()

    # -- durability ---------------------------------------------------------------

    def attach_durability(self, manager: "DurabilityManager") -> None:
        """Attach *manager* after recovery: journal every future mutation.

        Existing tables (restored from snapshot + WAL) get their journals
        installed without re-logging their creation — they are already on
        disk; only mutations from here on append records.
        """
        with self.lock:
            self.durability = manager
            for storage in self._tables.values():
                storage.journal = manager.journal_for(storage)

    def record_enum_answers(
        self, attribute: str, batch: int, values: Sequence[Any]
    ) -> None:
        """Store one *dispatched* enumeration batch; journaled when durable.

        The WAL append happens outside the catalog lock — it may fsync
        under ``synchronous=full`` and must never block other sessions.
        """
        with self.lock:
            self._enum_answers[(attribute, int(batch))] = list(values)
            durability = self.durability
        if durability is not None:
            durability.log_enum_answers(attribute, batch, values)

    def restore_enum_answers(
        self, attribute: str, batch: int, values: Sequence[Any]
    ) -> None:
        """Recovery-path setter: store a replayed batch without journaling."""
        with self.lock:
            self._enum_answers[(attribute, int(batch))] = list(values)

    def enum_answers(self) -> dict[tuple[str, int], list[Any]]:
        """Snapshot of the recorded enumeration batches."""
        with self.lock:
            return {key: list(values) for key, values in self._enum_answers.items()}

    def record_worker_stats(self, totals: Mapping[int, tuple[float, float]]) -> None:
        """Store per-worker accuracy totals; journaled when durable.

        *totals* carries **absolute** ``(correct, incorrect)`` observation
        counts per worker (last write wins), which makes WAL replay
        idempotent.  Installed as the journal hook of the catalog-shared
        runtime's :class:`~repro.crowd.worker_quality.WorkerQualityTracker`.
        Like :meth:`record_enum_answers`, the WAL append happens outside
        the catalog lock — it may fsync and must never block other
        sessions.
        """
        with self.lock:
            for worker_id, (correct, incorrect) in totals.items():
                self._worker_stats[int(worker_id)] = (float(correct), float(incorrect))
            durability = self.durability
        if durability is not None:
            durability.log_worker_stats(totals)

    def restore_worker_stats(self, totals: Mapping[int, tuple[float, float]]) -> None:
        """Recovery-path setter: store replayed totals without journaling."""
        with self.lock:
            for worker_id, (correct, incorrect) in totals.items():
                self._worker_stats[int(worker_id)] = (float(correct), float(incorrect))

    def worker_stats(self) -> dict[int, tuple[float, float]]:
        """Snapshot of the recorded per-worker observation totals."""
        with self.lock:
            return dict(self._worker_stats)

    def rowid_watermarks(self) -> dict[str, int]:
        """Per-table-name rowid high-water marks of *dropped* tables."""
        return dict(self._rowid_watermarks)

    def record_rowid_watermark(self, name: str, watermark: int) -> None:
        """Record (monotonically) the rowid high-water mark for *name*."""
        key = name.lower()
        if watermark > self._rowid_watermarks.get(key, 0):
            self._rowid_watermarks[key] = watermark

    def table(self, name: str) -> TableStorage:
        """Return the storage of table *name* or raise UnknownTableError."""
        key = name.lower()
        if key not in self._tables:
            raise UnknownTableError(name)
        return self._tables[key]

    def table_names(self) -> list[str]:
        """Names of all tables in creation order."""
        return list(self._tables)

    def __iter__(self) -> Iterator[TableStorage]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
