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
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro.db.schema import TableSchema
from repro.db.storage import TableStorage
from repro.errors import DuplicateTableError, ExecutionError, UnknownTableError

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
        #: The catalog's one acquisition runtime (installed or created on
        #: first use; see :meth:`acquisition_runtime`).
        self._runtime: "AcquisitionRuntime | None" = None
        #: The durability manager of a persistent catalog (None in memory).
        #: Installed by :meth:`attach_durability` after recovery completes.
        self.durability: "DurabilityManager | None" = None
        #: Monotone per-table-name rowid high-water marks.  Recorded when a
        #: table is dropped and applied when a table of the same name is
        #: created, so recreated (and recovered) tables never reuse rowids.
        self._rowid_watermarks: dict[str, int] = {}
        #: Crowd answers recovered from persisted provenance, waiting to warm
        #: the runtime's AnswerCache when it is installed.
        self._warm_answers: dict[tuple[str, str, int], Any] = {}
        #: Open-world enumeration batches: ``(attribute, batch) -> answers``.
        #: Journaled on durable catalogs so a restarted process replays
        #: repeat enumerations from the answer cache at zero platform calls.
        self._enum_answers: dict[tuple[str, int], list[Any]] = {}
        #: Per-worker accuracy evidence: ``worker_id -> (correct, incorrect)``
        #: absolute observation totals.  Journaled on durable catalogs and
        #: used to warm-start the runtime's worker-quality tracker, so a
        #: restarted process weights votes with everything it already paid
        #: to learn about its workers.
        self._worker_stats: dict[int, tuple[float, float]] = {}
        #: Builds the storage of newly created tables.  Durable catalogs
        #: install a factory that injects a paged row map (the shared
        #: buffer pool of :class:`~repro.db.pager.Pager`); None means
        #: plain in-memory rows.  Must be set *before* recovery replays
        #: ``create_table`` records.
        self.storage_factory: Callable[[TableSchema], TableStorage] | None = None

    # -- acquisition runtime ------------------------------------------------------

    def acquisition_runtime(self) -> "AcquisitionRuntime":
        """Return the catalog's one :class:`~repro.crowd.runtime.AcquisitionRuntime`.

        Every connection of the catalog dispatches through this instance —
        which is what makes answer caching, in-flight request coalescing
        and worker-quality evidence work *across* connections, not just
        within one.  A default runtime is created on first use unless
        :meth:`set_acquisition_runtime` installed a configured one before.
        """
        runtime = self._runtime
        if runtime is not None:
            return runtime
        from repro.crowd.runtime import AcquisitionRuntime  # lazy: crowd imports db

        with self.lock:
            if self._runtime is None:
                self._install_runtime(AcquisitionRuntime())
            return self._runtime

    def set_acquisition_runtime(self, runtime: "AcquisitionRuntime") -> None:
        """Install a configured runtime (worker pool, cache size, TTL, clock).

        Must happen before the catalog's first crowd query: once a runtime
        exists it owns cached answers and in-flight work, so replacing it
        raises :class:`~repro.errors.ExecutionError` and leaves it in place.
        """
        with self.lock:
            if self._runtime is not None:
                raise ExecutionError(
                    "the catalog's acquisition runtime is already in use; "
                    "install a configured runtime before the first crowd query"
                )
            self._install_runtime(runtime)

    def _install_runtime(self, runtime: "AcquisitionRuntime") -> None:
        """Warm-start *runtime* and make it the catalog's runtime.

        Crowd answers and worker stats recovered from a durable catalog are
        loaded into its :class:`~repro.crowd.runtime.AnswerCache` and
        worker-quality tracker, so a restarted process serves repeat crowd
        queries with zero platform calls; new worker evidence is journaled
        through :meth:`record_worker_stats`.  Callers hold ``self.lock``.
        """
        for (table, column, rowid), value in self._warm_answers.items():
            runtime.cache.put(table, column, rowid, value)
        self._warm_answers = {}
        if self._worker_stats:
            runtime.worker_quality.load_totals(dict(self._worker_stats))
        runtime.worker_quality.journal = self.record_worker_stats
        self._runtime = runtime

    def set_warm_answers(self, answers: Mapping[tuple[str, str, int], Any]) -> None:
        """Install the recovered crowd answers that warm the runtime."""
        with self.lock:
            self._warm_answers = dict(answers)

    def _invalidate_cell(self, table: str, column: str, rowid: int) -> None:
        self._warm_answers.pop((table, column, rowid), None)
        if self._runtime is not None:
            self._runtime.cache.invalidate(table, column, rowid)

    def _invalidate_table(self, table: str) -> None:
        self._warm_answers = {
            key: value for key, value in self._warm_answers.items() if key[0] != table
        }
        if self._runtime is not None:
            self._runtime.cache.invalidate_table(table)

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
        idempotent.  Installed as the journal hook of the catalog runtime's
        :class:`~repro.crowd.worker_quality.WorkerQualityTracker`.
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
