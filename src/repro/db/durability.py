"""Durability manager: recovery, journaling and checkpointing for a catalog.

``repro.connect(path=...)`` opens (or creates) a *database directory*::

    <path>/
        LOCK           advisory lock: one process opens a directory at a time
        snapshot.json  last checkpoint (see :mod:`repro.db.snapshot`)
        wal.log        append-only record log (see :mod:`repro.db.wal`)
        pages.dat      paged row heap (see :mod:`repro.db.pager`)

``pages.dat`` is a *rebuildable spill file*, not a durability artifact: it
is truncated at open and repopulated while recovery replays the snapshot
and WAL, so only the bounded buffer pool — never the full table — lives
in process memory, while the crash story stays exactly snapshot + WAL.

Opening recovers the catalog as **snapshot + WAL tail**: the snapshot is
restored first, then every WAL record with ``lsn > snapshot.last_lsn`` is
replayed in order (older records are skipped, which makes replay
idempotent), after truncating any torn final record the last crash left
behind.  Once recovered, the manager attaches itself to the catalog: every
table gets a :class:`TableJournal` that logs inserts, updates, deletes,
schema expansion and crowd ``fill_values`` write-backs (with provenance
and confidence) before they are acknowledged, and the catalog logs DDL.

Checkpoints (manual via ``PRAGMA wal_checkpoint`` /
:meth:`DurabilityManager.checkpoint`, or automatic every
``checkpoint_interval`` records) publish a fresh snapshot atomically and
truncate the log, bounding both recovery time and disk usage.

Crowd answers recovered from provenance are handed to the catalog as
*warm answers*: the catalog's :class:`~repro.crowd.runtime.AcquisitionRuntime`
has its :class:`~repro.crowd.runtime.AnswerCache` pre-populated when it is
installed, so a restarted process serves repeat crowd queries with zero
platform calls even for sessions that do not write values back.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.crowd.estimation import ENUMERATION_TABLE
from repro.db.catalog import Catalog
from repro.db.pager import DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES, Pager
from repro.db.schema import Column
from repro.db.snapshot import (
    column_from_state,
    column_state,
    load_snapshot,
    restore_catalog,
    schema_from_state,
    schema_state,
    write_snapshot,
)
from repro.db.storage import TableStorage
from repro.db.types import is_missing
from repro.db.wal import (
    EncodedJSON,
    WriteAheadLog,
    decode_cells,
    decode_row,
    decode_value,
    encode_cells,
    encode_row,
    encode_row_json,
    encode_value,
    max_lsn,
    scan_wal,
    validate_synchronous,
)
from repro.errors import ExecutionError, PersistenceError

try:  # pragma: no cover - fcntl exists on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no advisory lock
    fcntl = None  # type: ignore[assignment]

__all__ = ["DurabilityManager", "TableJournal"]

#: File names inside a database directory.
WAL_NAME = "wal.log"
LOCK_NAME = "LOCK"
PAGES_NAME = "pages.dat"

#: Records appended between automatic checkpoints (None disables them).
DEFAULT_CHECKPOINT_INTERVAL = 1000


class TableJournal:
    """Per-table write-ahead journal installed on a :class:`TableStorage`.

    The storage layer calls these hooks synchronously, under the catalog
    lock, right after applying each mutation in memory — so the WAL record
    is on disk (per the ``synchronous`` policy) before the statement is
    acknowledged to the client.
    """

    __slots__ = ("_manager", "_table")

    def __init__(self, manager: "DurabilityManager", table: str) -> None:
        self._manager = manager
        self._table = table

    def row_inserted(self, rowid: int, row: dict[str, Any], payload: bytes | None) -> None:
        """Log an insert; *payload* is the row's stored encoding, if any."""
        if payload is None:
            payload = encode_row_json(row)
        self._manager.append(
            "insert",
            {"table": self._table, "rowid": rowid, "row": EncodedJSON(encode_row(row), payload)},
        )

    def row_updated(self, rowid: int, changes: dict[str, Any]) -> None:
        self._manager.append(
            "update",
            {"table": self._table, "rowid": rowid, "changes": encode_row(changes)},
        )

    def row_deleted(self, rowid: int) -> None:
        self._manager.append("delete", {"table": self._table, "rowid": rowid})

    def values_filled(
        self,
        column: str,
        values: dict[int, Any],
        provenance: str | None,
        confidences: dict[int, float],
    ) -> None:
        self._manager.append(
            "fill",
            {
                "table": self._table,
                "column": column,
                "values": encode_cells(values),
                "provenance": provenance,
                "confidences": {str(rowid): conf for rowid, conf in confidences.items()},
            },
        )

    def column_added(self, column: Column, fill_value: Any) -> None:
        self._manager.append(
            "add_column",
            {
                "table": self._table,
                "column": column_state(column),
                "fill": encode_value(fill_value),
            },
        )

    def index_created(self, column: str) -> None:
        self._manager.append("create_index", {"table": self._table, "column": column})


class DurabilityManager:
    """Owns one database directory: its WAL, snapshots and recovery state.

    Parameters
    ----------
    path:
        Database directory (created if absent).
    synchronous:
        WAL fsync policy: ``"full"`` (per record), ``"normal"`` (group
        commit, the default) or ``"off"`` — adjustable at runtime via
        ``PRAGMA synchronous``.
    checkpoint_interval:
        Automatic checkpoint every N appended records (``None`` disables;
        ``PRAGMA checkpoint_interval`` adjusts it).
    group_size:
        Records per group-commit fsync batch in ``normal`` mode.
    buffer_pool_pages:
        Capacity (at least 1) of the shared buffer pool over ``pages.dat``,
        which holds every table's rows.
    page_size:
        Page size of the spill file in bytes.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        synchronous: str = "normal",
        checkpoint_interval: int | None = DEFAULT_CHECKPOINT_INTERVAL,
        group_size: int = 64,
        buffer_pool_pages: int = DEFAULT_POOL_PAGES,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise PersistenceError("checkpoint_interval must be >= 1 (or None)")
        self.directory = Path(path)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_interval = checkpoint_interval
        self._lock_file = self._acquire_lock()
        self._closed = False
        self._replaying = False
        #: Recovery counters, frozen at open time.
        self.snapshot_loaded = False
        self.records_replayed = 0
        self.torn_records_dropped = 0
        #: Lifetime counters.
        self.checkpoints = 0
        pager: Pager | None = None
        try:
            # The pager truncates pages.dat, so it must come after the
            # advisory lock — and before recovery, which repopulates it
            # through the tables' paged row maps.
            pager = Pager(
                self.directory / PAGES_NAME,
                page_size=page_size,
                pool_pages=buffer_pool_pages,
            )
            #: The shared spill-file pager every table's rows live in.
            self.pager = pager
            self.catalog = Catalog()
            self.catalog.storage_factory = lambda schema: TableStorage(
                schema, row_map=pager.row_map()
            )
            last_lsn = self._recover()
            wal_path = self.directory / WAL_NAME
            self.wal = WriteAheadLog(
                wal_path, synchronous=synchronous, group_size=group_size
            )
            self.wal.next_lsn = last_lsn + 1
            self._records_since_checkpoint = self.records_replayed
            self.catalog.attach_durability(self)
            self.catalog.set_warm_answers(self._collect_crowd_answers())
        except BaseException:
            if pager is not None:
                pager.close()
            self._release_lock()
            raise

    # -- open-time recovery ---------------------------------------------------

    def _acquire_lock(self):
        """Take the directory's advisory lock (one opener per directory)."""
        handle = open(self.directory / LOCK_NAME, "a+")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                handle.close()
                raise PersistenceError(
                    f"database directory {self.directory} is locked by another "
                    f"process (close its connection first)"
                ) from exc
        return handle

    def _release_lock(self) -> None:
        if self._lock_file is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - unlock of a dying fd
                    pass
            self._lock_file.close()
            self._lock_file = None

    def _recover(self) -> int:
        """Restore snapshot + WAL tail into the (empty) catalog.

        Returns the highest LSN recovered, so the reopened WAL continues
        the sequence.  The WAL file is truncated to its longest valid
        prefix first — a torn final record is the expected signature of a
        crash mid-append and never an error.
        """
        state = load_snapshot(self.directory)
        last_lsn = 0
        if state is not None:
            restore_catalog(self.catalog, state)
            last_lsn = int(state["last_lsn"])
            self.snapshot_loaded = True
        wal_path = self.directory / WAL_NAME
        records, valid_bytes = scan_wal(wal_path)
        if wal_path.exists() and wal_path.stat().st_size > valid_bytes:
            self.torn_records_dropped = 1
            with open(wal_path, "r+b") as handle:
                handle.truncate(valid_bytes)
                os.fsync(handle.fileno())
        self._replaying = True
        try:
            for record in records:
                if int(record["lsn"]) <= last_lsn:
                    continue  # the snapshot already covers it (idempotent replay)
                self._apply(record)
                self.records_replayed += 1
        finally:
            self._replaying = False
        return max(last_lsn, max_lsn(records))

    def _apply(self, record: dict[str, Any]) -> None:
        """Replay one WAL record against the recovering catalog."""
        op = record["op"]
        if op == "create_table":
            storage = self.catalog.create_table(schema_from_state(record["schema"]))
            storage.advance_rowid(int(record["next_rowid"]))
            return
        if op == "drop_table":
            self.catalog.drop_table(record["table"], if_exists=True)
            return
        if op == "enum_answers":
            self.catalog.restore_enum_answers(
                record["attribute"],
                int(record["batch"]),
                [decode_value(value) for value in record["values"]],
            )
            return
        if op == "worker_stats":
            # Absolute per-worker totals: replay is idempotent (last wins).
            self.catalog.restore_worker_stats(
                {
                    int(worker_id): (float(correct), float(incorrect))
                    for worker_id, (correct, incorrect) in record["workers"].items()
                }
            )
            return
        storage = self.catalog.table(record["table"])
        if op == "insert":
            storage.restore_row(int(record["rowid"]), decode_row(record["row"]))
        elif op == "update":
            storage.update(int(record["rowid"]), decode_row(record["changes"]))
        elif op == "delete":
            storage.delete(int(record["rowid"]))
        elif op == "fill":
            storage.fill_values(
                record["column"],
                decode_cells(record["values"]),
                skip_deleted=True,
                provenance=record["provenance"],
                confidences={
                    int(rowid): float(conf)
                    for rowid, conf in record["confidences"].items()
                },
            )
        elif op == "add_column":
            storage.add_column(
                column_from_state(record["column"]), fill_value=decode_value(record["fill"])
            )
        elif op == "create_index":
            storage.create_index(record["column"])
        else:
            raise PersistenceError(f"unknown WAL record op {op!r}")

    def _collect_crowd_answers(self) -> dict[tuple[str, str, int], Any]:
        """Crowd-provenance cells recovered from disk, for cache warm-start."""
        warm: dict[tuple[str, str, int], Any] = {}
        for storage in self.catalog:
            table = storage.schema.name
            for column in storage.schema.column_names:
                for rowid, entry in storage.provenance_map(column).items():
                    if entry.source != "crowd":
                        continue
                    try:
                        value = storage.get(rowid).get(column)
                    except ExecutionError:  # row deleted since the fill
                        continue
                    if value is not None and not is_missing(value):
                        warm[(table, column, rowid)] = value
        # Recovered open-world enumeration batches warm-start under the
        # synthetic enumeration table: a restarted process replays repeat
        # enumerations from the answer cache at zero platform calls.
        for (attribute, batch), values in self.catalog.enum_answers().items():
            warm[(ENUMERATION_TABLE, attribute, batch)] = list(values)
        return warm

    # -- journaling -----------------------------------------------------------

    def append(self, op: str, payload: dict[str, Any]) -> None:
        """Append one record (no-op during replay) and maybe checkpoint."""
        if self._replaying:
            return
        if self._closed:
            # Connections refuse statements against a closed directory up
            # front; this guards direct storage-level mutations with a
            # clear error instead of a raw closed-file ValueError.
            raise PersistenceError(
                f"database directory {self.directory} is closed"
            )
        self.wal.append(op, payload)
        self._records_since_checkpoint += 1
        if (
            self.checkpoint_interval is not None
            and self._records_since_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()

    def journal_for(self, storage: TableStorage) -> TableJournal:
        """Build the journal to install on *storage*."""
        return TableJournal(self, storage.schema.name)

    def log_create_table(self, storage: TableStorage) -> None:
        self.append(
            "create_table",
            {
                "table": storage.schema.name,
                "schema": schema_state(storage.schema),
                "next_rowid": storage.next_rowid,
            },
        )

    def log_drop_table(self, table: str) -> None:
        self.append("drop_table", {"table": table})

    def log_enum_answers(
        self, attribute: str, batch: int, values: Sequence[Any]
    ) -> None:
        """Journal one dispatched open-world enumeration batch."""
        self.append(
            "enum_answers",
            {
                "attribute": attribute,
                "batch": int(batch),
                "values": [encode_value(value) for value in values],
            },
        )

    def log_worker_stats(self, totals: Mapping[int, tuple[float, float]]) -> None:
        """Journal absolute per-worker accuracy observation totals."""
        self.append(
            "worker_stats",
            {
                "workers": {
                    str(worker_id): [float(correct), float(incorrect)]
                    for worker_id, (correct, incorrect) in totals.items()
                }
            },
        )

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> None:
        """Publish a snapshot of the current catalog and truncate the WAL.

        Runs under the catalog lock so the snapshot is a consistent point
        in the statement stream.  Crash-ordering: the WAL is flushed
        first, the snapshot is published atomically, and only then is the
        log truncated — a crash between the last two steps merely leaves
        records the snapshot already covers, which replay skips by LSN.
        """
        with self.catalog.lock:
            self.wal.flush()
            write_snapshot(self.directory, self.catalog, last_lsn=self.wal.next_lsn - 1)
            self.wal.truncate()
            self.checkpoints += 1
            self._records_since_checkpoint = 0

    # -- knobs ----------------------------------------------------------------

    @property
    def synchronous(self) -> str:
        """Current fsync policy (``PRAGMA synchronous``)."""
        return self.wal.synchronous

    def set_synchronous(self, mode: str) -> None:
        """Switch the fsync policy; tightening to ``full`` flushes first."""
        mode = validate_synchronous(mode)
        self.wal.flush()
        self.wal.synchronous = mode

    def set_checkpoint_interval(self, interval: int | None) -> None:
        """Adjust (or disable, with None/0) automatic checkpointing."""
        if interval is not None and interval <= 0:
            interval = None
        self.checkpoint_interval = interval

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Force pending WAL records durable (the ``commit()`` hook)."""
        self.wal.flush()

    def close(self) -> None:
        """Flush, close the WAL and release the directory lock (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.wal.close()
        self.pager.close()
        self._release_lock()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for ``EXPLAIN ANALYZE``'s durability footer and tests."""
        return {
            "directory": str(self.directory),
            "synchronous": self.wal.synchronous,
            "checkpoint_interval": self.checkpoint_interval,
            "wal_records": self.wal.records_appended,
            "wal_size_bytes": self.wal.size_bytes,
            "fsyncs": self.wal.fsyncs,
            "checkpoints": self.checkpoints,
            "snapshot_loaded": self.snapshot_loaded,
            "records_replayed": self.records_replayed,
            "torn_records_dropped": self.torn_records_dropped,
            "buffer_pool_pages": self.pager.pool.capacity,
        }

    def buffer_pool_stats(self) -> dict[str, int]:
        """Pager + pool counters (``PRAGMA buffer_pool_stats``)."""
        return self.pager.stats()

    def set_buffer_pool_pages(self, capacity: int) -> None:
        """Resize the buffer pool (``PRAGMA buffer_pool_pages = N``)."""
        self.pager.pool.resize(int(capacity))

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"DurabilityManager({str(self.directory)!r}, {state})"
