"""Versioned catalog snapshots: the checkpoint half of the durability layer.

A snapshot is one JSON document holding the complete durable state of a
:class:`~repro.db.catalog.Catalog`: every table's schema (including
expanded perceptual columns), rows keyed by rowid, secondary indexes,
per-cell provenance and confidence (so recovered crowd answers are still
recognizable as crowd answers and can warm the
:class:`~repro.crowd.runtime.AnswerCache`), the per-table rowid high-water
marks, and ``last_lsn`` — the WAL position the snapshot covers.  Replay
after a restart is *snapshot + WAL tail*: records with ``lsn <=
last_lsn`` are skipped, which is what makes replay idempotent even when a
crash lands between snapshot publication and WAL truncation.

The document is streamed to disk table by table, each table's rows in
batches, so a checkpoint never holds the whole catalog as one encoded
string; the bytes are exactly ``json.dumps(document, separators=(",",
":"))`` of the document :func:`load_snapshot` reads back.

Snapshots are published atomically: written to a temp file, fsynced,
``os.replace``d over ``snapshot.json``, then the directory entry is
fsynced.  A crash mid-checkpoint therefore leaves either the old snapshot
or the new one, never a half-written hybrid.  ``format_version`` gates
forward compatibility — opening a directory written by a newer format
raises :class:`~repro.errors.PersistenceError` instead of silently
misreading it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.storage import TableStorage, ValueProvenance
from repro.db.types import ColumnType
from repro.db.wal import decode_row, decode_value, encode_value
from repro.errors import PersistenceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.catalog import Catalog

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_NAME",
    "load_snapshot",
    "restore_catalog",
    "write_snapshot",
]

#: Bumped whenever the on-disk layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

#: File name of the current snapshot inside a database directory.
SNAPSHOT_NAME = "snapshot.json"

#: Rows joined per write while a table is streamed out.
_ROW_BATCH = 1024

#: Write buffer of the snapshot file handle.
_WRITE_BUFFER = 1 << 20


# ---------------------------------------------------------------------------
# Schema (de)serialization
# ---------------------------------------------------------------------------


def column_state(column: Column) -> dict[str, Any]:
    """Serialize one column definition."""
    return {
        "name": column.name,
        "type": column.type.value,
        "kind": column.kind.value,
        "nullable": column.nullable,
        "default": encode_value(column.default),
    }


def column_from_state(state: dict[str, Any]) -> Column:
    """Inverse of :func:`column_state`."""
    return Column(
        name=state["name"],
        type=ColumnType(state["type"]),
        kind=AttributeKind(state["kind"]),
        nullable=bool(state["nullable"]),
        default=decode_value(state["default"]),
    )


def schema_state(schema: TableSchema) -> dict[str, Any]:
    """Serialize a table schema (columns in declaration order)."""
    return {
        "name": schema.name,
        "primary_key": schema.primary_key,
        "columns": [column_state(column) for column in schema],
    }


def schema_from_state(state: dict[str, Any]) -> TableSchema:
    """Inverse of :func:`schema_state`."""
    return TableSchema(
        state["name"],
        [column_from_state(column) for column in state["columns"]],
        primary_key=state["primary_key"],
    )


# ---------------------------------------------------------------------------
# Table and catalog (de)serialization
# ---------------------------------------------------------------------------


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def _row_batches(storage: TableStorage) -> Iterator[str]:
    """The table's ``"rowid":row`` members, :data:`_ROW_BATCH` at a time.

    Rows are the payloads :meth:`TableStorage.encoded_rows` hands back
    (the bytes the page already holds), so a checkpoint copies them
    instead of decoding and encoding every row again.
    """
    batch: list[bytes] = []
    for rowid, payload in storage.encoded_rows():
        batch.append(b'"%d":%s' % (rowid, payload))
        if len(batch) >= _ROW_BATCH:
            yield b",".join(batch).decode("ascii")
            batch = []
    if batch:
        yield b",".join(batch).decode("ascii")


def _provenance_state(storage: TableStorage) -> dict[str, dict[str, Any]]:
    provenance: dict[str, dict[str, Any]] = {}
    for column in storage.schema.column_names:
        entries = storage.provenance_map(column)
        if entries:
            provenance[column] = {
                str(rowid): {"source": entry.source, "confidence": entry.confidence}
                for rowid, entry in entries.items()
            }
    return provenance


def _write_table(write: Callable[[str], Any], storage: TableStorage) -> None:
    """Stream one table object: schema, rows, indexes, provenance, rowid mark.

    Written as the compact JSON object ``{"schema", "next_rowid", "rows",
    "indexes", "provenance", "stats"}`` (in that key order), with ``rows``
    emitted batch by batch.
    """
    head = {"schema": schema_state(storage.schema), "next_rowid": storage.next_rowid}
    write(_dumps(head)[:-1] + ',"rows":{')
    separator = ""
    for batch in _row_batches(storage):
        write(separator + batch)
        separator = ","
    tail = {
        "indexes": sorted(storage.index_columns()),
        "provenance": _provenance_state(storage),
        # Planner statistics ride the checkpoint so a recovered database
        # costs plans with the numbers it had before the restart.
        "stats": storage.stats.to_state(),
    }
    write("}," + _dumps(tail)[1:])


def restore_table(catalog: "Catalog", state: dict[str, Any]) -> TableStorage:
    """Recreate one table inside *catalog* from its serialized state.

    Indexes are created before the rows, so :meth:`TableStorage.restore_row`
    maintains them while loading instead of a rebuild reading every row
    back.  Statistics are taken from the snapshot when it has them (the
    rows are then not folded in a second time).
    """
    storage = catalog.create_table(schema_from_state(state["schema"]))
    for column in state["indexes"]:
        storage.create_index(column)
    observe = "stats" not in state
    for rowid, row in state["rows"].items():
        storage.restore_row(int(rowid), decode_row(row), observe=observe)
    storage.advance_rowid(int(state["next_rowid"]))
    for column, entries in state["provenance"].items():
        for rowid, entry in entries.items():
            storage.set_provenance(
                column,
                int(rowid),
                ValueProvenance(
                    source=entry["source"], confidence=float(entry["confidence"])
                ),
            )
    # Older snapshots carry no stats: the restore loop above re-accumulated
    # the write-path statistics from the rows instead.
    if not observe:
        storage.stats.load_state(state["stats"])
    return storage


def _write_catalog(
    write: Callable[[str], Any], catalog: "Catalog", *, last_lsn: int
) -> None:
    """Stream a whole catalog as a snapshot document, one table at a time."""
    head = {"format_version": SNAPSHOT_FORMAT_VERSION, "last_lsn": int(last_lsn)}
    write(_dumps(head)[:-1] + ',"tables":[')
    separator = ""
    for storage in catalog:
        write(separator)
        _write_table(write, storage)
        separator = ","
    tail = {
        "rowid_watermarks": dict(catalog.rowid_watermarks()),
        # Dispatched open-world enumeration batches (checkpointing truncates
        # the WAL, so they must ride the snapshot to stay recoverable).
        "enum_answers": [
            [attribute, batch, [encode_value(value) for value in values]]
            for (attribute, batch), values in sorted(catalog.enum_answers().items())
        ],
        # Per-worker accuracy observation totals (same reasoning: paid-for
        # worker knowledge must survive WAL truncation).
        "worker_stats": [
            [worker_id, correct, incorrect]
            for worker_id, (correct, incorrect) in sorted(catalog.worker_stats().items())
        ],
    }
    write("]," + _dumps(tail)[1:])


def restore_catalog(catalog: "Catalog", state: dict[str, Any]) -> None:
    """Populate an empty *catalog* from a snapshot document."""
    for table in state["tables"]:
        restore_table(catalog, table)
    for name, watermark in state.get("rowid_watermarks", {}).items():
        catalog.record_rowid_watermark(name, int(watermark))
    for attribute, batch, values in state.get("enum_answers", []):
        catalog.restore_enum_answers(
            attribute, int(batch), [decode_value(value) for value in values]
        )
    worker_stats = {
        int(worker_id): (float(correct), float(incorrect))
        for worker_id, correct, incorrect in state.get("worker_stats", [])
    }
    if worker_stats:
        catalog.restore_worker_stats(worker_stats)


# ---------------------------------------------------------------------------
# Disk I/O
# ---------------------------------------------------------------------------


def write_snapshot(
    directory: str | os.PathLike[str], catalog: "Catalog", *, last_lsn: int
) -> Path:
    """Atomically publish *catalog* as the directory's current snapshot.

    The document is streamed through a buffered handle (see the module
    docstring).  temp-write + fsync + rename + directory fsync: a reader
    never sees a partially written snapshot, and after a crash the rename
    either happened completely or not at all.
    """
    directory = Path(directory)
    target = directory / SNAPSHOT_NAME
    temp = directory / (SNAPSHOT_NAME + ".tmp")
    with open(
        temp, "w", encoding="utf-8", newline="", buffering=_WRITE_BUFFER
    ) as handle:
        _write_catalog(handle.write, catalog, last_lsn=last_lsn)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return target


def load_snapshot(directory: str | os.PathLike[str]) -> dict[str, Any] | None:
    """Load the directory's snapshot, or None when none was published yet."""
    path = Path(directory) / SNAPSHOT_NAME
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PersistenceError(f"snapshot {path} is not valid JSON: {exc}") from exc
    version = state.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise PersistenceError(
            f"snapshot {path} has format version {version!r}; this build reads "
            f"version {SNAPSHOT_FORMAT_VERSION}"
        )
    return state
