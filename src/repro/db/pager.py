"""Paged row storage: fixed-size pages, a pinning buffer pool, spill file.

This is the disk half of :class:`~repro.db.storage.TableStorage` for
durable databases.  Rows are serialized into an append-only heap of
fixed-size pages inside ``pages.dat``; a shared :class:`BufferPool` keeps a
bounded number of pages in memory (LRU, pin/unpin, dirty write-back on
eviction), which is what bounds the resident set of million-row tables to
the configured pool size instead of the table size.

Durability still belongs to the snapshot + WAL pair: ``pages.dat`` is a
*rebuildable spill file*.  It is truncated every time the database opens
and repopulated while recovery replays the snapshot and the WAL tail, so
it needs no crash consistency of its own — a torn page write simply never
survives a restart.  That keeps the proven snapshot/WAL formats unchanged
while moving the working set out of process memory.

Layout
------
Records are appended, never overwritten (updates append a new version and
repoint the directory; deletes tombstone the directory entry).  A record
never straddles a page boundary: the allocator skips the tail fragment
when a record does not fit, so one pinned page always holds a whole
record.  Records wider than a page ("jumbo") get a dedicated span of
fresh pages and bypass the pool with direct positional I/O.

Each record is ``<u8 flags><u32 payload-length><u64 rowid><payload>``;
the embedded rowid is verified on every read, so a directory/heap
mismatch surfaces as :class:`~repro.errors.PersistenceError` instead of
serving another row's bytes.

The per-table directory is a pair of parallel ``array('q')`` columns
sorted by rowid (rowids are monotone, so inserts are appends): the
``loc`` is the absolute byte offset of the record, ``-1`` for a
tombstone, or ``-(offset + 2)`` for a jumbo record.

Point lookups read one record (:meth:`Pager.read_record`); every scan
reads a captured directory a page at a time (:meth:`Pager.read_pages`),
pinning each run of same-page records once and parsing its rows with one
``json.loads``.

Lock order (checked by ``reprolint``'s lock-order gate):
``Catalog.lock`` → ``PagedRowStore._lock`` → ``Pager._alloc_lock`` →
``BufferPool._lock``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator, MutableMapping

from repro.db.wal import decode_row, encode_row_json
from repro.errors import PersistenceError

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "BufferPool",
    "PageFile",
    "PagedRowMap",
    "PagedRowStore",
    "Pager",
]

#: Default page size in bytes (one buffer-pool frame).
DEFAULT_PAGE_SIZE = 4096

#: Default buffer-pool capacity in pages (512 KiB at the default page size).
DEFAULT_POOL_PAGES = 128

#: ``<u8 flags><u32 payload length><u64 rowid>`` record header.
_RECORD = struct.Struct("<BIQ")

#: Record flag: the record occupies a dedicated jumbo span.
_FLAG_JUMBO = 0x01

#: Directory sentinel for a deleted row.
_TOMBSTONE = -1


class PageFile:
    """Positional page I/O over one spill file (``pages.dat``).

    The file is truncated at open — its contents are rebuilt from the
    snapshot and WAL by recovery, so stale pages must never be read.  All
    I/O is unbuffered ``pread``/``pwrite``, which keeps reads and writes
    from different threads from interleaving through a shared file cursor.
    """

    def __init__(self, path: str | os.PathLike[str], page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 64:
            raise PersistenceError(f"page_size must be >= 64 bytes, got {page_size}")
        self.path = Path(path)
        self.page_size = page_size
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        os.ftruncate(self._fd, 0)
        self._closed = False

    def read_page(self, page_no: int) -> bytearray:
        """Return page *page_no*, zero-padded to the page size."""
        data = os.pread(self._fd, self.page_size, page_no * self.page_size)
        buffer = bytearray(data)
        if len(buffer) < self.page_size:
            buffer.extend(b"\x00" * (self.page_size - len(buffer)))
        return buffer

    def write_page(self, page_no: int, data: bytes | bytearray) -> None:
        """Write one full page at its slot (extends the file as needed)."""
        os.pwrite(self._fd, bytes(data), page_no * self.page_size)

    def pread(self, offset: int, length: int) -> bytes:
        """Read *length* bytes at an absolute offset (jumbo records)."""
        return os.pread(self._fd, length, offset)

    def pwrite(self, offset: int, data: bytes) -> None:
        """Write bytes at an absolute offset (jumbo records)."""
        os.pwrite(self._fd, data, offset)

    def close(self) -> None:
        """Close the file descriptor (idempotent)."""
        if not self._closed:
            self._closed = True
            os.close(self._fd)

    @property
    def size_bytes(self) -> int:
        """Current file size in bytes."""
        return os.fstat(self._fd).st_size


class _Frame:
    """One cached page: its buffer, pin count and dirty flag."""

    __slots__ = ("page_no", "data", "pins", "dirty")

    def __init__(self, page_no: int, data: bytearray) -> None:
        self.page_no = page_no
        self.data = data
        self.pins = 0
        self.dirty = False


def _check_capacity(capacity_pages: int) -> None:
    if capacity_pages < 1:
        raise PersistenceError(f"buffer pool needs >= 1 page, got {capacity_pages}")


class BufferPool:
    """Bounded page cache with pinning, LRU eviction and dirty write-back.

    A pinned frame is never evicted; access protocol is strictly
    ``pin`` → touch ``frame.data`` → ``unpin(dirty=...)``.  Unbalanced
    unpins (unknown page, or a pin count already at zero) do not corrupt
    the pool — they bump the ``pin_violations`` assertion counter, which
    the eviction-churn stress test requires to stay at zero.

    When every frame is pinned and a new page is needed, the pool
    temporarily exceeds its capacity (counted in ``pin_overflows``)
    rather than deadlocking the caller.
    """

    def __init__(self, page_file: PageFile, capacity_pages: int = DEFAULT_POOL_PAGES) -> None:
        _check_capacity(capacity_pages)
        self._file = page_file
        self.capacity = capacity_pages
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_backs = 0
        self.pin_violations = 0
        self.pin_overflows = 0

    # -- pinning ---------------------------------------------------------------

    def pin(self, page_no: int) -> _Frame:
        """Return the frame for *page_no*, loading (and evicting) as needed."""
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(page_no)
                frame.pins += 1
                return frame
            self.misses += 1
            self._evict_to(self.capacity - 1)
            frame = _Frame(page_no, self._file.read_page(page_no))
            frame.pins = 1
            self._frames[page_no] = frame
            return frame

    def unpin(self, page_no: int, *, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` marks the page for write-back."""
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is None or frame.pins <= 0:
                self.pin_violations += 1
                return
            frame.pins -= 1
            frame.dirty = frame.dirty or dirty

    # -- eviction and flushing --------------------------------------------------

    def _evict_to(self, target: int) -> None:
        """Evict unpinned LRU frames until at most *target* remain (locked)."""
        while len(self._frames) > target:
            victim = next(
                (frame for frame in self._frames.values() if frame.pins == 0), None
            )
            if victim is None:
                self.pin_overflows += 1
                return
            if victim.dirty:
                self._file.write_page(victim.page_no, victim.data)
                self.write_backs += 1
            del self._frames[victim.page_no]
            self.evictions += 1

    def flush(self) -> None:
        """Write back every dirty frame (frames stay cached, now clean)."""
        with self._lock:
            for frame in self._frames.values():
                if frame.dirty:
                    self._file.write_page(frame.page_no, frame.data)
                    frame.dirty = False
                    self.write_backs += 1

    def resize(self, capacity_pages: int) -> None:
        """Change the pool capacity, evicting down to it if shrinking."""
        _check_capacity(capacity_pages)
        with self._lock:
            self.capacity = capacity_pages
            self._evict_to(capacity_pages)

    def stats(self) -> dict[str, int]:
        """Counters for ``PRAGMA buffer_pool_stats`` and the benchmarks."""
        with self._lock:
            return {
                "capacity_pages": self.capacity,
                "cached_pages": len(self._frames),
                "pinned_pages": sum(1 for frame in self._frames.values() if frame.pins),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "write_backs": self.write_backs,
                "pin_violations": self.pin_violations,
                "pin_overflows": self.pin_overflows,
            }


class Pager:
    """One database's spill file: page file + buffer pool + heap allocator.

    Shared by every table of the catalog (``row_map()`` hands out one
    :class:`PagedRowMap` per table); the single pool is what makes the
    buffer-pool size a *database-wide* memory bound.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = DEFAULT_POOL_PAGES,
    ) -> None:
        # Checked before PageFile opens (and truncates) the file.
        _check_capacity(pool_pages)
        self.page_size = page_size
        self._file = PageFile(path, page_size)
        self.pool = BufferPool(self._file, pool_pages)
        self._alloc_lock = threading.Lock()
        self._tail = 0
        self.jumbo_records = 0
        self.records_written = 0

    # -- record I/O -------------------------------------------------------------

    def write_record(self, rowid: int, payload: bytes) -> int:
        """Append one record, returning its directory ``loc`` encoding."""
        total = _RECORD.size + len(payload)
        if total > self.page_size:
            return self._write_jumbo(rowid, payload, total)
        with self._alloc_lock:
            fragment = self.page_size - (self._tail % self.page_size)
            if fragment < total:
                self._tail += fragment  # records never straddle pages
            start = self._tail
            self._tail += total
            self.records_written += 1
        page_no, offset = divmod(start, self.page_size)
        frame = self.pool.pin(page_no)
        try:
            _RECORD.pack_into(frame.data, offset, 0, len(payload), rowid)
            frame.data[offset + _RECORD.size : offset + total] = payload
        finally:
            self.pool.unpin(page_no, dirty=True)
        return start

    def _write_jumbo(self, rowid: int, payload: bytes, total: int) -> int:
        """Write an over-page-size record to a dedicated span of fresh pages."""
        with self._alloc_lock:
            start = -(-self._tail // self.page_size) * self.page_size
            # The span is exclusive: round the tail past it so no pooled
            # page ever shares bytes with a jumbo record.
            self._tail = -(-(start + total) // self.page_size) * self.page_size
            self.jumbo_records += 1
            self.records_written += 1
        self._file.pwrite(start, _RECORD.pack(_FLAG_JUMBO, len(payload), rowid) + payload)
        return -(start + 2)

    def read_record(self, rowid: int, loc: int) -> bytes:
        """Read the record at *loc*, verifying its embedded rowid."""
        if loc <= -2:
            start = -loc - 2
            header = self._file.pread(start, _RECORD.size)
            if len(header) < _RECORD.size:
                raise PersistenceError(
                    f"page store corruption: truncated jumbo record at offset {start}"
                )
            _flags, length, stored = _RECORD.unpack(header)
            payload = self._file.pread(start + _RECORD.size, length)
        else:
            page_no, offset = divmod(loc, self.page_size)
            frame = self.pool.pin(page_no)
            try:
                _flags, length, stored = _RECORD.unpack_from(frame.data, offset)
                payload = bytes(frame.data[offset + _RECORD.size : offset + _RECORD.size + length])
            finally:
                self.pool.unpin(page_no)
        if stored != rowid or len(payload) != length:
            raise _mismatch(loc, stored, rowid)
        return payload

    def read_pages(
        self, pairs: list[tuple[int, int]]
    ) -> Iterator[tuple[list[tuple[int, int]], list[bytes]]]:
        """Read captured ``(rowid, loc)`` pairs a page at a time.

        Yields ``(run, payloads)`` for each run of consecutive pairs whose
        records sit on one page.  The page is pinned once, copied and
        unpinned before its run is yielded, so a reader that stops early
        (a LIMIT) never leaves a pin behind.  Each record's header is
        checked as :meth:`read_record` checks it; a jumbo record is a run
        of its own, read by :meth:`read_record`.
        """
        page_size, pool = self.page_size, self.pool
        i, count = 0, len(pairs)
        while i < count:
            rowid, loc = pairs[i]
            if loc <= -2:
                yield pairs[i : i + 1], [self.read_record(rowid, loc)]
                i += 1
                continue
            page_no = loc // page_size
            base = page_no * page_size
            end = base + page_size
            j = i + 1
            while j < count and base <= pairs[j][1] < end:
                j += 1
            frame = pool.pin(page_no)
            try:
                page = bytes(frame.data)
            finally:
                pool.unpin(page_no)
            run = pairs[i:j]
            payloads = []
            for rowid, loc in run:
                offset = loc - base
                _flags, length, stored = _RECORD.unpack_from(page, offset)
                payload = page[offset + _RECORD.size : offset + _RECORD.size + length]
                if stored != rowid or len(payload) != length:
                    raise _mismatch(loc, stored, rowid)
                payloads.append(payload)
            yield run, payloads
            i = j

    @property
    def heap_end(self) -> int:
        """Byte offset the next record will be allocated at or after."""
        with self._alloc_lock:
            return self._tail

    # -- table wiring -----------------------------------------------------------

    def row_map(self) -> "PagedRowMap":
        """Create the row map for one table (shares this pager's pool)."""
        return PagedRowMap(PagedRowStore(self))

    # -- maintenance ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Allocator + pool counters (``PRAGMA buffer_pool_stats``)."""
        stats = {
            "page_size": self.page_size,
            "allocated_pages": -(-self._tail // self.page_size),
            "heap_bytes": self._tail,
            "records_written": self.records_written,
            "jumbo_records": self.jumbo_records,
        }
        stats.update(self.pool.stats())
        return stats

    def close(self) -> None:
        """Flush and close the spill file."""
        self.pool.flush()
        self._file.close()


def _mismatch(loc: int, stored: int, rowid: int) -> PersistenceError:
    """The error for a record whose header does not match its directory entry."""
    return PersistenceError(
        f"page store corruption: record at loc {loc} carries rowid {stored}, expected {rowid}"
    )


class PagedRowStore:
    """Per-table record directory over a shared :class:`Pager` heap.

    Maps rowids to heap locations through two parallel sorted arrays.
    Updates append a fresh record and repoint the entry (old bytes are
    never touched, which is what lets scans read a captured directory
    without holding the store lock); deletes tombstone the entry.
    """

    def __init__(self, pager: Pager) -> None:
        #: The shared heap; scans read captured pairs through
        #: :meth:`Pager.read_pages` without the store lock.
        self.pager = pager
        self._lock = threading.Lock()
        self._rowids = array("q")
        self._locs = array("q")
        self._live = 0

    def _find(self, rowid: int) -> int:
        """Index of *rowid* in the directory, or -1 (caller holds the lock)."""
        i = bisect_left(self._rowids, rowid)
        if i < len(self._rowids) and self._rowids[i] == rowid:
            return i
        return -1

    def put(self, rowid: int, payload: bytes) -> None:
        """Insert or replace the record for *rowid*."""
        loc = self.pager.write_record(rowid, payload)
        with self._lock:
            i = bisect_left(self._rowids, rowid)
            if i < len(self._rowids) and self._rowids[i] == rowid:
                if self._locs[i] == _TOMBSTONE:
                    self._live += 1
                self._locs[i] = loc
            else:
                self._rowids.insert(i, rowid)
                self._locs.insert(i, loc)
                self._live += 1

    def get(self, rowid: int) -> bytes | None:
        """Return the payload for *rowid*, or None when absent/deleted."""
        with self._lock:
            i = self._find(rowid)
            loc = self._locs[i] if i >= 0 else _TOMBSTONE
        if loc == _TOMBSTONE:
            return None
        return self.pager.read_record(rowid, loc)

    def delete(self, rowid: int) -> bool:
        """Tombstone *rowid*; False when it was absent already."""
        with self._lock:
            i = self._find(rowid)
            if i < 0 or self._locs[i] == _TOMBSTONE:
                return False
            self._locs[i] = _TOMBSTONE
            self._live -= 1
            return True

    def __contains__(self, rowid: int) -> bool:
        with self._lock:
            i = self._find(rowid)
            return i >= 0 and self._locs[i] != _TOMBSTONE

    def __len__(self) -> int:
        with self._lock:
            return self._live

    def live_rowids(self) -> list[int]:
        """All live rowids in ascending (== insertion) order."""
        with self._lock:
            return [rowid for rowid, loc in zip(self._rowids, self._locs) if loc != _TOMBSTONE]

    def captured_pairs(self) -> list[tuple[int, int]]:
        """Point-in-time ``(rowid, loc)`` pairs of the live directory.

        The heap never overwrites record bytes, so captured locs stay
        readable without the store lock — later updates are simply not
        seen (the captured loc still points at the old version).
        """
        with self._lock:
            return [
                (rowid, loc)
                for rowid, loc in zip(self._rowids, self._locs)
                if loc != _TOMBSTONE
            ]

    def heap_end(self) -> int:
        """The shared heap's allocation mark: later records start at or past it."""
        return self.pager.heap_end


def _record_start(loc: int) -> int:
    """Heap offset of the record a directory ``loc`` points at."""
    return loc if loc >= 0 else -loc - 2


def _decode_payload(payload: bytes, fills: dict[str, Any]) -> dict[str, Any]:
    """Decode one stored row, applying ADD COLUMN fills for older records."""
    return _finish_row(json.loads(payload), payload, fills)


def _finish_row(row: dict[str, Any], payload: bytes, fills: dict[str, Any]) -> dict[str, Any]:
    """Complete a row parsed from *payload*: MISSING markers, then fills.

    The MISSING codec pass runs only when the payload mentions the
    sentinel: :func:`~repro.db.wal.encode_row` always writes MISSING as the
    literal ASCII key ``__missing__``, so a payload without it decodes to
    the same row without the pass.
    """
    if b"__missing__" in payload:
        row = decode_row(row)
    for column, value in fills.items():
        row.setdefault(column, value)
    return row


class _PagedSnapshot:
    """Lazy point-in-time scan: captured directory, rows decoded a page at a time.

    Mirrors the contract of the in-memory ``snapshot()`` list — the *set*
    of rows is fixed at capture time while decoding happens as the scan
    operators pull, so a LIMIT stops the page reads early.  Each page's
    payloads are parsed by one ``json.loads`` of a JSON array.
    """

    def __init__(self, store: PagedRowStore, fills: dict[str, Any]) -> None:
        self._pager = store.pager
        self._pairs = store.captured_pairs()
        self._fills = dict(fills)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, dict[str, Any]]]:
        fills = self._fills
        for run, payloads in self._pager.read_pages(self._pairs):
            joined = b",".join(payloads)
            rows = json.loads(b"[" + joined + b"]")
            if fills or b"__missing__" in joined:
                rows = [_finish_row(row, payload, fills) for row, payload in zip(rows, payloads)]
            for (rowid, _loc), row in zip(run, rows):
                yield rowid, row


class PagedRowMap(MutableMapping):
    """``MutableMapping[int, Row]`` facade over a :class:`PagedRowStore`.

    Rows cross the page boundary as compact JSON (the WAL's row codec, so
    MISSING markers round-trip); :meth:`store` hands the bytes back so an
    insert journals them without encoding the row twice.
    ``add_column_fill`` records an overlay fill instead of rewriting every
    stored record — rows written before the column existed receive the
    fill at decode time via ``setdefault``, making ALTER TABLE ADD COLUMN
    O(1) regardless of table size.
    """

    def __init__(self, store: PagedRowStore) -> None:
        self._store = store
        self._fills: dict[str, Any] = {}
        #: Heap mark of the latest fill: a record starting at or past it
        #: was written with every column the table has, fills included.
        self._fill_mark = 0

    # -- MutableMapping ----------------------------------------------------------

    def __getitem__(self, rowid: int) -> dict[str, Any]:
        payload = self._store.get(rowid)
        if payload is None:
            raise KeyError(rowid)
        return _decode_payload(payload, self._fills)

    def __setitem__(self, rowid: int, row: dict[str, Any]) -> None:
        self.store(rowid, row)

    def __delitem__(self, rowid: int) -> None:
        if not self._store.delete(rowid):
            raise KeyError(rowid)

    def __contains__(self, rowid: object) -> bool:
        return isinstance(rowid, int) and rowid in self._store

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.live_rowids())

    def __len__(self) -> int:
        return len(self._store)

    # -- storage extensions ------------------------------------------------------

    def store(self, rowid: int, row: dict[str, Any]) -> bytes:
        """Write *row* under *rowid* and return its stored payload.

        The payload is :func:`~repro.db.wal.encode_row_json` of the row, so
        the storage layer hands the same bytes to the WAL.
        """
        payload = encode_row_json(row)
        self._store.put(rowid, payload)
        return payload

    def add_column_fill(self, column: str, value: Any) -> None:
        """Register the decode-time fill for a newly added column."""
        self._fills[column] = value
        self._fill_mark = self._store.heap_end()

    def encoded_rows(self) -> Iterator[tuple[int, bytes]]:
        """``(rowid, payload)`` of every live row, fills applied (checkpoints).

        A record written after the latest fill already holds every column,
        so its stored bytes are returned as they are; only older records
        are decoded, filled and encoded again.
        """
        store, fills, mark = self._store, dict(self._fills), self._fill_mark
        for run, payloads in store.pager.read_pages(store.captured_pairs()):
            for (rowid, loc), payload in zip(run, payloads):
                if _record_start(loc) < mark:
                    payload = encode_row_json(_decode_payload(payload, fills))
                yield rowid, payload

    def items(self) -> _PagedSnapshot:  # type: ignore[override]
        """Point-in-time ``(rowid, row)`` pairs, decoded a page at a time.

        Every sequential reader of the table (scans, UPDATE, DELETE, index
        builds) comes through here; point lookups use ``self[rowid]``.
        """
        return _PagedSnapshot(self._store, self._fills)
