"""Unit and stress tests for the paged row store (pager.py).

Covers the page file, the pinning buffer pool (LRU eviction, dirty
write-back, the pin-violation assertion counter), the record heap
(including jumbo records and rowid verification), the row-map facade, and
an eviction-churn stress test running concurrent readers and writers over
a pool far smaller than the table.  The companion invariant — the
lock-order graph over ``PagedRowStore._lock`` → ``Pager._alloc_lock`` →
``BufferPool._lock`` stays acyclic — is enforced by the reprolint gate in
``tests/analysis/test_framework.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import pager as pager_module
from repro.db.pager import (
    BufferPool,
    PagedRowMap,
    PagedRowStore,
    PageFile,
    Pager,
)
from repro.db.connection import connect
from repro.db.types import MISSING
from repro.errors import PersistenceError


@pytest.fixture()
def pager(tmp_path):
    pager = Pager(tmp_path / "pages.dat", page_size=256, pool_pages=4)
    yield pager
    pager.close()


class TestPageFile:
    def test_read_past_end_is_zero_filled(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        assert file.read_page(3) == bytearray(64)
        file.close()

    def test_write_then_read_round_trips(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        file.write_page(2, b"x" * 64)
        assert bytes(file.read_page(2)) == b"x" * 64
        assert file.size_bytes >= 3 * 64
        file.close()

    def test_reopen_truncates_previous_contents(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        file.write_page(0, b"y" * 64)
        file.close()
        reopened = PageFile(tmp_path / "p.dat", page_size=64)
        assert reopened.size_bytes == 0  # spill file: rebuilt every open
        reopened.close()


class TestBufferPool:
    def test_lru_eviction_caps_resident_pages(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        pool = BufferPool(file, capacity_pages=2)
        for page_no in range(5):
            frame = pool.pin(page_no)
            frame.data[0] = page_no + 1
            pool.unpin(page_no, dirty=True)
        stats = pool.stats()
        assert stats["cached_pages"] <= 2
        assert stats["evictions"] >= 3
        # Evicted dirty pages were written back, not lost.
        assert pool.pin(0).data[0] == 1
        pool.unpin(0)
        file.close()

    def test_unpinned_access_bumps_violation_counter(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        pool = BufferPool(file, capacity_pages=2)
        assert pool.pin_violations == 0
        pool.unpin(7)  # page was never pinned
        assert pool.pin_violations == 1
        file.close()

    def test_pinned_pages_survive_capacity_pressure(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        pool = BufferPool(file, capacity_pages=1)
        held = pool.pin(0)
        held.data[0] = 42
        # A second pin overflows the pool rather than evicting the pinned page.
        pool.pin(1)
        pool.unpin(1)
        assert pool.pin_overflows >= 1
        assert held.data[0] == 42
        pool.unpin(0, dirty=True)
        file.close()

    def test_resize_shrinks_resident_set(self, tmp_path):
        file = PageFile(tmp_path / "p.dat", page_size=64)
        pool = BufferPool(file, capacity_pages=8)
        for page_no in range(8):
            pool.pin(page_no)
            pool.unpin(page_no)
        pool.resize(2)
        assert pool.stats()["cached_pages"] <= 2
        assert pool.stats()["capacity_pages"] == 2
        file.close()


class TestPager:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_an_empty_pool_is_refused_before_the_file_opens(self, tmp_path, capacity):
        directory = tmp_path / "db"
        with pytest.raises(PersistenceError, match="buffer pool needs >= 1 page"):
            connect(path=directory, buffer_pool_pages=capacity)
        assert not (directory / "pages.dat").exists()
        # The failed open released the directory lock.
        conn = connect(path=directory)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        assert conn.execute("PRAGMA buffer_pool_stats").fetchall()
        conn.close()

    def test_write_read_round_trip(self, pager):
        loc = pager.write_record(7, b"payload")
        assert pager.read_record(7, loc) == b"payload"

    def test_records_never_straddle_pages(self, pager):
        locs = [pager.write_record(i, bytes([65 + i]) * 100) for i in range(10)]
        for i, loc in enumerate(locs):
            page_of_start = loc // pager.page_size
            page_of_end = (loc + 100 + 13 - 1) // pager.page_size
            assert page_of_start == page_of_end
            assert pager.read_record(i, loc) == bytes([65 + i]) * 100

    def test_jumbo_record_round_trips(self, pager):
        big = b"j" * (pager.page_size * 3)
        loc = pager.write_record(9, big)
        assert pager.read_record(9, loc) == big
        assert pager.jumbo_records == 1

    def test_rowid_mismatch_is_a_persistence_error(self, pager):
        loc = pager.write_record(1, b"abc")
        with pytest.raises(PersistenceError):
            pager.read_record(2, loc)

    def test_stats_include_pool_and_heap_counters(self, pager):
        pager.write_record(1, b"x")
        stats = pager.stats()
        assert stats["records_written"] == 1
        assert "capacity_pages" in stats and "page_size" in stats


class TestPagedRowStoreAndMap:
    def test_mapping_contract(self, pager):
        rows = PagedRowMap(PagedRowStore(pager))
        rows[1] = {"a": 1}
        rows[2] = {"a": 2}
        rows[1] = {"a": 10}  # update appends a new version, repoints
        del rows[2]
        assert dict(rows.items()) == {1: {"a": 10}}
        assert len(rows) == 1
        assert 1 in rows and 2 not in rows
        with pytest.raises(KeyError):
            rows[2]
        with pytest.raises(KeyError):
            del rows[2]

    def test_add_column_fill_backfills_old_rows_on_decode(self, pager):
        rows = pager.row_map()
        rows[1] = {"a": 1}
        rows.add_column_fill("b", None)
        rows[2] = {"a": 2, "b": 5}
        assert rows[1] == {"a": 1, "b": None}
        assert rows[2] == {"a": 2, "b": 5}

    def test_store_returns_the_payload_it_wrote(self, pager):
        rows = pager.row_map()
        payload = rows.store(1, {"a": 1, "s": "Zo\u00eb"})
        assert payload == b'{"a":1,"s":"Zo\\u00eb"}'
        assert rows[1] == {"a": 1, "s": "Zo\u00eb"}

    def test_encoded_rows_copy_bytes_and_fill_only_older_records(self, pager, monkeypatch):
        decoded = []
        decode = pager_module._decode_payload
        monkeypatch.setattr(
            pager_module,
            "_decode_payload",
            lambda payload, fills: decoded.append(payload) or decode(payload, fills),
        )
        rows = pager.row_map()
        rows[1] = {"a": 1}
        rows[2] = {"a": 2, "wide": "x" * 400}  # jumbo record (page is 256 bytes)
        rows.add_column_fill("b", None)
        rows[3] = {"a": 3, "b": 5}
        rows[1] = {"a": 10, "b": 6}  # rewritten after the fill
        rows[4] = {"a": 4, "b": "y" * 400}  # jumbo record after the fill
        assert list(rows.encoded_rows()) == [
            (1, b'{"a":10,"b":6}'),
            (2, b'{"a":2,"wide":"' + b"x" * 400 + b'","b":null}'),
            (3, b'{"a":3,"b":5}'),
            (4, b'{"a":4,"b":"' + b"y" * 400 + b'"}'),
        ]
        assert decoded == [b'{"a":2,"wide":"' + b"x" * 400 + b'"}']  # only the older row

    def test_lazy_snapshot_is_point_in_time(self, pager):
        rows = pager.row_map()
        rows[1] = {"a": 1}
        snapshot = rows.items()
        rows[2] = {"a": 2}
        rows[1] = {"a": 99}
        assert list(snapshot) == [(1, {"a": 1})]  # captured set AND versions
        assert len(snapshot) == 1


class TestPageRunReader:
    """Scans pin each page once and decode its rows with one JSON parse."""

    def test_full_scan_pins_each_live_page_once(self, pager):
        rows = pager.row_map()
        for rowid in range(1, 41):
            rows[rowid] = {"a": rowid, "s": "x" * 20}
        del rows[7]
        store = rows._store
        pages = {loc // pager.page_size for _rowid, loc in store.captured_pairs()}
        assert len(pages) > pager.pool.capacity  # the scan must evict as it goes
        before = pager.pool.hits + pager.pool.misses
        scanned = list(rows.items())
        assert pager.pool.hits + pager.pool.misses - before == len(pages)
        assert [rowid for rowid, _row in scanned] == [r for r in range(1, 41) if r != 7]
        assert pager.pool.stats()["pinned_pages"] == 0

    def test_limit_scan_pins_one_page_and_releases_it(self, tmp_path):
        conn = connect(path=tmp_path / "db", buffer_pool_pages=2, page_size=256)
        try:
            conn.run_statement("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, "y" * 30) for i in range(60)])
            before = conn.durability.buffer_pool_stats()
            assert before["allocated_pages"] > 4
            assert conn.run_statement("SELECT id FROM t LIMIT 1").rows == [(0,)]
            after = conn.durability.buffer_pool_stats()
        finally:
            conn.close()
        pins = after["hits"] + after["misses"] - before["hits"] - before["misses"]
        assert pins == 1
        assert after["pinned_pages"] == 0
        assert after["pin_violations"] == 0

    def test_rows_match_the_per_record_decode(self, pager):
        rows = pager.row_map()
        for rowid in range(1, 31):
            rows[rowid] = {"a": rowid, "m": MISSING if rowid % 4 == 0 else rowid}
        rows[5] = {"a": 5, "wide": "j" * 400}  # jumbo record (page is 256 bytes)
        rows.add_column_fill("b", None)  # rows 1-30 were written before it
        rows[3] = {"a": 33, "m": MISSING, "b": 1}  # moved to the heap tail
        rows[31] = {"a": 31, "m": 0, "b": "z" * 300}  # jumbo, after the fill
        rows[12] = {"a": 12, "m": 12, "b": 2}  # moved to the heap tail
        for rowid in (9, 20, 30):
            del rows[rowid]
        store = rows._store
        locs = [loc for _rowid, loc in store.captured_pairs()]
        assert locs != sorted(locs)  # directory order is not heap order
        scanned = list(rows.items())
        assert scanned == [(rowid, rows[rowid]) for rowid in rows]  # one record at a time
        by_rowid = dict(scanned)
        assert by_rowid[4] == {"a": 4, "m": MISSING, "b": None}
        assert by_rowid[3] == {"a": 33, "m": MISSING, "b": 1}
        assert by_rowid[5] == {"a": 5, "wide": "j" * 400, "b": None}
        assert by_rowid[31]["b"] == "z" * 300
        assert 9 not in by_rowid and 30 not in by_rowid
        assert pager.pool.pin_violations == 0
        assert pager.pool.stats()["pinned_pages"] == 0

    def test_corrupt_record_header_names_the_expected_rowid(self, pager):
        rows = pager.row_map()
        for rowid in range(1, 21):
            rows[rowid] = {"a": rowid}
        loc = dict(rows._store.captured_pairs())[14]
        page_no, offset = divmod(loc, pager.page_size)
        frame = pager.pool.pin(page_no)
        pager_module._RECORD.pack_into(frame.data, offset, 0, len(b'{"a":14}'), 99)
        pager.pool.unpin(page_no, dirty=True)
        with pytest.raises(PersistenceError, match="carries rowid 99, expected 14"):
            list(rows.items())
        assert pager.pool.stats()["pinned_pages"] == 0


class TestEvictionChurnStress:
    """Concurrent readers and writers over a pool far smaller than the table.

    Rowids are partitioned per writer so "no lost update" is well defined:
    after the churn, every row must hold its writer's final version.  The
    pin-violation assertion counter must stay zero — no code path touched
    a page it did not hold pinned.
    """

    def test_concurrent_churn_loses_no_updates_and_no_pins(self, tmp_path):
        pager = Pager(tmp_path / "pages.dat", page_size=256, pool_pages=4)
        rows = pager.row_map()
        writers, per_writer, rounds = 4, 50, 8
        for rowid in range(writers * per_writer):
            rows[rowid] = {"v": 0, "w": rowid // per_writer}
        errors: list[BaseException] = []
        stop = threading.Event()

        def write(writer: int) -> None:
            try:
                owned = range(writer * per_writer, (writer + 1) * per_writer)
                for version in range(1, rounds + 1):
                    for rowid in owned:
                        rows[rowid] = {"v": version, "w": writer}
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read() -> None:
            try:
                while not stop.is_set():
                    for rowid in range(0, writers * per_writer, 7):
                        row = rows[rowid]
                        assert row["w"] == rowid // per_writer
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads + readers:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        try:
            assert not errors, errors
            for rowid in range(writers * per_writer):
                assert rows[rowid] == {"v": rounds, "w": rowid // per_writer}
            assert pager.pool.pin_violations == 0
            assert pager.pool.stats()["evictions"] > 0  # the pool really churned
        finally:
            pager.close()
