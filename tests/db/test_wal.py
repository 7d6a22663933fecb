"""Tests for the write-ahead log: framing, torn tails, group commit, and
the replay property (any prefix of a valid log recovers consistently)."""

from __future__ import annotations

import json
import struct
from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.durability import DurabilityManager
from repro.db.types import MISSING
from repro.db.wal import (
    RECORD_TYPES,
    SYNCHRONOUS_MODES,
    EncodedJSON,
    WriteAheadLog,
    decode_cells,
    decode_row,
    decode_value,
    encode_cells,
    encode_row,
    encode_row_json,
    encode_value,
    scan_wal,
)
from repro.errors import PersistenceError


class TestValueEncoding:
    def test_missing_round_trips(self):
        assert decode_value(encode_value(MISSING)) is MISSING

    def test_scalars_pass_through(self):
        for value in (None, 1, 2.5, "text", True, False):
            assert decode_value(encode_value(value)) == value

    def test_row_round_trip(self):
        row = {"id": 1, "name": "Rocky", "score": MISSING, "flag": None}
        decoded = decode_row(json.loads(json.dumps(encode_row(row))))
        assert decoded["id"] == 1 and decoded["name"] == "Rocky"
        assert decoded["score"] is MISSING and decoded["flag"] is None

    def test_row_json_is_the_compact_dump_of_the_encoded_row(self):
        text = "Zo\u00eb \u2603 \"q\" \\"
        row = {"id": 1, "r": 0.1, "s": text, "b": True, "m": MISSING, "n": None}
        assert encode_row_json(row) == json.dumps(
            encode_row(row), separators=(",", ":")
        ).encode("utf-8")

    def test_row_json_rejects_what_json_rejects(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_row_json({"x": object()})

    def test_cells_round_trip_integer_keys(self):
        cells = {7: True, 12: MISSING}
        decoded = decode_cells(json.loads(json.dumps(encode_cells(cells))))
        assert decoded[7] is True and decoded[12] is MISSING


class TestFraming:
    def test_append_and_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("insert", {"table": "t", "rowid": 1, "row": {"id": 1}})
        wal.append("delete", {"table": "t", "rowid": 1})
        wal.close()
        records, valid = scan_wal(tmp_path / "wal.log")
        assert [record["op"] for record in records] == ["insert", "delete"]
        assert [record["lsn"] for record in records] == [1, 2]
        assert valid == (tmp_path / "wal.log").stat().st_size

    def test_encoded_last_field_is_spliced_byte_identically(self, tmp_path):
        row = {"id": 1, "name": "Zo\u00eb", "score": MISSING}
        plain = WriteAheadLog(tmp_path / "plain.log")
        plain.append("insert", {"table": "t", "rowid": 1, "row": encode_row(row)})
        plain.close()
        spliced = WriteAheadLog(tmp_path / "spliced.log")
        encoded = EncodedJSON(encode_row(row), encode_row_json(row))
        assert json.dumps(encoded) == json.dumps(encode_row(row))
        spliced.append("insert", {"table": "t", "rowid": 1, "row": encoded})
        spliced.close()
        assert (tmp_path / "spliced.log").read_bytes() == (tmp_path / "plain.log").read_bytes()

    def test_missing_file_scans_empty(self, tmp_path):
        assert scan_wal(tmp_path / "nothing.log") == ([], 0)

    def test_unknown_record_type_is_rejected(self, tmp_path):
        # RECORD_TYPES is the closed vocabulary recovery knows how to
        # replay; appending outside it would strand unreadable records.
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(PersistenceError, match="unknown WAL record type"):
            wal.append("compact", {"table": "t"})
        wal.close()
        assert scan_wal(tmp_path / "wal.log") == ([], 0)

    def test_record_types_cover_the_replay_vocabulary(self):
        assert RECORD_TYPES == {
            "create_table",
            "drop_table",
            "insert",
            "update",
            "delete",
            "fill",
            "add_column",
            "create_index",
            "enum_answers",
            "worker_stats",
        }

    def test_torn_tail_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"table": "t", "rowid": 1, "row": {}})
        wal.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 500, 123) + b"short")
        records, valid = scan_wal(path)
        assert len(records) == 1
        assert valid == intact

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"table": "t", "rowid": 1, "row": {}})
        wal.append("insert", {"table": "t", "rowid": 2, "row": {}})
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last payload
        path.write_bytes(bytes(data))
        records, _valid = scan_wal(path)
        assert len(records) == 1

    def test_crc_catches_in_place_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        blob = json.dumps({"lsn": 1, "op": "noop"}).encode()
        path.write_bytes(struct.pack("<II", len(blob), crc32(blob) ^ 1) + blob)
        assert scan_wal(path) == ([], 0)


class TestDurabilityModes:
    def test_full_fsyncs_every_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", synchronous="full")
        for i in range(5):
            wal.append("insert", {"rowid": i})
        assert wal.fsyncs == 5
        wal.close()

    def test_normal_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", synchronous="normal", group_size=4)
        for i in range(10):
            wal.append("insert", {"rowid": i})
        assert wal.fsyncs == 2  # two full groups of four
        wal.flush()
        assert wal.fsyncs == 3  # the remaining two records
        wal.flush()
        assert wal.fsyncs == 3  # nothing pending: flush is free
        wal.close()

    def test_off_never_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", synchronous="off")
        for i in range(10):
            wal.append("insert", {"rowid": i})
        wal.flush()
        wal.close()
        assert wal.fsyncs == 0
        # ... but the records are still written and readable.
        records, _ = scan_wal(tmp_path / "wal.log")
        assert len(records) == 10

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WriteAheadLog(tmp_path / "wal.log", synchronous="eventually")
        assert "full" in SYNCHRONOUS_MODES

    def test_invalid_group_size_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WriteAheadLog(tmp_path / "wal.log", group_size=0)

    def test_truncate_discards_records_keeps_lsn(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append("insert", {"rowid": 1})
        wal.truncate()
        assert path.stat().st_size == 0
        lsn = wal.append("insert", {"rowid": 2})
        assert lsn == 2  # LSNs are monotone across truncations
        wal.close()


def _frames(path) -> list[bytes]:
    """The raw payload bytes of every record in a WAL file."""
    data = path.read_bytes()
    blobs, offset = [], 0
    while offset < len(data):
        length, _checksum = struct.unpack_from("<II", data, offset)
        blobs.append(data[offset + 8 : offset + 8 + length])
        offset += 8 + length
    return blobs


class TestInsertRecordBytes:
    """The row is encoded once; its WAL record keeps the old bytes."""

    def test_insert_payloads_equal_the_dump_of_the_record_dict(self, tmp_path):
        import repro

        conn = repro.connect(path=tmp_path / "db", checkpoint_interval=None)
        conn.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, r REAL, s TEXT, b BOOLEAN)"
        )
        conn.executemany(
            "INSERT INTO t (id, i, r, s, b) VALUES (?, ?, ?, ?, ?)",
            [
                (1, 7, 0.1, "plain", True),
                (2, None, 2.5, "Zo\u00eb \u2603 \u65e5\u672c", False),
                (3, True, 1e300, 'quote " backslash \\ newline \n', None),
            ],
        )
        conn.execute("ALTER TABLE t ADD COLUMN extra INTEGER DEFAULT 7")
        conn.add_perceptual_column("t", "vibe")
        conn.execute("INSERT INTO t (id, i, r, s, b) VALUES (?, ?, ?, ?, ?)", (4, 2, -0.0, "y", 1))
        conn.close()

        expected = {
            1: {"id": 1, "i": 7, "r": 0.1, "s": "plain", "b": True},
            2: {"id": 2, "i": None, "r": 2.5, "s": "Zo\u00eb \u2603 \u65e5\u672c", "b": False},
            3: {"id": 3, "i": 1, "r": 1e300, "s": 'quote " backslash \\ newline \n', "b": None},
            4: {"id": 4, "i": 2, "r": -0.0, "s": "y", "b": True, "extra": 7, "vibe": MISSING},
        }
        inserts = [
            blob for blob in _frames(tmp_path / "db" / "wal.log") if b'"op":"insert"' in blob
        ]
        assert len(inserts) == len(expected)
        for blob in inserts:
            record = json.loads(blob)
            rowid = record["rowid"]
            assert blob == json.dumps(
                {
                    "lsn": record["lsn"],
                    "op": "insert",
                    "table": "t",
                    "rowid": rowid,
                    "row": encode_row(expected[rowid]),
                },
                separators=(",", ":"),
            ).encode("utf-8")


# ---------------------------------------------------------------------------
# Replay property: any byte prefix of a valid log recovers to the state of
# the statements whose records fully survived the cut.
# ---------------------------------------------------------------------------

#: One generated operation: ("insert", key, value) / ("update", key, value) /
#: ("delete", key) / ("fill", key, value).  Keys index into the rows the
#: model knows exist; inserts always append.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 30), st.integers(-5, 5)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(-5, 5)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just(0)),
        st.tuples(st.just("fill"), st.integers(0, 30), st.integers(-5, 5)),
    ),
    min_size=1,
    max_size=12,
)


def _apply_ops(conn, ops) -> int:
    """Run *ops* against a connection; returns statements issued (including
    the CREATE TABLE, i.e. the number of WAL records produced)."""
    conn.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, score REAL PERCEPTUAL)"
    )
    issued = 1
    next_id = 1
    live: list[int] = []
    for op, key, value in ops:
        if op == "insert":
            conn.execute("INSERT INTO t (id, v) VALUES (?, ?)", (next_id, value))
            live.append(next_id)
            next_id += 1
        elif op == "update" and live:
            conn.execute("UPDATE t SET v = ? WHERE id = ?", (value, live[key % len(live)]))
        elif op == "delete" and live:
            target = live.pop(key % len(live))
            conn.execute("DELETE FROM t WHERE id = ?", (target,))
        elif op == "fill" and live:
            target = live[key % len(live)]
            storage = conn.table("t")
            rowid = next(rowid for rowid, row in storage.scan() if row["id"] == target)
            storage.fill_values(
                "score",
                {rowid: float(value)},
                provenance="crowd",
                confidences={rowid: 0.75},
            )
        else:
            continue
        issued += 1
    return issued


def _table_state(conn) -> tuple:
    storage = conn.table("t")
    rows = tuple(sorted((rowid, tuple(sorted(row.items()))) for rowid, row in storage.scan()))
    provenance = tuple(
        sorted(
            (rowid, entry.source, entry.confidence)
            for rowid, entry in storage.provenance_map("score").items()
        )
    )
    return rows, provenance, storage.next_rowid


@settings(max_examples=25, deadline=None)
@given(ops=_OPS, cut_fraction=st.floats(0.0, 1.0))
def test_wal_replay_prefix_property(tmp_path_factory, ops, cut_fraction):
    """Truncating the WAL at *any* byte offset (torn final record included)
    recovers exactly the catalog produced by the statements whose records
    survived the cut — never a corrupt or half-applied state."""
    import repro

    base = tmp_path_factory.mktemp("wal-property")
    full_dir = base / "full"
    conn = repro.connect(path=full_dir, synchronous="off", checkpoint_interval=None)
    _apply_ops(conn, ops)
    conn.close()

    wal_bytes = (full_dir / "wal.log").read_bytes()
    cut = int(len(wal_bytes) * cut_fraction)
    prefix_records, valid = scan_wal(full_dir / "wal.log")
    kept = [record for record in prefix_records]  # all records of the full log
    assert valid == len(wal_bytes)

    # Build the truncated incarnation and recover it.
    cut_dir = base / "cut"
    cut_dir.mkdir()
    (cut_dir / "wal.log").write_bytes(wal_bytes[:cut])
    recovered = repro.connect(path=cut_dir, checkpoint_interval=None)

    # Expected state: replay the surviving record prefix directly.
    surviving, _ = scan_wal(cut_dir / "wal.log")
    assert surviving == kept[: len(surviving)]
    expected_dir = base / "expected"
    expected_manager = DurabilityManager(expected_dir, checkpoint_interval=None)
    for record in surviving:
        expected_manager._apply(record)
    expected_conn = repro.connect(expected_manager.catalog)

    if not surviving:
        assert recovered.table_names() == []
    else:
        assert recovered.table_names() == expected_conn.table_names()
        assert _table_state(recovered) == _table_state(expected_conn)
    recovered.close()
    expected_manager.close()
