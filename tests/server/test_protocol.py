"""Unit tests for the wire protocol: framing, validation, error taxonomy."""

from __future__ import annotations

import json
import struct

import pytest

from repro.db.types import MISSING
from repro.errors import (
    BudgetExceededError,
    CatalogError,
    ExecutionError,
    IntegrityError,
    RateLimitError,
    ReproError,
    ServerOverloadedError,
    SQLSyntaxError,
    TenantAuthError,
    UnknownColumnError,
    UnknownTableError,
    WireProtocolError,
)
from repro.server import protocol


class TestFraming:
    def test_encode_prepends_length_header(self):
        frame = protocol.encode_message({"op": "close"})
        (length,) = struct.unpack(">I", frame[: protocol.HEADER_SIZE])
        assert length == len(frame) - protocol.HEADER_SIZE
        assert json.loads(frame[protocol.HEADER_SIZE :]) == {"op": "close"}

    def test_encoding_is_canonical(self):
        # Key order must not affect the bytes: the byte-exact round-trip
        # property relies on sorted keys and fixed separators.
        a = protocol.encode_message({"op": "execute", "sql": "SELECT 1"})
        b = protocol.encode_message({"sql": "SELECT 1", "op": "execute"})
        assert a == b
        assert b" " not in a.split(b'"SELECT 1"')[0]

    def test_parse_header_round_trip(self):
        frame = protocol.encode_message({"op": "close"})
        assert protocol.parse_header(frame[:4]) == len(frame) - 4

    def test_truncated_header_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            protocol.parse_header(b"\x00\x00")

    def test_zero_length_frame_rejected(self):
        with pytest.raises(WireProtocolError, match="empty frame"):
            protocol.parse_header(b"\x00\x00\x00\x00")

    def test_oversized_frame_rejected(self):
        huge = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(WireProtocolError, match="exceeds"):
            protocol.parse_header(huge)
        assert protocol.parse_header(huge, max_frame=2**31) > 0

    def test_oversized_message_rejected_on_encode(self):
        with pytest.raises(WireProtocolError, match="exceeds"):
            protocol.encode_message({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_non_json_payload_rejected(self):
        with pytest.raises(WireProtocolError, match="not valid JSON"):
            protocol.decode_payload(b"{nope")

    def test_non_utf8_payload_rejected(self):
        with pytest.raises(WireProtocolError, match="not valid UTF-8"):
            protocol.decode_payload(b"\xff\xfe{}")

    def test_non_object_payload_rejected(self):
        with pytest.raises(WireProtocolError, match="JSON object"):
            protocol.decode_payload(b"[1, 2]")


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(WireProtocolError, match="unknown request op"):
            protocol.validate_request({"op": "drop-tables"})

    def test_missing_required_field(self):
        with pytest.raises(WireProtocolError, match="missing required field 'sql'"):
            protocol.validate_request({"op": "execute"})

    def test_wrong_field_type(self):
        with pytest.raises(WireProtocolError, match="must be str"):
            protocol.validate_request({"op": "execute", "sql": 42})

    def test_unknown_field_rejected(self):
        with pytest.raises(WireProtocolError, match="unknown field"):
            protocol.validate_request({"op": "close", "force": True})

    def test_valid_requests_return_op(self):
        assert protocol.validate_request({"op": "connect", "tenant": "a"}) == "connect"
        assert (
            protocol.validate_request(
                {"op": "execute", "sql": "SELECT 1", "params": [], "fetch_size": 10}
            )
            == "execute"
        )
        assert protocol.validate_request({"op": "fetch", "cursor": 3}) == "fetch"
        assert protocol.validate_request({"op": "close"}) == "close"


class TestRowCodec:
    def test_missing_round_trips(self):
        row = (1, "name", MISSING, 0.5, None, True)
        encoded = protocol.encode_row(row)
        assert json.dumps(encoded)  # JSON-serializable
        assert protocol.decode_row(encoded) == row

    def test_missing_is_distinguished_from_null(self):
        encoded = protocol.encode_row((MISSING, None))
        decoded = protocol.decode_row(encoded)
        assert decoded[0] is MISSING
        assert decoded[1] is None

    def test_non_finite_floats_travel_tagged(self):
        row = (float("nan"), float("inf"), float("-inf"), 1.5, MISSING)
        encoded = protocol.encode_row(row)
        assert encoded[:3] == [{"__float__": "nan"}, {"__float__": "inf"}, {"__float__": "-inf"}]
        frame = protocol.encode_message({"ok": True, "rows": [encoded]})  # strict JSON
        message = protocol.decode_payload(frame[protocol.HEADER_SIZE :])
        assert repr(protocol.decode_row(message["rows"][0])) == repr(row)

    def test_a_dict_that_is_no_tag_stays_a_dict(self):
        assert protocol.decode_row([{"__float__": "pi"}]) == ({"__float__": "pi"},)


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (SQLSyntaxError("bad", position=7), "sql-syntax"),
            (UnknownTableError("movies"), "unknown-table"),
            (UnknownColumnError("appeal", "movies"), "unknown-column"),
            (CatalogError("boom"), "catalog"),
            (IntegrityError("dup key"), "integrity"),
            (ExecutionError("bad op"), "execution"),
            (BudgetExceededError(1.0, 2.5), "budget-exceeded"),
            (TenantAuthError("who?"), "auth"),
            (RateLimitError("slow down"), "rate-limited"),
            (ServerOverloadedError("busy"), "overloaded"),
            (WireProtocolError("bad frame"), "protocol"),
            (ReproError("huh"), "internal"),
        ],
    )
    def test_code_mapping_most_specific_first(self, exc, code):
        assert protocol.code_for_exception(exc) == code

    def test_unknown_exception_maps_to_internal(self):
        assert protocol.code_for_exception(ValueError("x")) == "internal"

    @pytest.mark.parametrize(
        "exc",
        [
            SQLSyntaxError("expected identifier", position=14),
            UnknownTableError("movies"),
            UnknownColumnError("appeal", "movies"),
            UnknownColumnError("appeal"),
            BudgetExceededError(1.5, 3.0),
            TenantAuthError("unknown tenant or bad token: 'x'"),
            ServerOverloadedError("back off"),
            ExecutionError("no such cursor"),
        ],
    )
    def test_round_trip_preserves_type_message_and_payload(self, exc):
        response = protocol.error_response(exc)
        assert response["ok"] is False
        rebuilt = protocol.exception_for_error(response["error"])
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)
        for attr in ("table", "column", "position", "budget", "required"):
            assert getattr(rebuilt, attr, None) == getattr(exc, attr, None)

    def test_unknown_code_degrades_gracefully(self):
        rebuilt = protocol.exception_for_error({"code": "from-the-future", "message": "hi"})
        assert isinstance(rebuilt, ReproError)
        assert "from-the-future" in str(rebuilt)

    def test_error_response_shape(self):
        response = protocol.error_response(UnknownTableError("t"))
        assert response["error"]["code"] == "unknown-table"
        assert response["error"]["type"] == "UnknownTableError"
        assert response["error"]["data"] == {"table": "t"}
