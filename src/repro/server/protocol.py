"""Length-prefixed JSON wire protocol for the served database.

Every message — request or response — travels as one *frame*::

    +----------------+----------------------------------------+
    | length (4B BE) | payload: canonical UTF-8 JSON object   |
    +----------------+----------------------------------------+

The payload is canonical JSON (sorted keys, no whitespace), so encoding is
deterministic: ``encode_message(decode_payload(p)) == frame(p)`` for every
valid payload, the byte-exact round-trip property the fuzz tests pin down.
The module is sans-IO on purpose: the server's connection threads and the
synchronous client share these functions, each supplying its own byte
transport.

Requests carry an ``op`` field (:data:`REQUEST_OPS`); responses carry
``ok``.  A failed request answers ``{"ok": false, "error": {...}}`` whose
``code`` comes from the wire-error taxonomy below — a stable mapping from
the :mod:`repro.errors` hierarchy, so the client can re-raise the *typed*
exception (including structured payloads like the offending table/column
name) instead of a stringly generic one.

Cell values (query parameters and result rows) are encoded with the WAL's
JSON value codec (:func:`repro.db.wal.encode_value`), so the MISSING
sentinel round-trips the wire exactly like it round-trips the log.  Strict
JSON has no NaN or infinity, so a non-finite float travels tagged the same
way: ``{"__float__": "nan"}``, ``"inf"`` or ``"-inf"``.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Callable, Mapping, Sequence

from repro.db.wal import decode_value, encode_value
from repro.errors import (
    BudgetExceededError,
    CatalogError,
    CrowdError,
    DatabaseError,
    DuplicateColumnError,
    DuplicateTableError,
    ExecutionError,
    IntegrityError,
    ParameterBindingError,
    PersistenceError,
    PlanningError,
    RateLimitError,
    ReproError,
    ServerError,
    ServerOverloadedError,
    SQLSyntaxError,
    TenantAuthError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    WireProtocolError,
)

__all__ = [
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "code_for_exception",
    "decode_payload",
    "decode_row",
    "encode_message",
    "encode_row",
    "error_response",
    "exception_for_error",
    "parse_header",
    "validate_request",
]

#: Wire-format version, negotiated in the ``connect`` handshake.
PROTOCOL_VERSION = 1

#: Bytes of the big-endian unsigned frame-length prefix.
HEADER_SIZE = 4

#: Default ceiling on one frame's payload size.  Generous enough for any
#: legitimate batch of rows, small enough that a garbage header cannot
#: make the server allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The request operations the server understands.
REQUEST_OPS = frozenset({"connect", "execute", "fetch", "explain", "pragma", "close"})

_HEADER = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_message(message: Mapping[str, Any], *, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize *message* as one frame (header + canonical JSON payload).

    A payload longer than *max_frame* bytes raises :class:`WireProtocolError`.
    """
    try:
        payload = json.dumps(
            dict(message), sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > max_frame:
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame limit"
        )
    return _HEADER.pack(len(payload)) + payload


def parse_header(header: bytes, *, max_frame: int = MAX_FRAME_BYTES) -> int:
    """Validate a frame header and return the payload length it announces."""
    if len(header) != HEADER_SIZE:
        raise WireProtocolError(
            f"truncated frame header: got {len(header)} of {HEADER_SIZE} bytes"
        )
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise WireProtocolError("empty frame (zero-length payload)")
    if length > max_frame:
        raise WireProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte frame limit"
        )
    return length


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Decode one frame payload into a message dict (or raise, typed)."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"frame payload is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise WireProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise WireProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

#: Per-op required and optional fields: ``name -> (types, required)``.
_FIELD_SPECS: dict[str, dict[str, tuple[tuple[type, ...], bool]]] = {
    "connect": {
        "tenant": ((str,), True),
        "token": ((str, type(None)), False),
        "protocol": ((int,), False),
    },
    "execute": {
        "sql": ((str,), True),
        "params": ((list,), False),
        # executemany: one parameter list per execution, in one request.
        "many": ((list,), False),
        "fetch_size": ((int,), False),
    },
    "fetch": {
        "cursor": ((int,), True),
        "max_rows": ((int,), False),
        "discard": ((bool,), False),
    },
    "explain": {
        "sql": ((str,), True),
        "params": ((list,), False),
        "analyze": ((bool,), False),
    },
    "pragma": {
        "name": ((str,), True),
        "value": ((str, int, float, bool, type(None)), False),
    },
    "close": {},
}


def validate_request(message: Mapping[str, Any]) -> str:
    """Check *message* against the request schema; returns its ``op``."""
    op = message.get("op")
    if not isinstance(op, str) or op not in REQUEST_OPS:
        raise WireProtocolError(
            f"unknown request op {op!r}; expected one of {sorted(REQUEST_OPS)}"
        )
    spec = _FIELD_SPECS[op]
    for field, (types, required) in spec.items():
        if field not in message:
            if required:
                raise WireProtocolError(f"request {op!r} is missing required field {field!r}")
            continue
        value = message[field]
        if not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            raise WireProtocolError(
                f"request {op!r} field {field!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    unknown = set(message) - set(spec) - {"op"}
    if unknown:
        raise WireProtocolError(
            f"request {op!r} has unknown field(s): {', '.join(sorted(unknown))}"
        )
    return op


# ---------------------------------------------------------------------------
# Row / value codec (shared with the WAL's JSON value encoding)
# ---------------------------------------------------------------------------


#: Cell classes that are JSON values as they are.
_JSON_CELLS = frozenset({int, str, bool, type(None)})


def encode_row(row: Sequence[Any]) -> list[Any]:
    """Encode one result tuple or parameter list for the wire."""
    return [value if value.__class__ in _JSON_CELLS else _encode_cell(value) for value in row]


def _encode_cell(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(float(value))}  # "nan", "inf" or "-inf"
    return encode_value(value)


def decode_row(row: Sequence[Any]) -> tuple[Any, ...]:
    """Inverse of :func:`encode_row`."""
    return tuple(_decode_cell(value) if value.__class__ is dict else value for value in row)


def _decode_cell(value: dict[str, Any]) -> Any:
    tag = value.get("__float__")
    return float(tag) if tag in ("nan", "inf", "-inf") else decode_value(value)


# ---------------------------------------------------------------------------
# Wire-error taxonomy
# ---------------------------------------------------------------------------

#: Exception -> wire code, most specific first (isinstance walk order).
_CODES: tuple[tuple[type[ReproError], str], ...] = (
    (SQLSyntaxError, "sql-syntax"),
    (ParameterBindingError, "parameter-binding"),
    (PlanningError, "planning"),
    (UnknownTableError, "unknown-table"),
    (UnknownColumnError, "unknown-column"),
    (DuplicateTableError, "duplicate-table"),
    (DuplicateColumnError, "duplicate-column"),
    (CatalogError, "catalog"),
    (TypeMismatchError, "type-mismatch"),
    (IntegrityError, "integrity"),
    (PersistenceError, "persistence"),
    (ExecutionError, "execution"),
    (DatabaseError, "database"),
    (BudgetExceededError, "budget-exceeded"),
    (CrowdError, "crowd"),
    (TenantAuthError, "auth"),
    (RateLimitError, "rate-limited"),
    (ServerOverloadedError, "overloaded"),
    (WireProtocolError, "protocol"),
    (ServerError, "server"),
    (ReproError, "internal"),
)

#: Wire code -> factory rebuilding the typed exception client-side.
#: Factories take ``(message, data)``; *data* carries the structured
#: payload of exceptions whose constructors want more than a message.
def _rebuild_sql_syntax(message: str, data: dict[str, Any]) -> SQLSyntaxError:
    # The server-side message already carries the "(at position N)" suffix;
    # restore the position attribute without re-appending it.
    exc = SQLSyntaxError(message)
    position = data.get("position")
    if isinstance(position, int):
        exc.position = position
    return exc


_FACTORIES: dict[str, Callable[[str, dict[str, Any]], ReproError]] = {
    "sql-syntax": _rebuild_sql_syntax,
    "parameter-binding": lambda m, d: ParameterBindingError(m),
    "planning": lambda m, d: PlanningError(m),
    "unknown-table": lambda m, d: (
        UnknownTableError(d["table"]) if "table" in d else CatalogError(m)
    ),
    "unknown-column": lambda m, d: (
        UnknownColumnError(d["column"], d.get("table")) if "column" in d else CatalogError(m)
    ),
    "duplicate-table": lambda m, d: (
        DuplicateTableError(d["table"]) if "table" in d else CatalogError(m)
    ),
    "duplicate-column": lambda m, d: (
        DuplicateColumnError(d["column"], d.get("table")) if "column" in d else CatalogError(m)
    ),
    "catalog": lambda m, d: CatalogError(m),
    "type-mismatch": lambda m, d: TypeMismatchError(m),
    "integrity": lambda m, d: IntegrityError(m),
    "persistence": lambda m, d: PersistenceError(m),
    "execution": lambda m, d: ExecutionError(m),
    "database": lambda m, d: DatabaseError(m),
    "budget-exceeded": lambda m, d: (
        BudgetExceededError(float(d["budget"]), float(d["required"]))
        if "budget" in d and "required" in d
        else CrowdError(m)
    ),
    "crowd": lambda m, d: CrowdError(m),
    "auth": lambda m, d: TenantAuthError(m),
    "rate-limited": lambda m, d: RateLimitError(m),
    "overloaded": lambda m, d: ServerOverloadedError(m),
    "protocol": lambda m, d: WireProtocolError(m),
    "server": lambda m, d: ServerError(m),
    "internal": lambda m, d: ReproError(m),
}


def code_for_exception(exc: BaseException) -> str:
    """The wire-error code of *exc* (``"internal"`` for anything unknown)."""
    for exc_type, code in _CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def _error_data(exc: BaseException) -> dict[str, Any]:
    """Structured payload letting the client rebuild the exact exception."""
    data: dict[str, Any] = {}
    for attr in ("table", "column", "position", "budget", "required"):
        value = getattr(exc, attr, None)
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            data[attr] = value
    return data


def error_response(exc: BaseException) -> dict[str, Any]:
    """The ``{"ok": false, ...}`` response reporting *exc* to the client."""
    error: dict[str, Any] = {
        "code": code_for_exception(exc),
        "message": str(exc),
        "type": type(exc).__name__,
    }
    data = _error_data(exc)
    if data:
        error["data"] = data
    return {"ok": False, "error": error}


def exception_for_error(error: Mapping[str, Any]) -> ReproError:
    """Rebuild the typed exception a failed response describes."""
    code = error.get("code", "internal")
    message = str(error.get("message", "server reported an error"))
    data = error.get("data")
    factory = _FACTORIES.get(code if isinstance(code, str) else "internal")
    if factory is None:
        return ReproError(f"[{code}] {message}")
    return factory(message, dict(data) if isinstance(data, Mapping) else {})
