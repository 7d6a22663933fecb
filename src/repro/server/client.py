"""Synchronous wire client for the served database.

``repro.client.connect(host, port)`` speaks the length-prefixed JSON
protocol of :mod:`repro.server.protocol` over a plain TCP socket and
exposes the same cursor surface as the in-process
:class:`~repro.db.connection.Connection`, so application code moves
between embedded and served deployments by changing one ``connect`` call::

    conn = repro.client.connect("127.0.0.1", 7457, tenant="alice")
    cur = conn.execute("SELECT title FROM items WHERE appeal > ?", (0.5,))
    for (title,) in cur:
        ...

Failed requests re-raise the *typed* exception the server reported
(:func:`repro.server.protocol.exception_for_error`): an unknown column is
an :class:`~repro.errors.UnknownColumnError` here exactly as it would be
in-process, budget exhaustion is a :class:`~repro.errors.BudgetExceededError`,
and so on.  The client is thread-safe by serialising requests on one lock
(one in-flight request per connection — the protocol is strictly
request/response).
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Iterator, Sequence

from repro.errors import WireProtocolError
from repro.server import protocol

__all__ = ["ClientConnection", "ClientCursor", "connect"]


def connect(
    host: str = "127.0.0.1",
    port: int = 7457,
    *,
    tenant: str = "default",
    token: str | None = None,
    timeout: float | None = 30.0,
) -> "ClientConnection":
    """Open a wire connection and perform the ``connect`` handshake."""
    return ClientConnection(host, port, tenant=tenant, token=token, timeout=timeout)


class ClientConnection:
    """One authenticated wire connection to a :class:`ReproServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        token: str | None = None,
        timeout: float | None = 30.0,
    ) -> None:
        self.tenant = tenant
        self._sock: socket.socket | None = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._lock = threading.Lock()
        handshake: dict[str, Any] = {
            "op": "connect",
            "tenant": tenant,
            "protocol": protocol.PROTOCOL_VERSION,
        }
        if token is not None:
            handshake["token"] = token
        try:
            hello = self.request(handshake)
        except BaseException:
            self.close()
            raise
        #: Server properties from the handshake (durable, fetch_size, ...).
        self.server_info: dict[str, Any] = hello.get("server", {})
        #: The tenant's budget/usage snapshot at connect time.
        self.tenant_info: dict[str, Any] = hello.get("tenant", {})

    # -- wire ----------------------------------------------------------------

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request frame, await its response, raise typed errors."""
        with self._lock:
            sock = self._sock
            if sock is None:
                raise WireProtocolError("client connection is closed")
            sock.sendall(protocol.encode_message(message))
            header = self._read_exactly(sock, protocol.HEADER_SIZE)
            length = protocol.parse_header(header)
            payload = self._read_exactly(sock, length)
        response = protocol.decode_payload(payload)
        if not response.get("ok"):
            error = response.get("error")
            if not isinstance(error, dict):
                raise WireProtocolError(f"malformed error response: {response!r}")
            raise protocol.exception_for_error(error)
        return response

    @staticmethod
    def _read_exactly(sock: socket.socket, n: int) -> bytes:
        chunks: list[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError(
                    f"server closed the connection mid-frame ({remaining} bytes short)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- DB-API-ish surface --------------------------------------------------

    def cursor(self) -> "ClientCursor":
        return ClientCursor(self)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "ClientCursor":
        """Shortcut: create a cursor and execute *sql* on it."""
        return self.cursor().execute(sql, params)

    def explain(self, sql: str, params: Sequence[Any] = ()) -> str:
        response = self.request(self._explain_request(sql, params, analyze=False))
        return str(response["plan"])

    def explain_analyze(self, sql: str, params: Sequence[Any] = ()) -> str:
        response = self.request(self._explain_request(sql, params, analyze=True))
        return str(response["plan"])

    @staticmethod
    def _explain_request(
        sql: str, params: Sequence[Any], *, analyze: bool
    ) -> dict[str, Any]:
        message: dict[str, Any] = {"op": "explain", "sql": sql, "analyze": analyze}
        if params:
            message["params"] = list(protocol.encode_row(params))
        return message

    def pragma(self, name: str, value: Any = None) -> list[tuple[Any, ...]]:
        """Run ``PRAGMA name [= value]`` server-side; returns its rows."""
        message: dict[str, Any] = {"op": "pragma", "name": name}
        if value is not None:
            message["value"] = value
        response = self.request(message)
        return [protocol.decode_row(row) for row in response.get("rows", [])]

    def server_stats(self) -> dict[str, Any]:
        """The server's counters and per-tenant snapshots."""
        response = self.request({"op": "pragma", "name": "server_stats"})
        stats = response.get("stats")
        return stats if isinstance(stats, dict) else {}

    def commit(self) -> None:
        """No-op for API parity: the served engine auto-commits, and the
        server flushes/checkpoints durably on graceful shutdown."""

    def close(self) -> None:
        """Send ``close`` (best-effort) and shut the socket down."""
        sock = self._sock
        if sock is None:
            return
        try:
            self.request({"op": "close"})
        except Exception:
            pass  # the server may already be gone; closing is best-effort
        with self._lock:
            sock, self._sock = self._sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass

    @property
    def closed(self) -> bool:
        return self._sock is None

    def __enter__(self) -> "ClientConnection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ClientCursor:
    """Cursor over served query results with transparent ``fetch`` paging."""

    def __init__(self, connection: ClientConnection) -> None:
        self.connection = connection
        self.columns: list[str] = []
        self.rowcount: int = -1
        #: Chao92 enumeration statistics of the last ``INSERT ... FROM
        #: CROWD`` statement (None for every other statement) — the same
        #: dict a local ``QueryResult.enumeration`` carries.
        self.enumeration: dict[str, Any] | None = None
        self._rows: list[tuple[Any, ...]] = []
        self._cursor_id: int | None = None
        self._done = True

    @property
    def description(self) -> list[tuple[Any, ...]] | None:
        """DB-API style 7-tuples (name plus six Nones), or None."""
        if not self.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self.columns]

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "ClientCursor":
        message: dict[str, Any] = {"op": "execute", "sql": sql}
        if params:
            message["params"] = protocol.encode_row(params)
        return self._run(message)

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[Any]]
    ) -> "ClientCursor":
        """Run *sql* once per parameter tuple in one request; the server
        applies the local ``executemany`` rules (no row-returning
        statements, no ``INSERT ... FROM CROWD``)."""
        many = [protocol.encode_row(params) for params in seq_of_params]
        return self._run({"op": "execute", "sql": sql, "many": many})

    def _run(self, message: dict[str, Any]) -> "ClientCursor":
        self._discard_pending()
        response = self.connection.request(message)
        self.columns = [str(c) for c in response.get("columns", [])]
        self.rowcount = int(response.get("rowcount", -1))
        self.enumeration = response.get("enumeration")
        self._rows = [protocol.decode_row(row) for row in response.get("rows", [])]
        self._done = bool(response.get("done", True))
        self._cursor_id = response.get("cursor") if not self._done else None
        return self

    def _discard_pending(self) -> None:
        if self._cursor_id is not None:
            try:
                self.connection.request(
                    {"op": "fetch", "cursor": self._cursor_id, "discard": True}
                )
            finally:
                self._cursor_id = None
        self._rows = []
        self._done = True

    def _fetch_more(self) -> None:
        if self._done or self._cursor_id is None:
            self._done = True
            return
        response = self.connection.request({"op": "fetch", "cursor": self._cursor_id})
        self._rows.extend(
            protocol.decode_row(row) for row in response.get("rows", [])
        )
        self._done = bool(response.get("done", True))
        if self._done:
            self._cursor_id = None

    def fetchone(self) -> tuple[Any, ...] | None:
        while not self._rows and not self._done:
            self._fetch_more()
        if not self._rows:
            return None
        return self._rows.pop(0)

    def fetchmany(self, size: int = 1) -> list[tuple[Any, ...]]:
        out: list[tuple[Any, ...]] = []
        for _ in range(max(0, size)):
            row = self.fetchone()
            if row is None:
                break
            out.append(row)
        return out

    def fetchall(self) -> list[tuple[Any, ...]]:
        while not self._done:
            self._fetch_more()
        rows, self._rows = self._rows, []
        return rows

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._discard_pending()
