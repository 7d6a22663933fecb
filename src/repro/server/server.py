"""Threaded front-end serving wire clients from one shared catalog.

One :class:`ReproServer` process owns the database (the directory lock,
WAL and snapshots of a durable catalog) and serves many concurrent client
connections over the length-prefixed JSON protocol of
:mod:`repro.server.protocol`.  The design separates three planes:

* the **accept loop** (one thread) accepts TCP connections and starts one
  thread per connection, so each open connection holds one thread;
* each **connection thread** reads its frames, authenticates its tenant,
  applies the rate limit and admission control, runs the statement on
  the connection's own :class:`~repro.db.connection.Connection` and
  writes the response: a request never hops between threads.  At most
  ``executor_threads`` statements execute at once; ``Catalog.lock``
  serialises storage access anyway, so more threads buy overlap of
  crowd-platform latency and WAL fsyncs, not CPU parallelism;
* the **crowd plane** stays catalog-shared: every tenant session
  dispatches through the same
  :class:`~repro.crowd.runtime.AcquisitionRuntime`, so the answer cache
  and in-flight coalescing work *across* tenants.

Admission control is deliberately a hard reject, not a queue: once
``max_inflight`` statements are admitted, further requests get a typed
``overloaded`` wire error immediately.  Backpressure the client can see
beats an invisible queue that converts overload into timeout soup.

Graceful shutdown (SIGTERM/SIGINT or :meth:`ReproServer.stop`): stop
accepting, let busy connections finish their statement (bounded by
``drain_grace``), shut down every connection's socket so an idle
connection's blocked read wakes, wait for the connection threads, flush
the WAL group-commit buffer, publish a final snapshot checkpoint and
release the directory lock.  Acknowledged statements are therefore on
disk before the process exits — the subprocess kill/recovery test pins
this contract.
"""

from __future__ import annotations

import logging
import re
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import repro
from repro.db.connection import Connection, SessionContext
from repro.errors import (
    ExecutionError,
    RateLimitError,
    ReproError,
    ServerOverloadedError,
    WireProtocolError,
)
from repro.server import protocol
from repro.server.tenancy import (
    TenantConfig,
    TenantRegistry,
    TenantState,
)

__all__ = ["ReproServer", "ServerConfig"]

logger = logging.getLogger("repro.server")

#: Operations that consume engine resources and therefore pass through
#: rate limiting and admission control; ``fetch`` only pages buffered rows.
_ENGINE_OPS = frozenset({"execute", "explain", "pragma"})

_PRAGMA_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: A word value may also name a column, as ``'table.column'``.
_PRAGMA_WORD = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs of a :class:`ReproServer` (see ``docs/server.md``)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Database directory (``None`` serves an in-memory catalog).
    path: Any = None
    synchronous: str | None = None
    checkpoint_interval: int | None = None
    #: Buffer-pool capacity of the paged row store in pages, at least 1
    #: (``None`` keeps the engine default); durable databases only.
    buffer_pool_pages: int | None = None
    #: Hard cap on admitted statements, running or waiting (admission control).
    max_inflight: int = 64
    #: Statements executing at once; the others admitted wait their turn.
    executor_threads: int = 8
    #: Rows inlined into an ``execute`` response before paging via ``fetch``.
    fetch_size: int = 1024
    #: Largest frame payload read from a client or sent to one.
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Seconds the drain waits for in-flight statements on shutdown.
    drain_grace: float = 30.0
    #: Prepared-statement cache size of each wire connection.
    statement_cache_size: int = 128
    #: Open server-side cursors allowed per wire connection.
    max_cursors: int = 32

    def __post_init__(self) -> None:
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        if self.executor_threads < 1:
            raise ValueError("executor_threads must be >= 1")
        if self.fetch_size < 1:
            raise ValueError("fetch_size must be >= 1")
        if self.max_cursors < 1:
            raise ValueError("max_cursors must be >= 1")


class _ServerCursor:
    """Rows of one statement awaiting ``fetch`` paging (already encoded)."""

    __slots__ = ("rows", "position")

    def __init__(self, rows: list[list[Any]]) -> None:
        self.rows = rows
        self.position = 0

    def take(self, n: int) -> tuple[list[list[Any]], bool]:
        chunk = self.rows[self.position : self.position + n]
        self.position += len(chunk)
        return chunk, self.position >= len(self.rows)


class ReproServer:
    """The served database: accept loop, tenancy, admission, drain.

    Use either the blocking entry point (the CLI path)::

        server = ReproServer(ServerConfig(path="db-dir", port=7457))
        server.serve_forever(install_signal_handlers=True)

    or background mode (examples, tests, embedding)::

        with ReproServer(tenants=[...]) as server:
            conn = repro.client.connect(*server.address)

    ``session_factory`` builds each tenant's
    :class:`~repro.db.connection.SessionContext` on first authentication —
    this is where deployments install a crowd value source, predictor and
    budget knobs.  Every tenant session dispatches through the catalog's
    one acquisition runtime.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        tenants: Iterable[TenantConfig] = (),
        allow_unknown_tenants: bool | None = None,
        session_factory: Callable[[TenantConfig], SessionContext] | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServerConfig or keyword overrides, not both")
        self.config = config
        self.registry = TenantRegistry(
            tenants,
            allow_unknown=allow_unknown_tenants,
            session_factory=session_factory,
        )
        self._root: Connection | None = None
        #: One slot per statement allowed to execute at once.
        self._slots = threading.BoundedSemaphore(config.executor_threads)
        #: Guards the handler set and the counters below: every connection
        #: thread updates them.
        self._lock = threading.Lock()
        self._handlers: set[_ClientHandler] = set()
        self._inflight = 0
        self._draining = False
        self.total_requests = 0
        self.total_rejected = 0
        self._stopping = False
        #: Write end of the pair that wakes the accept loop on stop.
        self._wake: socket.socket | None = None
        self._bound: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._bound is None:
            raise RuntimeError("server is not running")
        return self._bound

    @property
    def catalog(self) -> Any:
        if self._root is None:
            raise RuntimeError("server is not running")
        return self._root.catalog

    def _open_database(self) -> None:
        config = self.config
        if config.path is not None:
            kwargs: dict[str, Any] = {"path": config.path}
            if config.synchronous is not None:
                kwargs["synchronous"] = config.synchronous
            if config.checkpoint_interval is not None:
                kwargs["checkpoint_interval"] = config.checkpoint_interval
            if config.buffer_pool_pages is not None:
                kwargs["buffer_pool_pages"] = config.buffer_pool_pages
            self._root = repro.connect(**kwargs)
        else:
            self._root = repro.connect()

    def serve_forever(
        self,
        *,
        install_signal_handlers: bool = False,
        ready: Callable[["ReproServer"], None] | None = None,
    ) -> None:
        """Open the database, accept clients, block until stop, then drain."""
        self._stopping = self._draining = False
        self._open_database()
        try:
            listener = socket.create_server((self.config.host, self.config.port))
        except BaseException:
            self._shutdown_engine()
            raise
        listener.setblocking(False)
        wake_read, wake_write = socket.socketpair()
        wake_write.setblocking(False)
        self._wake = wake_write
        previous: dict[int, Any] = {}
        try:
            host, port = listener.getsockname()[:2]
            self._bound = (host, port)
            if install_signal_handlers:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        previous[signum] = signal.signal(
                            signum, lambda _signum, _frame: self.request_stop()
                        )
                    except ValueError:  # pragma: no cover - not the main thread
                        break  # rely on stop()
            durable = "durable" if self.config.path is not None else "in-memory"
            logger.info("repro server listening on %s:%d (%s)", host, port, durable)
            if ready is not None:
                ready(self)
            self._accept_until_stopped(listener, wake_read)
            listener.close()
            self._drain()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            listener.close()
            self._wake = None
            wake_read.close()
            wake_write.close()
            self._shutdown_engine()
            self._bound = None

    def request_stop(self) -> None:
        """Begin graceful shutdown; safe from a signal handler or any thread."""
        self._stopping = True
        wake = self._wake
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:  # closed, or full of earlier wake-ups
                pass

    def _accept_until_stopped(self, listener: socket.socket, wake: socket.socket) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(listener, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            while not self._stopping:
                for key, _events in selector.select():
                    if key.fileobj is listener:
                        self._accept(listener)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _peer = listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return  # the peer gave up between readiness and accept
        except OSError:  # e.g. out of file descriptors: back off, retry
            logger.exception("accepting a connection failed")
            time.sleep(1.0)
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        handler = _ClientHandler(self, sock)
        with self._lock:
            self._handlers.add(handler)
        try:
            handler.thread.start()
        except RuntimeError:  # no thread to spare: refuse this client only
            logger.exception("starting a connection thread failed")
            with self._lock:
                self._handlers.discard(handler)
                sock.close()

    def _drain(self) -> None:
        """Finish busy connections, wake idle ones, wait for every thread."""
        self._draining = True
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            with self._lock:
                if not any(handler.busy for handler in self._handlers):
                    break
            time.sleep(0.02)
        with self._lock:
            handlers = list(self._handlers)
            for handler in handlers:
                handler.kick()
        for handler in handlers:
            handler.thread.join(timeout=max(0.0, deadline + 5.0 - time.monotonic()))

    def _shutdown_engine(self) -> None:
        """Flush + checkpoint + close the database."""
        root, self._root = self._root, None
        if root is not None and not root.closed:
            durability = root.durability
            if durability is not None and not durability.closed:
                try:
                    durability.flush()
                    durability.checkpoint()
                except ReproError:  # pragma: no cover - disk-full etc.
                    logger.exception("final checkpoint failed; WAL remains authoritative")
            root.close()

    # -- background-thread mode ---------------------------------------------

    def start(self) -> "ReproServer":
        """Run the server on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._started.clear()
        self._thread = threading.Thread(
            target=self._run_background, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            self._thread = None
            self._startup_error = None
            raise error
        if not self._started.is_set():
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run_background(self) -> None:
        try:
            self.serve_forever(ready=lambda _server: self._started.set())
        except BaseException as exc:  # startup or fatal accept-loop error
            self._startup_error = exc
            self._started.set()

    def stop(self, *, timeout: float = 60.0) -> None:
        """Drain and stop a background-thread server (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self.request_stop()
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("server thread did not stop within the timeout")
        self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stats(self) -> dict[str, Any]:
        """Server-level counters plus per-tenant snapshots."""
        runtime_stats: dict[str, Any] | None = None
        root = self._root
        if root is not None:
            runtime = root.catalog._runtime  # shared runtime, if created yet
            if runtime is not None:
                stats = dict(runtime.stats())
                cache = stats.pop("cache")
                stats["cache_hit_rate"] = round(cache.hit_rate, 4)
                stats["cache_size"] = cache.size
                runtime_stats = stats
        with self._lock:
            counters = {
                "requests": self.total_requests,
                "rejected": self.total_rejected,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "connections": len(self._handlers),
                "draining": self._draining,
            }
        return {
            **counters,
            "acquisition_runtime": runtime_stats,
            "tenants": self.registry.snapshot(),
        }


class _ClientHandler:
    """One wire connection on its own thread: frames, dispatch, cursors."""

    def __init__(self, server: ReproServer, sock: socket.socket) -> None:
        self.server = server
        self.sock = sock
        self.thread = threading.Thread(target=self.run, name="repro-connection", daemon=True)
        self.tenant: TenantState | None = None
        self.connection: Connection | None = None
        self.cursors: dict[int, _ServerCursor] = {}
        self._next_cursor = 1
        self.busy = False
        self._done = False

    def run(self) -> None:
        server = self.server
        reader = self.sock.makefile("rb")
        try:
            while not self._done and not server._draining:
                header = reader.read(protocol.HEADER_SIZE)
                if len(header) < protocol.HEADER_SIZE:
                    break  # client closed (possibly mid-frame); nothing to answer
                try:
                    length = protocol.parse_header(header, max_frame=server.config.max_frame_bytes)
                except WireProtocolError as exc:
                    # A bad header means the byte stream cannot be
                    # resynced; report the typed error, then hang up.
                    self._send(protocol.error_response(exc))
                    break
                payload = reader.read(length)
                if len(payload) < length:
                    break
                self.busy = True
                try:
                    response = self._dispatch(payload)
                finally:
                    self.busy = False
                self._send(response)
        except OSError:  # peer reset, or the drain shut the socket mid-write
            pass
        finally:
            try:
                reader.close()
                self._detach()
            finally:
                with server._lock:
                    server._handlers.discard(self)
                    self.sock.close()

    def kick(self) -> None:
        """Shut the socket down so a blocked read wakes (drain, under the server lock)."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # the peer already went away
            pass

    def _detach(self) -> None:
        self.cursors.clear()
        connection, self.connection = self.connection, None
        if connection is not None:
            if self.tenant is not None:
                stats = connection.cache_stats()
                self.tenant.fold_cache_stats(stats.hits, stats.misses)
            connection.close()

    def _send(self, response: dict[str, Any]) -> None:
        try:
            frame = protocol.encode_message(response, max_frame=self.server.config.max_frame_bytes)
        except WireProtocolError as exc:  # e.g. over the frame limit
            self.cursors.pop(response.get("cursor"), None)  # its id never reaches the client
            # The short error frame is held to the protocol's own limit, so
            # even a tiny configured limit cannot silence it.
            frame = protocol.encode_message(protocol.error_response(exc))
        self.sock.sendall(frame)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, payload: bytes) -> dict[str, Any]:
        server = self.server
        with server._lock:
            server.total_requests += 1
        try:
            message = protocol.decode_payload(payload)
            op = protocol.validate_request(message)
        except WireProtocolError as exc:
            return protocol.error_response(exc)
        try:
            if op == "connect":
                return self._do_connect(message)
            if op == "close":
                self._done = True
                return {"ok": True}
            tenant = self.tenant
            if self.connection is None or tenant is None:
                raise WireProtocolError("not connected: send a 'connect' request first")
            if op in _ENGINE_OPS:
                if tenant.bucket is not None and not tenant.bucket.try_acquire():
                    tenant.record_rate_limited()
                    raise RateLimitError(
                        f"tenant {tenant.name!r} exceeded its rate limit of "
                        f"{tenant.config.max_requests_per_second:g} requests/s"
                    )
                return self._admitted(op, message)
            return self._do_fetch(message)
        except ReproError as exc:
            if self.tenant is not None:
                self.tenant.record_error()
            return protocol.error_response(exc)
        except Exception as exc:  # a bug must fail the request, not the server
            logger.exception("unexpected error handling %r request", op)
            if self.tenant is not None:
                self.tenant.record_error()
            return protocol.error_response(exc)

    def _admitted(self, op: str, message: dict[str, Any]) -> dict[str, Any]:
        server = self.server
        with server._lock:
            admitted = server._inflight < server.config.max_inflight
            if admitted:
                server._inflight += 1
            else:
                server.total_rejected += 1
        if not admitted:
            assert self.tenant is not None
            self.tenant.record_rejected()
            raise ServerOverloadedError(
                f"server is at max_inflight={server.config.max_inflight} "
                "concurrent statements; back off and retry"
            )
        runner = {
            "execute": self._run_execute,
            "explain": self._run_explain,
            "pragma": self._run_pragma,
        }[op]
        try:
            with server._slots:
                return runner(message)
        finally:
            with server._lock:
                server._inflight -= 1

    # -- ops ---------------------------------------------------------------

    def _do_connect(self, message: dict[str, Any]) -> dict[str, Any]:
        if self.connection is not None:
            raise WireProtocolError("already connected on this wire connection")
        requested = message.get("protocol", protocol.PROTOCOL_VERSION)
        if requested != protocol.PROTOCOL_VERSION:
            raise WireProtocolError(
                f"unsupported protocol version {requested}; "
                f"server speaks {protocol.PROTOCOL_VERSION}"
            )
        tenant = self.server.registry.authenticate(
            message["tenant"], message.get("token")
        )
        self.tenant = tenant
        tenant.record_connection()
        self.connection = Connection(
            self.server.catalog,
            session=tenant.session,
            statement_cache_size=self.server.config.statement_cache_size,
        )
        return {
            "ok": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "server": {
                "durable": self.server.config.path is not None,
                "max_inflight": self.server.config.max_inflight,
                "fetch_size": self.server.config.fetch_size,
            },
            "tenant": tenant.snapshot(),
        }

    def _do_fetch(self, message: dict[str, Any]) -> dict[str, Any]:
        cursor_id = message["cursor"]
        cursor = self.cursors.get(cursor_id)
        if cursor is None:
            raise ExecutionError(f"unknown or exhausted server cursor {cursor_id}")
        if message.get("discard"):
            del self.cursors[cursor_id]
            return {"ok": True, "rows": [], "done": True}
        chunk, done = cursor.take(message.get("max_rows", self.server.config.fetch_size))
        if done:
            del self.cursors[cursor_id]
        return {"ok": True, "rows": chunk, "done": done}

    def _run_execute(self, message: dict[str, Any]) -> dict[str, Any]:
        assert self.connection is not None and self.tenant is not None
        if "many" in message:
            return self._run_execute_many(message)
        params = tuple(protocol.decode_row(message.get("params", [])))
        # A SELECT may page, so it takes a cursor slot before it runs: with
        # every slot held it is refused before any work, crowd spend
        # included.  This wire connection runs one request at a time, so
        # the slot stays free until the result below claims it (or gives
        # it back by fitting in the first page).
        result = self.connection.run_statement(
            message["sql"], params, admit_select=self._check_cursor_slot
        )
        fetch_size = message.get("fetch_size", self.server.config.fetch_size)
        encoded = [protocol.encode_row(row) for row in result.rows]
        response: dict[str, Any] = {
            "ok": True,
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "rows": encoded[:fetch_size],
            "done": len(encoded) <= fetch_size,
        }
        if result.enumeration is not None:
            # INSERT ... FROM CROWD: ship the Chao92 enumeration statistics
            # (rows enumerated, est_total/est_coverage, stopping reason) so
            # remote clients see exactly what a local QueryResult reports.
            response["enumeration"] = result.enumeration
        if not response["done"]:
            self._check_cursor_slot()  # a paged non-SELECT result (a PRAGMA's)
            cursor_id = self._next_cursor
            self._next_cursor += 1
            remainder = _ServerCursor(encoded)
            remainder.position = fetch_size
            self.cursors[cursor_id] = remainder
            response["cursor"] = cursor_id
        self.tenant.record_statement(result.rowcount)
        return response

    def _check_cursor_slot(self) -> None:
        """Refuse the statement when every server cursor slot is held."""
        if len(self.cursors) >= self.server.config.max_cursors:
            raise ExecutionError(
                f"too many open server cursors (max "
                f"{self.server.config.max_cursors}); fetch or discard first"
            )

    def _run_execute_many(self, message: dict[str, Any]) -> dict[str, Any]:
        """``execute`` with ``many``: the local ``executemany``, one request."""
        assert self.connection is not None and self.tenant is not None
        many = message["many"]
        if "params" in message:
            raise WireProtocolError("execute takes either 'params' or 'many', not both")
        if not all(isinstance(params, list) for params in many):
            raise WireProtocolError("execute field 'many' must be a list of parameter lists")
        batches = [protocol.decode_row(params) for params in many]
        rowcount = self.connection.executemany(message["sql"], batches).rowcount
        self.tenant.record_statement(rowcount)
        return {"ok": True, "columns": [], "rowcount": rowcount, "rows": [], "done": True}

    def _run_explain(self, message: dict[str, Any]) -> dict[str, Any]:
        assert self.connection is not None and self.tenant is not None
        params = tuple(protocol.decode_row(message.get("params", [])))
        if message.get("analyze"):
            plan = self.connection.explain_analyze(message["sql"], params)
        else:
            plan = self.connection.explain(message["sql"], params)
        self.tenant.record_statement(0)
        return {"ok": True, "plan": plan}

    def _run_pragma(self, message: dict[str, Any]) -> dict[str, Any]:
        assert self.connection is not None and self.tenant is not None
        name = message["name"]
        if name == "server_stats":
            self.tenant.record_statement(0)
            return {"ok": True, "stats": self.server.stats()}
        if not _PRAGMA_NAME.match(name):
            raise WireProtocolError(f"invalid pragma name {name!r}")
        value = message.get("value")
        if isinstance(value, str) and not _PRAGMA_WORD.match(value):
            raise WireProtocolError(f"invalid pragma value {value!r}")
        if isinstance(value, bool):
            value = int(value)
        # repr quotes a word and writes a number that round-trips exactly.
        sql = f"PRAGMA {name}" if value is None else f"PRAGMA {name} = {value!r}"
        result = self.connection.run_statement(sql)
        self.tenant.record_statement(result.rowcount)
        return {
            "ok": True,
            "columns": list(result.columns),
            "rows": [protocol.encode_row(row) for row in result.rows],
            "done": True,
        }
