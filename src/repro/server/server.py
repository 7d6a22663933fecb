"""Asyncio front-end multiplexing wire clients onto one shared catalog.

One :class:`ReproServer` process owns the database (the directory lock,
WAL and snapshots of a durable catalog) and serves many concurrent client
connections over the length-prefixed JSON protocol of
:mod:`repro.server.protocol`.  The design separates three planes:

* the **event loop** (one thread) parses frames, authenticates tenants,
  applies rate limits and admission control, and never executes a
  statement itself;
* a **bounded statement executor** (``executor_threads`` worker threads)
  runs the blocking engine calls — ``Catalog.lock`` serialises storage
  access anyway, so extra threads buy overlap of crowd-platform latency
  and WAL fsyncs, not CPU parallelism;
* the **crowd plane** stays catalog-shared: every tenant session
  dispatches through the same
  :class:`~repro.crowd.runtime.AcquisitionRuntime`, so the answer cache
  and in-flight coalescing work *across* tenants.

Admission control is deliberately a hard reject, not a queue: once
``max_inflight`` statements are executing, further requests get a typed
``overloaded`` wire error immediately.  Backpressure the client can see
beats an invisible queue that converts overload into timeout soup.

Graceful shutdown (SIGTERM/SIGINT or :meth:`ReproServer.stop`): stop
accepting, let in-flight statements finish (bounded by ``drain_grace``),
flush the WAL group-commit buffer, publish a final snapshot checkpoint,
release the directory lock, stop the worker pool.  Acknowledged
statements are therefore on disk before the process exits — the
subprocess kill/recovery test pins this contract.
"""

from __future__ import annotations

import asyncio
import logging
import re
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
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
    #: Buffer-pool capacity of the paged row store (``None`` keeps the
    #: engine default, ``0`` disables paging); durable databases only.
    buffer_pool_pages: int | None = None
    #: Hard cap on concurrently executing statements (admission control).
    max_inflight: int = 64
    #: Worker threads running blocking engine calls.
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
        asyncio.run(server.serve_async(install_signal_handlers=True))

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
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._handlers: set[_ClientHandler] = set()
        self._inflight = 0
        self._draining = False
        self._bound: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.total_requests = 0
        self.total_rejected = 0

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
        self._executor = ThreadPoolExecutor(
            max_workers=config.executor_threads, thread_name_prefix="repro-serve"
        )

    async def serve_async(
        self,
        *,
        install_signal_handlers: bool = False,
        ready: Callable[["ReproServer"], None] | None = None,
    ) -> None:
        """Open the database, accept clients, block until stop, then drain."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        await loop.run_in_executor(None, self._open_database)
        try:
            server = await asyncio.start_server(
                self._accept, self.config.host, self.config.port
            )
        except BaseException:
            await loop.run_in_executor(None, self._shutdown_engine)
            raise
        host, port = server.sockets[0].getsockname()[:2]
        self._bound = (host, port)
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    break  # non-Unix / non-main-thread loop: rely on stop()
        durable = "durable" if self.config.path is not None else "in-memory"
        logger.info("repro server listening on %s:%d (%s)", host, port, durable)
        if ready is not None:
            ready(self)
        try:
            async with server:
                await self._stop_event.wait()
                await self._drain(server)
        finally:
            await loop.run_in_executor(None, self._shutdown_engine)
            self._bound = None

    def request_stop(self) -> None:
        """Begin graceful shutdown (signal handler / loop-thread callers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        """Stop accepting, finish in-flight statements, close handlers."""
        self._draining = True
        server.close()
        await server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        while any(h.busy for h in self._handlers) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for handler in list(self._handlers):
            handler.kick()
        while self._handlers and loop.time() < deadline + 5.0:
            await asyncio.sleep(0.02)

    def _shutdown_engine(self) -> None:
        """Flush + checkpoint + close the database; stop the worker pool."""
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
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- background-thread mode ---------------------------------------------

    def start(self) -> "ReproServer":
        """Run the server on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
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
            asyncio.run(self.serve_async(ready=lambda _server: self._started.set()))
        except BaseException as exc:  # startup or fatal loop error
            self._startup_error = exc
            self._started.set()

    def stop(self, *, timeout: float = 60.0) -> None:
        """Drain and stop a background-thread server (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.request_stop)
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("server thread did not stop within the timeout")
        self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- client handling -----------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = _ClientHandler(self, reader, writer)
        self._handlers.add(handler)
        try:
            await handler.run()
        finally:
            self._handlers.discard(handler)

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
        return {
            "requests": self.total_requests,
            "rejected": self.total_rejected,
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "connections": len(self._handlers),
            "draining": self._draining,
            "acquisition_runtime": runtime_stats,
            "tenants": self.registry.snapshot(),
        }


class _ClientHandler:
    """One wire connection: frame loop, dispatch, server-side cursors."""

    def __init__(
        self,
        server: ReproServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.tenant: TenantState | None = None
        self.connection: Connection | None = None
        self.cursors: dict[int, _ServerCursor] = {}
        self._next_cursor = 1
        self.busy = False
        self._done = False

    async def run(self) -> None:
        try:
            while not self._done and not self.server._draining:
                try:
                    header = await self.reader.readexactly(protocol.HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client closed (possibly mid-frame); nothing to answer
                try:
                    length = protocol.parse_header(
                        header, max_frame=self.server.config.max_frame_bytes
                    )
                except WireProtocolError as exc:
                    # A bad header means the byte stream cannot be
                    # resynced; report the typed error, then hang up.
                    await self._send(protocol.error_response(exc))
                    break
                try:
                    payload = await self.reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                self.busy = True
                try:
                    response = await self._dispatch(payload)
                finally:
                    self.busy = False
                await self._send(response)
        except ConnectionError:  # pragma: no cover - peer reset mid-write
            pass
        finally:
            self._detach()
            self.writer.close()

    def kick(self) -> None:
        """Close the transport so an idle ``readexactly`` wakes up (drain)."""
        self.writer.close()

    def _detach(self) -> None:
        self.cursors.clear()
        connection, self.connection = self.connection, None
        if connection is not None:
            if self.tenant is not None:
                stats = connection.cache_stats()
                self.tenant.fold_cache_stats(stats.hits, stats.misses)
            connection.close()

    async def _send(self, response: dict[str, Any]) -> None:
        try:
            frame = protocol.encode_message(response, max_frame=self.server.config.max_frame_bytes)
        except WireProtocolError as exc:  # e.g. over the frame limit
            self.cursors.pop(response.get("cursor"), None)  # its id never reaches the client
            # The short error frame is held to the protocol's own limit, so
            # even a tiny configured limit cannot silence it.
            frame = protocol.encode_message(protocol.error_response(exc))
        self.writer.write(frame)
        await self.writer.drain()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, payload: bytes) -> dict[str, Any]:
        self.server.total_requests += 1
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
                return await self._admitted(op, message)
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

    async def _admitted(self, op: str, message: dict[str, Any]) -> dict[str, Any]:
        server = self.server
        if server._inflight >= server.config.max_inflight:
            server.total_rejected += 1
            assert self.tenant is not None
            self.tenant.record_rejected()
            raise ServerOverloadedError(
                f"server is at max_inflight={server.config.max_inflight} "
                "concurrent statements; back off and retry"
            )
        executor = server._executor
        assert executor is not None
        runner = {
            "execute": self._run_execute,
            "explain": self._run_explain,
            "pragma": self._run_pragma,
        }[op]
        server._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(executor, runner, message)
        finally:
            server._inflight -= 1

    # -- ops (loop thread) ---------------------------------------------------

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
        max_rows = message.get("max_rows") or self.server.config.fetch_size
        if max_rows < 1:
            raise WireProtocolError("fetch max_rows must be >= 1")
        chunk, done = cursor.take(max_rows)
        if done:
            del self.cursors[cursor_id]
        return {"ok": True, "rows": chunk, "done": done}

    # -- ops (worker threads) ------------------------------------------------

    def _run_execute(self, message: dict[str, Any]) -> dict[str, Any]:
        assert self.connection is not None and self.tenant is not None
        if "many" in message:
            return self._run_execute_many(message)
        params = tuple(protocol.decode_row(message.get("params", [])))
        result = self.connection.run_statement(message["sql"], params)
        fetch_size = message.get("fetch_size") or self.server.config.fetch_size
        if fetch_size < 1:
            raise WireProtocolError("execute fetch_size must be >= 1")
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
            if len(self.cursors) >= self.server.config.max_cursors:
                raise ExecutionError(
                    f"too many open server cursors (max "
                    f"{self.server.config.max_cursors}); fetch or discard first"
                )
            cursor_id = self._next_cursor
            self._next_cursor += 1
            remainder = _ServerCursor(encoded)
            remainder.position = fetch_size
            self.cursors[cursor_id] = remainder
            response["cursor"] = cursor_id
        self.tenant.record_statement(result.rowcount)
        return response

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
