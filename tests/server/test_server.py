"""Integration tests for the served database.

Each test starts a real :class:`ReproServer` (background-thread mode, port
0) and talks to it through the synchronous wire client — the same path a
deployment uses.  The SIGTERM tests run ``python -m repro serve`` as a
subprocess to pin the graceful-drain contract: an acknowledged statement
survives the server being told to shut down.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Sequence

import pytest

import repro
import repro.client
from repro.db.acquisition import AcquisitionPolicy, Dispatch
from repro.db.connection import SessionContext
from repro.db.types import MISSING
from repro.errors import (
    ExecutionError,
    RateLimitError,
    ServerOverloadedError,
    TenantAuthError,
    UnknownTableError,
    WireProtocolError,
)
from repro.server import ReproServer, ServerConfig, TenantConfig, protocol


class CountingSource:
    """ValueSource answering a constant and counting platform dispatches."""

    def __init__(self, value: float = 0.9, cost_per_item: float = 0.05) -> None:
        self.value = value
        self.cost_per_item = cost_per_item
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self._lock = threading.Lock()

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: Any,
        tracker: Any,
    ) -> Dispatch:
        with self._lock:
            self.calls.append((attribute, tuple(rowid for rowid, _row in items)))
        values = {rowid: self.value for rowid, _row in items}
        return Dispatch(values, self.cost_per_item * len(items))


@pytest.fixture()
def server():
    with ReproServer(ServerConfig(port=0, fetch_size=4)) as srv:
        yield srv


class TestBasicServing:
    def test_execute_and_fetch(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        conn.execute("INSERT INTO t VALUES (1, 'a')")
        cur = conn.execute("SELECT * FROM t")
        assert cur.fetchall() == [(1, "a")]
        assert cur.columns == ["id", "name"]
        conn.close()

    def test_cursor_paging_past_fetch_size(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE nums (n INTEGER)")
        cur = conn.cursor()
        for i in range(11):  # fetch_size=4 -> inline 4, paged 7
            cur.execute("INSERT INTO nums VALUES (?)", (i,))
        rows = conn.execute("SELECT n FROM nums ORDER BY n").fetchall()
        assert rows == [(i,) for i in range(11)]
        conn.close()

    def test_parameters_and_missing_round_trip(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute(
            "CREATE TABLE items (item_id INTEGER PRIMARY KEY, appeal REAL PERCEPTUAL)"
        )
        conn.execute("INSERT INTO items (item_id) VALUES (?)", (1,))
        (row,) = conn.execute("SELECT appeal FROM items").fetchall()
        assert row[0] is MISSING
        conn.close()

    def test_non_finite_floats_round_trip(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
        conn.execute("INSERT INTO t VALUES (1, 1e400)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(2, float("-inf")), (3, float("nan"))])
        rows = conn.execute("SELECT id, v FROM t ORDER BY id").fetchall()
        assert repr(rows) == "[(1, inf), (2, -inf), (3, nan)]"
        assert conn.execute("SELECT id FROM t WHERE v = ?", (float("inf"),)).fetchall() == [(1,)]
        conn.close()

    def test_unencodable_response_is_a_typed_error(self):
        config = ServerConfig(port=0, fetch_size=9, max_cursors=1)
        with ReproServer(config) as server:
            conn = repro.client.connect(*server.address, tenant="t")
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            for i in range(10):  # one 1 MiB cell per request, 9 MiB in the first page
                conn.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * (1 << 20)))
            with pytest.raises(WireProtocolError, match="frame limit"):
                conn.execute("SELECT * FROM t")
            # The connection survives, and the failed answer's server cursor
            # is gone: the next paged result may open the only one allowed.
            assert conn.execute("SELECT id FROM t").fetchall() == [(i,) for i in range(10)]
            conn.close()

    def test_configured_frame_limit_bounds_responses(self):
        config = ServerConfig(port=0, fetch_size=9, max_cursors=1, max_frame_bytes=4096)
        with ReproServer(config) as server:
            conn = repro.client.connect(*server.address, tenant="t")
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            for i in range(10):  # one 0.7 KB cell per request
                conn.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 700))
            # The first page, 9 rows of about 720 bytes, is a 6.5 KB answer.
            with pytest.raises(WireProtocolError, match="4096-byte frame limit") as excinfo:
                conn.execute("SELECT * FROM t")
            assert protocol.code_for_exception(excinfo.value) == "protocol"
            # The connection answers the next request, and the failed answer
            # left no server cursor: this paged result opens the only one.
            assert conn.execute("SELECT id FROM t").fetchall() == [(i,) for i in range(10)]
            conn.close()

    def test_typed_errors_cross_the_wire(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        with pytest.raises(UnknownTableError) as excinfo:
            conn.execute("SELECT * FROM nope")
        assert excinfo.value.table == "nope"
        # The connection survives the error.
        conn.execute("CREATE TABLE ok (x INTEGER)")
        conn.close()

    def test_explain_and_pragma(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        assert "SeqScan" in conn.explain("SELECT * FROM t")
        assert "rows=" in conn.explain_analyze("SELECT * FROM t")
        stats = conn.server_stats()
        assert stats["connections"] == 1
        assert stats["tenants"][0]["tenant"] == "t"
        conn.close()

    def test_two_wire_connections_share_data(self, server):
        a = repro.client.connect(*server.address, tenant="a")
        b = repro.client.connect(*server.address, tenant="b")
        a.execute("CREATE TABLE shared (x INTEGER)")
        a.execute("INSERT INTO shared VALUES (42)")
        assert b.execute("SELECT x FROM shared").fetchall() == [(42,)]
        a.close()
        b.close()

    def test_concurrent_clients(self, server):
        setup = repro.client.connect(*server.address, tenant="setup")
        setup.execute("CREATE TABLE log (who TEXT, n INTEGER)")
        setup.close()
        errors: list[BaseException] = []

        def worker(name: str) -> None:
            try:
                conn = repro.client.connect(*server.address, tenant=name)
                for i in range(10):
                    conn.execute("INSERT INTO log VALUES (?, ?)", (name, i))
                conn.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        check = repro.client.connect(*server.address, tenant="check")
        assert check.execute("SELECT COUNT(*) FROM log").fetchall() == [(80,)]
        check.close()


class TestAdmissionAndLimits:
    def test_max_inflight_zero_rejects_everything(self):
        # Degenerate admission control: with zero execution slots every
        # engine-touching request is rejected with the typed overload error.
        with ReproServer(ServerConfig(port=0, max_inflight=0)) as srv:
            conn = repro.client.connect(*srv.address, tenant="t")
            with pytest.raises(ServerOverloadedError, match="max_inflight"):
                conn.execute("SELECT 1")
            # Non-engine ops still work: the connection is fine.
            conn.close()

    def test_rate_limit_enforced_per_tenant(self):
        tenants = [
            TenantConfig(name="slow", max_requests_per_second=0.001, burst=1),
            TenantConfig(name="fast"),
        ]
        with ReproServer(ServerConfig(port=0), tenants=tenants) as srv:
            slow = repro.client.connect(*srv.address, tenant="slow")
            fast = repro.client.connect(*srv.address, tenant="fast")
            fast.execute("CREATE TABLE t (x INTEGER)")
            slow.execute("SELECT x FROM t")  # burst token
            with pytest.raises(RateLimitError, match="slow"):
                slow.execute("SELECT x FROM t")
            # The other tenant is unaffected.
            fast.execute("SELECT x FROM t")
            assert srv.registry.authenticate("slow").rate_limited == 1
            slow.close()
            fast.close()

    def test_auth_required_when_tenants_configured(self):
        tenants = [TenantConfig(name="alice", token="s3cret")]
        with ReproServer(ServerConfig(port=0), tenants=tenants) as srv:
            with pytest.raises(TenantAuthError):
                repro.client.connect(*srv.address, tenant="mallory")
            with pytest.raises(TenantAuthError):
                repro.client.connect(*srv.address, tenant="alice", token="nope")
            conn = repro.client.connect(*srv.address, tenant="alice", token="s3cret")
            conn.close()

    def test_protocol_version_negotiated(self, server):
        import json
        import socket
        import struct

        with socket.create_connection(server.address, timeout=10.0) as sock:
            payload = b'{"op":"connect","tenant":"t","protocol":99}'
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            header = b""
            while len(header) < 4:
                header += sock.recv(4 - len(header))
            (length,) = struct.unpack(">I", header)
            body = b""
            while len(body) < length:
                body += sock.recv(length - len(body))
            response = json.loads(body)
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol"
            assert "version" in response["error"]["message"]


class TestCrowdTenancy:
    def _crowd_server(self, source: CountingSource) -> ReproServer:
        def factory(config: TenantConfig) -> SessionContext:
            # Keep answers out of storage so the cross-tenant zero-call
            # property is carried by the shared AnswerCache, not write-back.
            return SessionContext(
                policy=AcquisitionPolicy(max_cost=config.max_cost, crowd_write_back=False),
                value_source=source,
            )

        tenants = [
            TenantConfig(name="alice", max_cost=5.0),
            TenantConfig(name="bob", max_cost=5.0),
        ]
        return ReproServer(
            ServerConfig(port=0), tenants=tenants, session_factory=factory
        )

    def test_cross_tenant_repeat_costs_zero_platform_calls(self):
        source = CountingSource(cost_per_item=0.05)
        with self._crowd_server(source) as srv:
            alice = repro.client.connect(*srv.address, tenant="alice")
            alice.execute(
                "CREATE TABLE items "
                "(item_id INTEGER PRIMARY KEY, name TEXT, appeal REAL PERCEPTUAL)"
            )
            for i in range(1, 5):
                alice.execute(
                    "INSERT INTO items (item_id, name) VALUES (?, ?)", (i, f"i{i}")
                )
            assert alice.execute(
                "SELECT COUNT(appeal) FROM items"
            ).fetchall() == [(4,)]
            assert len(source.calls) == 1  # one coalesced batch, paid by alice

            # Tenant B repeats the crowd-touching query: the shared answer
            # cache serves it — zero platform calls, zero charge to bob.
            bob = repro.client.connect(*srv.address, tenant="bob")
            assert bob.execute(
                "SELECT COUNT(appeal) FROM items"
            ).fetchall() == [(4,)]
            assert len(source.calls) == 1

            snapshots = {s["tenant"]: s for s in srv.registry.snapshot()}
            assert snapshots["alice"]["cost_spent"] == pytest.approx(0.2)
            assert snapshots["bob"]["cost_spent"] == 0.0
            alice.close()
            bob.close()

    def test_budget_is_enforced_per_tenant_across_reconnects(self):
        source = CountingSource(cost_per_item=0.05)
        with self._crowd_server(source) as srv:
            alice = repro.client.connect(*srv.address, tenant="alice")
            alice.execute(
                "CREATE TABLE items (item_id INTEGER PRIMARY KEY, appeal REAL PERCEPTUAL)"
            )
            alice.execute("INSERT INTO items (item_id) VALUES (1)")
            alice.execute("SELECT COUNT(appeal) FROM items").fetchall()
            spent_before = srv.registry.authenticate("alice").session.cost_spent
            assert spent_before > 0
            alice.close()
            # Budget follows the tenant, not the socket.
            again = repro.client.connect(*srv.address, tenant="alice")
            assert again.tenant_info["cost_spent"] == pytest.approx(spent_before)
            again.close()

    def test_full_cursor_table_refuses_a_select_before_any_crowd_work(self):
        source = CountingSource(cost_per_item=0.05)

        def factory(config: TenantConfig) -> SessionContext:
            return SessionContext(policy=AcquisitionPolicy(), value_source=source)

        config = ServerConfig(port=0, fetch_size=2, max_cursors=1)
        with ReproServer(config, session_factory=factory) as srv:
            conn = repro.client.connect(*srv.address, tenant="t")
            conn.execute(
                "CREATE TABLE items (item_id INTEGER PRIMARY KEY, appeal REAL PERCEPTUAL)"
            )
            conn.executemany("INSERT INTO items (item_id) VALUES (?)", [(i,) for i in range(5)])
            held = conn.cursor()
            held.execute("SELECT item_id FROM items")  # 5 rows: pages, holds the one slot
            statements = srv.registry.authenticate("t").snapshot()["statements"]
            with pytest.raises(ExecutionError, match="too many open server cursors"):
                conn.cursor().execute("SELECT appeal FROM items")
            assert source.calls == []
            tenant = srv.registry.authenticate("t")
            assert tenant.session.cost_spent == 0.0
            assert tenant.snapshot()["statements"] == statements
            # Statements that return no rows take no slot.
            conn.cursor().execute("INSERT INTO items (item_id) VALUES (9)")
            # Once the held cursor is drained its slot is free again.
            assert held.fetchall() == [(i,) for i in range(5)]
            assert conn.cursor().execute("SELECT count(appeal) FROM items").fetchall() == [(6,)]
            assert len(source.calls) == 1
            conn.close()


class GatedSource(CountingSource):
    """CountingSource whose dispatches wait for :attr:`release` to be set."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def request_values_with_quality(self, attribute, items, *, policy, tracker) -> Dispatch:
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return super().request_values_with_quality(
            attribute, items, policy=policy, tracker=tracker
        )


class TestServingModel:
    """Each wire connection runs its statements on its own thread."""

    def _gated_server(self, source: GatedSource, **config: Any) -> ReproServer:
        def factory(tenant: TenantConfig) -> SessionContext:
            return SessionContext(value_source=source)

        return ReproServer(ServerConfig(port=0, **config), session_factory=factory)

    def _park(self, server: ReproServer, source: GatedSource) -> tuple[threading.Thread, list]:
        """Connection A runs a crowd-filling SELECT that waits in its dispatch."""
        setup = repro.client.connect(*server.address, tenant="setup")
        setup.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, appeal REAL PERCEPTUAL)")
        setup.executemany("INSERT INTO items (item_id) VALUES (?)", [(1,), (2,)])
        setup.close()
        answers: list = []

        def run_a() -> None:
            with repro.client.connect(*server.address, tenant="a") as conn:
                answers.append(conn.execute("SELECT COUNT(appeal) FROM items").fetchall())

        thread_a = threading.Thread(target=run_a)
        thread_a.start()
        assert source.entered.wait(timeout=10.0)
        return thread_a, answers

    def test_a_parked_statement_does_not_stall_another_connection(self):
        source = GatedSource()
        with self._gated_server(source) as server:
            thread_a, answers = self._park(server, source)
            try:
                with repro.client.connect(*server.address, tenant="b") as conn:
                    assert conn.execute("SELECT item_id FROM items").fetchall() == [(1,), (2,)]
                assert answers == []  # A is still parked
            finally:
                source.release.set()
                thread_a.join(timeout=10.0)
            assert answers == [[(2,)]]

    def test_one_executor_thread_runs_one_statement_at_a_time(self):
        source = GatedSource()
        with self._gated_server(source, executor_threads=1) as server:
            thread_a, answers = self._park(server, source)
            conn_b = repro.client.connect(*server.address, tenant="b")
            answered = threading.Event()
            rows_b: list = []

            def run_b() -> None:
                rows_b.extend(conn_b.execute("SELECT item_id FROM items").fetchall())
                answered.set()

            thread_b = threading.Thread(target=run_b)
            thread_b.start()
            try:
                # B is admitted but waits for the only slot, which A holds.
                assert not answered.wait(timeout=0.3)
                assert rows_b == []
            finally:
                source.release.set()
                thread_a.join(timeout=10.0)
                thread_b.join(timeout=10.0)
            assert answered.is_set() and rows_b == [(1,), (2,)]
            assert answers == [[(2,)]]
            conn_b.close()

    def test_counters_survive_concurrent_connections(self):
        # Every connection thread updates the server-wide counters; switch
        # threads as often as possible so a lost update would show.
        n_clients, n_statements = 8, 25
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ReproServer(ServerConfig(port=0)) as server:

                def worker(name: str) -> None:
                    try:
                        with repro.client.connect(*server.address, tenant=name) as conn:
                            for _ in range(n_statements):
                                conn.execute("SELECT 1")
                    except BaseException as exc:  # noqa: BLE001 - surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(f"w{i}",)) for i in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # connect, the statements and close, from every client
        assert stats["requests"] == n_clients * (n_statements + 2)
        assert stats["inflight"] == 0 and stats["rejected"] == 0

    def test_stop_wakes_an_idle_connection(self):
        before = set(threading.enumerate())
        server = ReproServer(ServerConfig(port=0)).start()
        conn = repro.client.connect(*server.address, tenant="idle")
        assert conn.execute("SELECT 1").fetchall() == [(1,)]
        server.stop()  # returns although the client never hung up
        with pytest.raises(OSError):
            conn.execute("SELECT 1")
        conn.close()
        assert [t for t in threading.enumerate() if t not in before] == []


class TestGracefulShutdown:
    def _spawn_serve(self, db_path: str) -> tuple[subprocess.Popen, str, int]:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db-path", db_path, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                return proc, match.group(1), int(match.group(2))
        proc.kill()
        raise AssertionError("server subprocess never reported its address")

    def test_sigterm_drain_loses_no_acknowledged_statement(self, tmp_path):
        db_dir = str(tmp_path / "db")
        proc, host, port = self._spawn_serve(db_dir)
        try:
            conn = repro.client.connect(host, port, tenant="t")
            conn.execute("CREATE TABLE k (v INTEGER)")
            for i in range(20):
                conn.execute("INSERT INTO k VALUES (?)", (i,))
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        # The directory lock is released and every acknowledged statement
        # is on disk: reopening recovers all 20 rows.
        check = repro.connect(path=db_dir)
        assert check.execute("SELECT COUNT(*) FROM k").fetchall() == [(20,)]
        check.close()

    def test_sigterm_waits_for_inflight_statement(self, tmp_path):
        # A statement racing the signal either completes durably or was
        # never acknowledged — it must not be half-applied.
        db_dir = str(tmp_path / "db")
        proc, host, port = self._spawn_serve(db_dir)
        acknowledged = []
        try:
            conn = repro.client.connect(host, port, tenant="t")
            conn.execute("CREATE TABLE k (v INTEGER)")

            def insert_burst() -> None:
                try:
                    for i in range(50):
                        conn.execute("INSERT INTO k VALUES (?)", (i,))
                        acknowledged.append(i)
                except Exception:
                    pass  # drain may cut the connection mid-burst

            t = threading.Thread(target=insert_burst)
            t.start()
            time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=30.0)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        check = repro.connect(path=db_dir)
        (count,) = check.execute("SELECT COUNT(*) FROM k").fetchone()
        check.close()
        # Every acknowledged insert survived the drain.
        assert count >= len(acknowledged)

    def test_background_stop_is_idempotent(self):
        server = ReproServer(ServerConfig(port=0))
        server.start()
        address = server.address
        assert address[1] > 0
        server.stop()
        server.stop()  # second stop is a no-op
        with pytest.raises(RuntimeError, match="not running"):
            _ = server.address

    def test_a_stopped_server_starts_again(self):
        server = ReproServer(ServerConfig(port=0))
        for _ in range(2):
            with server:
                with repro.client.connect(*server.address, tenant="t") as conn:
                    assert conn.execute("SELECT 1").fetchall() == [(1,)]


class TestWireProtocolMisuse:
    def test_execute_before_connect_is_typed(self, server):
        import json
        import socket
        import struct

        with socket.create_connection(server.address, timeout=10.0) as sock:
            payload = b'{"op":"execute","sql":"SELECT 1"}'
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            header = b""
            while len(header) < 4:
                header += sock.recv(4 - len(header))
            (length,) = struct.unpack(">I", header)
            body = b""
            while len(body) < length:
                body += sock.recv(length - len(body))
            response = json.loads(body)
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol"
            assert "connect" in response["error"]["message"]

    def test_double_connect_rejected(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        with pytest.raises(WireProtocolError, match="already connected"):
            conn.request({"op": "connect", "tenant": "t2"})
        conn.close()

    def test_unknown_cursor_is_typed(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        with pytest.raises(ExecutionError, match="cursor"):
            conn.request({"op": "fetch", "cursor": 999})
        conn.close()

    @pytest.mark.parametrize("fetch_size", [-1, 0, True, False])
    def test_bad_fetch_size_rejects_the_statement_unrun(self, server, fetch_size):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE t (n INTEGER)")
        request = {"op": "execute", "sql": "INSERT INTO t VALUES (99)", "fetch_size": fetch_size}
        with pytest.raises(WireProtocolError, match="fetch_size"):
            conn.request(request)
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(0,)]
        conn.close()

    @pytest.mark.parametrize("max_rows", [-1, 0, True])
    def test_bad_max_rows_leaves_the_cursor_unread(self, server, max_rows):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE nums (n INTEGER)")
        conn.executemany("INSERT INTO nums VALUES (?)", [(i,) for i in range(10)])
        cur = conn.execute("SELECT n FROM nums ORDER BY n")  # fetch_size=4: paged
        with pytest.raises(WireProtocolError, match="max_rows"):
            conn.request({"op": "fetch", "cursor": cur._cursor_id, "max_rows": max_rows})
        assert cur.fetchall() == [(i,) for i in range(10)]
        conn.close()


class TestServedEnumeration:
    """Open-world enumeration over the wire: same Chao92 stats as local."""

    UNIVERSE = [f"species-{i:02d}" for i in range(20)]

    def _make_source(self):
        from repro.crowd.platform import CrowdPlatform
        from repro.crowd.sources import SimulatedCrowdValueSource
        from repro.crowd.worker import WorkerPool

        return SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=5, seed=3),
            truth={},
            seed=7,
            universe={"birds": self.UNIVERSE},
            answers_per_batch=25,
            payment_per_hit=0.05,
        )

    def _enumeration_server(self, max_cost: float | None = 5.0) -> ReproServer:
        def factory(config: TenantConfig) -> SessionContext:
            return SessionContext(
                policy=AcquisitionPolicy(max_cost=config.max_cost),
                value_source=self._make_source(),
            )

        tenants = [TenantConfig(name="alice", max_cost=max_cost)]
        return ReproServer(
            ServerConfig(port=0), tenants=tenants, session_factory=factory
        )

    SQL_CREATE = "CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)"
    SQL_ENUM = (
        "INSERT INTO birds (name) FROM CROWD WHERE 'birds' "
        "WITH COMPLETENESS >= 0.9"
    )

    def test_client_receives_identical_enumeration_stats(self):
        # Local baseline with the identically seeded source.
        local = repro.connect()
        local.set_value_source(self._make_source())
        local.execute(self.SQL_CREATE)
        local_cur = local.execute(self.SQL_ENUM)
        local_stats = local_cur.result.enumeration
        local_rows = local.execute("SELECT name FROM birds ORDER BY bird_id").fetchall()
        assert local_stats is not None
        assert local_stats["stopped_on"] == "completeness"

        with self._enumeration_server() as srv:
            client = repro.client.connect(*srv.address, tenant="alice")
            client.execute(self.SQL_CREATE)
            cur = client.execute(self.SQL_ENUM)
            # The wire carries the very dict a local QueryResult exposes.
            assert cur.enumeration == local_stats
            assert cur.rowcount == local_cur.rowcount
            served_rows = client.execute(
                "SELECT name FROM birds ORDER BY bird_id"
            ).fetchall()
            assert served_rows == local_rows
            # Non-enumeration statements carry no enumeration payload.
            assert client.execute("SELECT 1").enumeration is None
            client.close()

    def test_served_enumeration_respects_tenant_budget(self):
        with self._enumeration_server(max_cost=0.05) as srv:
            client = repro.client.connect(*srv.address, tenant="alice")
            client.execute(self.SQL_CREATE)
            cur = client.execute(self.SQL_ENUM)
            assert cur.enumeration is not None
            assert cur.enumeration["stopped_on"] == "budget"
            snapshot = {s["tenant"]: s for s in srv.registry.snapshot()}
            assert snapshot["alice"]["cost_spent"] <= 0.05 + 1e-9
            client.close()


class TestClientCursor:
    """The wire cursor's DB-API surface over a server that pages every 4 rows."""

    @pytest.fixture()
    def conn(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        conn.execute("CREATE TABLE nums (n INTEGER)")
        conn.cursor().executemany("INSERT INTO nums VALUES (?)", [(i,) for i in range(10)])
        yield conn
        conn.close()

    def test_executemany_sums_rowcounts(self, conn):
        cur = conn.cursor().executemany("UPDATE nums SET n = n WHERE n < ?", [(3,), (5,)])
        assert cur.rowcount == 3 + 5

    def test_fetchone_pages_through_the_server_cursor(self, conn):
        cur = conn.execute("SELECT n FROM nums ORDER BY n")
        rows = [cur.fetchone() for _ in range(10)]
        assert rows == [(i,) for i in range(10)]
        assert cur.fetchone() is None

    def test_fetchmany_crosses_page_boundaries(self, conn):
        cur = conn.execute("SELECT n FROM nums ORDER BY n")
        assert cur.fetchmany(3) == [(0,), (1,), (2,)]
        assert cur.fetchmany(6) == [(i,) for i in range(3, 9)]
        assert cur.fetchmany(6) == [(9,)]
        assert cur.fetchmany(0) == []

    def test_iteration_yields_every_row(self, conn):
        cur = conn.execute("SELECT n FROM nums ORDER BY n")
        assert list(cur) == [(i,) for i in range(10)]

    def test_description_names_the_columns(self, conn):
        cur = conn.execute("SELECT n AS value FROM nums")
        assert [entry[0] for entry in cur.description] == ["value"]
        assert conn.execute("DELETE FROM nums WHERE n > 100").description is None

    def test_reexecute_discards_the_pending_server_cursor(self, conn):
        cur = conn.execute("SELECT n FROM nums ORDER BY n")
        assert cur.fetchone() == (0,)
        pending = cur._cursor_id
        assert pending is not None
        cur.execute("SELECT count(*) FROM nums")
        assert cur.fetchall() == [(10,)]
        with pytest.raises(ExecutionError, match="cursor"):
            conn.request({"op": "fetch", "cursor": pending})

    def test_close_discards_the_pending_server_cursor(self, conn):
        cur = conn.execute("SELECT n FROM nums")
        pending = cur._cursor_id
        cur.close()
        assert cur.fetchone() is None
        with pytest.raises(ExecutionError, match="cursor"):
            conn.request({"op": "fetch", "cursor": pending})


class TestClientConnection:
    def test_pragma_read_and_write(self, server):
        with repro.client.connect(*server.address, tenant="t") as conn:
            assert conn.pragma("synchronous") == [("memory",)]
            assert conn.pragma("acquisition_max_sample", 12) == []
            assert conn.pragma("acquisition_max_sample") == [(12,)]
            assert conn.pragma("acquisition_crowd_write_back", False) == []
            assert conn.pragma("acquisition_crowd_write_back") == [(False,)]

    def test_pragma_numbers_round_trip_exactly(self, tmp_path):
        with ReproServer(ServerConfig(port=0, path=tmp_path / "db")) as server:
            with repro.client.connect(*server.address, tenant="t") as conn:
                conn.pragma("checkpoint_interval", 1234567)
                assert conn.pragma("checkpoint_interval") == [(1234567,)]
                for cost in (0.123456789, 1e-05, 1e16, 2.5):
                    conn.pragma("acquisition_max_cost", cost)
                    assert conn.pragma("acquisition_max_cost") == [(cost,)]

    def test_pragma_name_and_value_must_be_plain_words(self, server):
        with repro.client.connect(*server.address, tenant="t") as conn:
            with pytest.raises(WireProtocolError, match="invalid pragma name"):
                conn.pragma("synchronous; DROP TABLE t")
            with pytest.raises(WireProtocolError, match="invalid pragma value"):
                conn.pragma("synchronous", "full; DROP TABLE t")

    def test_closed_connection_rejects_requests(self, server):
        conn = repro.client.connect(*server.address, tenant="t")
        assert conn.closed is False
        conn.close()
        conn.close()  # closing twice is a no-op
        assert conn.closed is True
        with pytest.raises(WireProtocolError, match="closed"):
            conn.execute("SELECT 1")

    def test_handshake_reports_server_properties(self, server):
        with repro.client.connect(*server.address, tenant="t") as conn:
            assert conn.server_info == {"durable": False, "max_inflight": 64, "fetch_size": 4}
            conn.commit()  # auto-commit engine: a no-op kept for API parity


class TestServerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_inflight", -1),
            ("executor_threads", 0),
            ("fetch_size", 0),
            ("max_cursors", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})
