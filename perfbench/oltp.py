"""``oltp_embedded`` and ``served_oltp``: the statement-path workloads.

One ``accounts`` table (primary key plus a secondary index on ``score``)
and a fixed operation mix per 100 operations, shuffled once per seed:

* 70 parameterized primary-key SELECTs,
* 10 indexed range SELECTs with ORDER BY and LIMIT 20,
* 10 ad-hoc SELECTs whose literal SQL text never repeats,
* 7 INSERTs and 3 UPDATEs (UPDATE matches its row by a full scan in the
  engine, so it is the slowest write).

Scores are a seeded permutation (unique, so ORDER BY has one right answer)
and inserted rows get scores above every probed range, so range results
depend on the generated rows only.  Each client reads and updates only
the ids of its own partition (``id % clients == client``); the expected
output of every operation is then a function of that client's own
operation sequence, whatever the interleaving of concurrent clients.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import repro
import repro.client
from repro.db.durability import DEFAULT_CHECKPOINT_INTERVAL
from repro.server import protocol

from .common import (
    PROBE_EVERY_SECONDS,
    ROOT,
    SRC,
    LoopResult,
    Sample,
    SpeedTrack,
    fresh_dir,
    repeated_setup,
    latency_metrics,
    median,
    peak_rss_mb,
)
from .embedded import Op, Tracer, apply_oracle, measure, p50_ms, split_traced, user_bytes
from .layers import empty_layers

SCORE_STEP = 3
RANGE_WIDTH = 300  # scores per range probe: 100 rows, of which 20 are returned
INSERTED_SCORE_BASE = 10_000_000
MIX = (("point", 70), ("range", 10), ("adhoc", 10), ("insert", 7), ("update", 3))

CREATE_SQL = (
    "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, region INTEGER, "
    "balance INTEGER, score INTEGER)"
)
INDEX_SQL = "CREATE INDEX ON accounts (score)"
INSERT_SQL = "INSERT INTO accounts (id, owner, region, balance, score) VALUES (?, ?, ?, ?, ?)"
POINT_SQL = "SELECT owner, balance FROM accounts WHERE id = ?"
RANGE_SQL = (
    "SELECT id, score FROM accounts WHERE score >= ? AND score < ? ORDER BY score LIMIT 20"
)
ADHOC_SQL = "SELECT owner, score, {tag} AS tag FROM accounts WHERE id = {id}"
UPDATE_SQL = "UPDATE accounts SET balance = ? WHERE id = ?"


@dataclass(frozen=True)
class Config:
    rows: int = 20_000
    #: Buffer pool: 1024 pages of 4 KiB (4 MiB) hold the ~1.8 MB heap.
    pool_pages: int = 1024
    clients: int = 2
    executor_threads: int = 2

    @classmethod
    def tiny(cls) -> "Config":
        return cls(rows=600, pool_pages=64)


class Dataset:
    """The generated ``accounts`` rows of one seed."""

    def __init__(self, seed: int, n_rows: int) -> None:
        rng = random.Random(seed * 7919 + 1)
        ranks = list(range(n_rows))
        rng.shuffle(ranks)
        self.n_rows = n_rows
        self.rows = [
            (
                i,
                f"owner-{i:06d}",
                rng.randrange(50),
                rng.randrange(1_000_000),
                ranks[i - 1] * SCORE_STEP,
            )
            for i in range(1, n_rows + 1)
        ]
        by_score = sorted((row[4], row[0]) for row in self.rows)
        self.scores = [score for score, _ in by_score]
        self.score_ids = [row_id for _, row_id in by_score]


class OpStream:
    """Random-access op sequence of one client: ``op(i)`` is a pure function."""

    def __init__(self, dataset: Dataset, seed: int, client: int = 0, clients: int = 1) -> None:
        self.dataset = dataset
        self.seed = seed
        self.client = client
        self.clients = clients
        cycle = [kind for kind, weight in MIX for _ in range(weight)]
        random.Random(seed * 31 + client).shuffle(cycle)
        self.cycle = cycle
        self._inserts_before = [0]
        for kind in cycle:
            self._inserts_before.append(self._inserts_before[-1] + (kind == "insert"))
        # Ids of this client's partition: the rows it reads and updates.
        self.own = range(1 + client, dataset.n_rows + 1, clients)

    def op(self, i: int) -> Op:
        kind = self.cycle[i % len(self.cycle)]
        rng = random.Random((self.seed * 1_000_003 + self.client) * 10_000_019 + i)
        if kind == "point":
            return Op(kind, POINT_SQL, (rng.choice(self.own),))
        if kind == "range":
            low = rng.randrange(SCORE_STEP * self.dataset.n_rows - RANGE_WIDTH)
            return Op(kind, RANGE_SQL, (low, low + RANGE_WIDTH))
        if kind == "adhoc":
            row_id = rng.choice(self.own)
            tag = i * self.clients + self.client
            return Op(kind, ADHOC_SQL.format(tag=tag, id=row_id), literals=(row_id, tag))
        if kind == "update":
            params = (rng.randrange(1_000_000), rng.choice(self.own))
            return Op(kind, UPDATE_SQL, params, read=False, user_bytes=user_bytes(params))
        full, part = divmod(i, len(self.cycle))
        n = full * self._inserts_before[-1] + self._inserts_before[part]
        row_id = self.dataset.n_rows + 1 + n * self.clients + self.client
        params = (
            row_id,
            f"new-{row_id}",
            row_id % 50,
            rng.randrange(1_000_000),
            INSERTED_SCORE_BASE + row_id,
        )
        return Op(kind, INSERT_SQL, params, read=False, user_bytes=user_bytes(params))


class Model:
    """Oracle: the expected output of each op of one client, applied in order."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.balance: dict[int, int] = {}

    def expect(self, op: Op) -> Any:
        rows = self.dataset.rows
        if op.kind == "point":
            (row_id,) = op.params
            return [(rows[row_id - 1][1], self.balance.get(row_id, rows[row_id - 1][3]))]
        if op.kind == "range":
            low, high = op.params
            scores, ids = self.dataset.scores, self.dataset.score_ids
            start = bisect_left(scores, low)
            return [
                (ids[j], scores[j])
                for j in range(start, min(start + 20, len(scores)))
                if scores[j] < high
            ]
        if op.kind == "adhoc":
            row_id, tag = op.literals
            return [(rows[row_id - 1][1], rows[row_id - 1][4], tag)]
        if op.kind == "update":
            self.balance[op.params[1]] = op.params[0]
        return 1


def build_database(path: Any, dataset: Dataset, pool_pages: int) -> Any:
    """Create and load the durable database; returns its open connection.

    Automatic checkpoints are deferred during the bulk load (one snapshot
    at the end instead of one per 1000 rows), then the default interval is
    restored for the measured operations.
    """
    conn = repro.connect(
        path=path, synchronous="normal", checkpoint_interval=None, buffer_pool_pages=pool_pages
    )
    conn.execute(CREATE_SQL)
    conn.execute(INDEX_SQL)
    conn.executemany(INSERT_SQL, dataset.rows)
    conn.checkpoint()
    conn.execute(f"PRAGMA checkpoint_interval = {DEFAULT_CHECKPOINT_INTERVAL}")
    return conn


def build_memory(dataset: Dataset) -> Any:
    conn = repro.connect()
    conn.execute(CREATE_SQL)
    conn.execute(INDEX_SQL)
    conn.executemany(INSERT_SQL, dataset.rows)
    return conn


def run_embedded(seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    dataset = Dataset(seed, cfg.rows)
    conn, setup_times = repeated_setup(
        lambda k: build_database(fresh_dir(f"oltp-{k}"), dataset, cfg.pool_pages),
        lambda stale: stale.close(),
    )
    try:
        stream = OpStream(dataset, seed)
        model = Model(dataset)
        if not trace:
            loop, ops, outputs = measure(conn, stream.op, seconds)
            apply_oracle(loop, ops, outputs, model.expect)
            return _embedded_result(loop, setup_times, conn, cfg)
        base, layers, details = trace_embedded(conn, dataset, stream, model, seconds)
        result = _embedded_result(base, setup_times, conn, cfg)
        result["layers"] = layers
        result["details"].update(details)
        return result
    finally:
        conn.close()


def _embedded_result(loop: LoopResult, setup_times: list[float], conn: Any, cfg: Config) -> dict:
    metrics, details = latency_metrics(loop)
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    pool = conn.durability.buffer_pool_stats()
    details.update(
        rows=cfg.rows,
        heap_bytes=pool["heap_bytes"],
        buffer_pool_bytes=pool["capacity_pages"] * pool["page_size"],
        loop="closed",
        clients=1,
        flush="synchronous=normal, checkpoint_interval=1000",
    )
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "details": details,
        "setup_samples_s": setup_times,
    }


def trace_embedded(
    conn: Any, dataset: Dataset, stream: OpStream, model: Model, seconds: float
) -> tuple[LoopResult, dict[str, float], dict[str, Any]]:
    """Interleaved plain and traced ops, then the same ops on an in-memory twin.

    Returns the whole loop, the per-layer metrics and details (the traced
    ops' attributed seconds per kind, unattributed shares of reads and
    writes).
    """
    tracer = Tracer(conn)
    loop, ops, outputs = measure(conn, stream.op, seconds, tracer=tracer)
    apply_oracle(loop, ops, outputs, model.expect)
    layers = empty_layers()
    layers.update(tracer.finish())
    plain, traced = split_traced(loop)

    memory = build_memory(dataset)
    try:
        twin, m_ops, m_outputs = measure(memory, stream.op, 0.0, min_ops=len(ops))
    finally:
        memory.close()
    apply_oracle(twin, m_ops, m_outputs, Model(dataset).expect)
    layers["pager.overhead_ms"] = p50_ms(plain) - p50_ms(twin)
    layers["wal.overhead_us"] = (p50_ms(plain, "write") - p50_ms(twin, "write")) * 1000.0
    layers["trace.overhead_share"] = p50_ms(traced) / p50_ms(plain) - 1.0
    loop.samples.extend(s for s in twin.samples if not s.ok)  # failures still count
    details = {
        "attributed_by_kind_s": tracer.mean_attributed_by_kind(),
        "unattributed_share_reads": tracer.unattributed_share(read=True),
        "unattributed_share_writes": tracer.unattributed_share(read=False),
    }
    return loop, layers, details


# ---------------------------------------------------------------------------
# served_oltp
# ---------------------------------------------------------------------------

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


class ServerProcess:
    """A ``repro serve`` child process on an existing database directory."""

    def __init__(self, db_path: Any, cfg: Config, log_path: Any) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db-path", str(db_path), "--port", "0"]
            + ["--executor-threads", str(cfg.executor_threads)]
            + ["--buffer-pool-pages", str(cfg.pool_pages), "--synchronous", "normal"],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ROOT,
        )
        try:
            self.address = self._wait_listening(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log_path.read_bytes().decode(errors='replace')[-2000:]}"
                )
            time.sleep(0.02)
        raise RuntimeError("server did not start listening in time")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _setup_served(dataset: Dataset, cfg: Config, index: int) -> ServerProcess:
    path = fresh_dir(f"served-{index}")
    build_database(path / "db", dataset, cfg.pool_pages).close()
    return ServerProcess(path / "db", cfg, path / "server.log")


def _client_execute(client: Any, op: Op) -> tuple[Any, dict[str, Any]]:
    cursor = client.execute(op.sql, op.params)
    output = cursor.fetchall() if op.read else cursor.rowcount
    return output, {"columns": cursor.columns, "rowcount": cursor.rowcount}


def _served_window(
    address: tuple[str, int],
    streams: list[OpStream],
    models: list[Model],
    offsets: list[int],
    seconds: float,
    frames: list | None = None,
) -> LoopResult:
    """All clients run their closed loops concurrently for *seconds*."""
    clients = [repro.client.connect(*address) for _ in streams]
    results: list[list[Sample]] = [[] for _ in streams]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(streams) + 1)

    def client_loop(c: int) -> None:
        client, stream, model = clients[c], streams[c], models[c]
        try:
            barrier.wait(timeout=60)
            begin = perf_counter()
            i = offsets[c]
            while perf_counter() - begin < seconds or i == offsets[c]:
                op = stream.op(i)
                start = perf_counter()
                began = start - begin
                try:
                    output, meta = _client_execute(client, op)
                    ok = True
                except Exception as exc:  # counted as a failed op
                    output, meta, ok = exc, {}, False
                latency = perf_counter() - start
                ok = ok and output == model.expect(op)
                results[c].append(Sample("read" if op.read else "write", latency, ok, began))
                if frames is not None and ok:
                    frames.append((op, output, meta))
                i += 1
            offsets[c] = i
        except BaseException as exc:  # surfaced below, never swallowed
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(streams))]
    for thread in threads:
        thread.start()
    track = SpeedTrack()
    start = perf_counter()
    try:
        barrier.wait(timeout=60)
        start = perf_counter()
        # The host speed probe runs here, beside the clients; it is timed
        # in thread CPU time, so waiting for them does not count.
        for thread in threads:
            while thread.is_alive():
                track.probe(perf_counter() - start)
                thread.join(timeout=PROBE_EVERY_SECONDS)
    finally:
        for thread in threads:
            thread.join()
    loop = LoopResult(wall_seconds=perf_counter() - start)
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    for samples in results:
        loop.samples.extend(samples)
    track.probe(loop.wall_seconds)
    track.scale(loop.samples)
    loop.speed = track.summary()
    return loop


def run_served(seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    dataset = Dataset(seed, cfg.rows)
    server, setup_times = repeated_setup(
        lambda k: _setup_served(dataset, cfg, k), lambda stale: stale.stop()
    )
    try:
        streams = [OpStream(dataset, seed, c, cfg.clients) for c in range(cfg.clients)]
        models = [Model(dataset) for _ in streams]
        offsets = [0] * cfg.clients
        layers = None
        if not trace:
            loop = _served_window(server.address, streams, models, offsets, seconds)
        else:
            loop, layers = _trace_served(
                server, dataset, seed, streams, models, offsets, seconds, cfg
            )
        with repro.client.connect(*server.address) as stats_conn:
            # Closed clients fold their statement-cache counters into the
            # tenant when the server detaches them; wait until only this
            # connection is left.
            deadline = time.monotonic() + 10.0
            stats = stats_conn.server_stats()
            while stats["connections"] > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
                stats = stats_conn.server_stats()
            pool = dict(stats_conn.pragma("buffer_pool_stats"))
    finally:
        server.stop()
    metrics, details = latency_metrics(loop)
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    details.update(
        rows=cfg.rows,
        heap_bytes=pool["heap_bytes"],
        buffer_pool_bytes=pool["capacity_pages"] * pool["page_size"],
        loop="closed",
        clients=cfg.clients,
        executor_threads=cfg.executor_threads,
        flush="synchronous=normal, checkpoint_interval=1000",
        server_rejected=stats["rejected"],
    )
    result = {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "details": details,
        "setup_samples_s": setup_times,
    }
    if layers is not None:
        tenant = next(t for t in stats["tenants"] if t["tenant"] == "default")
        lookups = tenant["statement_cache_hits"] + tenant["statement_cache_misses"]
        layers["server.rejected"] = float(stats["rejected"])
        layers["tenancy.stmt_cache_hit_rate"] = (
            tenant["statement_cache_hits"] / lookups if lookups else 0.0
        )
        result["layers"] = layers
    return result


def _trace_served(
    server: ServerProcess,
    dataset: Dataset,
    seed: int,
    streams: list[OpStream],
    models: list[Model],
    offsets: list[int],
    seconds: float,
    cfg: Config,
) -> tuple[LoopResult, dict[str, float]]:
    """Served untraced and traced windows plus an embedded twin of the mix.

    The engine layers run in the server process, where the benchmark does
    not reach; they are measured on an embedded database holding the same
    rows and running the same op mix, and the difference of the two p50s
    is the serving cost (``server.overhead_us``).
    """
    # Alternate plain and frame-capturing quarters so both see the same host.
    quarter = seconds / 4.0
    frames: list = []
    windows = [
        _served_window(
            server.address, streams, models, offsets, quarter, frames if k % 2 else None
        )
        for k in range(4)
    ]
    base = LoopResult(windows[0].samples + windows[2].samples, 2 * quarter)
    traced = LoopResult(windows[1].samples + windows[3].samples, 2 * quarter)

    embedded = build_database(fresh_dir("served-twin"), dataset, cfg.pool_pages)
    try:
        embedded_base, layers, details = trace_embedded(
            embedded, dataset, OpStream(dataset, seed), Model(dataset), seconds
        )
    finally:
        embedded.close()

    encode = decode = 0.0
    for op, output, meta in frames:
        request: dict[str, Any] = {"op": "execute", "sql": op.sql}
        if op.params:
            request["params"] = protocol.encode_row(op.params)
        response = {
            "ok": True,
            "columns": meta["columns"],
            "rowcount": meta["rowcount"],
            "rows": [protocol.encode_row(row) for row in output] if op.read else [],
            "done": True,
        }
        start = perf_counter()
        wire = [protocol.encode_message(request), protocol.encode_message(response)]
        middle = perf_counter()
        for frame in wire:
            protocol.decode_payload(frame[protocol.HEADER_SIZE :])
        decode += perf_counter() - middle
        encode += middle - start
    n_frames = 2 * len(frames)
    layers["protocol.encode_us"] = encode / n_frames * 1e6 if n_frames else 0.0
    layers["protocol.decode_us"] = decode / n_frames * 1e6 if n_frames else 0.0
    served_p50 = p50_ms(base)
    embedded_p50 = p50_ms(split_traced(embedded_base)[0])
    layers["server.overhead_us"] = (served_p50 - embedded_p50) * 1000.0
    layers["trace.overhead_share"] = p50_ms(traced) / served_p50 - 1.0

    # Attribution: each served op is credited with the embedded layers' mean
    # for its kind plus four codec passes (both ends encode and decode).
    by_kind = details["attributed_by_kind_s"]
    codec = 2.0 * (encode + decode) / len(frames) if frames else 0.0
    attributed = sum(by_kind.get(op.kind, 0.0) + codec for op, _output, _meta in frames)
    total = sum(s.seconds for s in traced.samples if s.ok)
    layers["trace.unattributed_share"] = max(0.0, 1.0 - attributed / total) if total else 0.0
    base.samples.extend(s for s in traced.samples if not s.ok)
    base.samples.extend(s for s in embedded_base.samples if not s.ok)
    return base, layers
