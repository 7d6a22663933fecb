"""Threaded stress test for the dynamic lock-order tracer.

Instruments the engine's real locks (catalog, connection, WAL, runtime,
answer cache) with :class:`lock_tracer.TracedLock`, then runs
concurrent crowd acquisition, checkpointing and direct UPDATEs against a
durable database.  The assertion is the race detector's contract: the
*observed* acquire-order graph stays acyclic, i.e. no two threads ever
took the same pair of locks in opposite orders.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

import repro
from lock_tracer import LockOrderTracer
from repro.crowd.runtime import AcquisitionRuntime
from repro.db.acquisition import Dispatch


class ConstantSource:
    """Minimal batch ValueSource answering a constant appeal score."""

    def __init__(self, value: float = 0.75) -> None:
        self.value = value
        self.dispatches = 0

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: Any,
        tracker: Any,
    ) -> Dispatch:
        self.dispatches += 1
        return Dispatch({rowid: self.value for rowid, _row in items})


def test_concurrent_engine_workload_keeps_lock_graph_acyclic(tmp_path):
    conn = repro.connect(
        path=tmp_path / "db", synchronous="normal", checkpoint_interval=None
    )
    conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO items (item_id, name) VALUES (?, ?)",
        [(i, f"item-{i}") for i in range(1, 25)],
    )
    conn.add_perceptual_column("items", "appeal")

    runtime = AcquisitionRuntime(cache_ttl_seconds=0.001)  # queries mostly re-acquire
    conn.catalog.set_acquisition_runtime(runtime)
    conn.set_value_source(ConstantSource())
    conn.set_policy(conn.policy.with_overrides(crowd_batch_size=8))

    tracer = LockOrderTracer()
    catalog = conn.catalog
    catalog.lock = tracer.wrap("Catalog.lock", catalog.lock)
    conn._lock = tracer.wrap("Connection._lock", conn._lock)
    wal = catalog.durability.wal
    wal._lock = tracer.wrap("WriteAheadLog._lock", wal._lock)
    runtime._lock = tracer.wrap("AcquisitionRuntime._lock", runtime._lock)
    runtime.cache._lock = tracer.wrap("AnswerCache._lock", runtime.cache._lock)

    errors: list[BaseException] = []
    barrier = threading.Barrier(3)

    def guarded(fn) -> None:
        try:
            barrier.wait(timeout=10.0)
            fn()
        except BaseException as exc:  # noqa: B036 - surfaced via `errors`
            errors.append(exc)

    def acquire_loop() -> None:
        for _ in range(6):
            conn.execute("SELECT count(appeal) FROM items").fetchone()

    def checkpoint_loop() -> None:
        for _ in range(6):
            conn.checkpoint()

    def update_loop() -> None:
        for i in range(12):
            conn.execute(
                "UPDATE items SET name = ? WHERE item_id = ?",
                (f"renamed-{i}", (i % 24) + 1),
            )

    threads = [
        threading.Thread(target=guarded, args=(fn,), name=fn.__name__)
        for fn in (acquire_loop, checkpoint_loop, update_loop)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "stress workload hung"
    assert not errors, f"workload raised: {errors!r}"

    # The workload must actually have exercised the interesting edges ...
    edges = set(tracer.edges())
    assert ("Catalog.lock", "WriteAheadLog._lock") in edges, edges

    # ... and the observed acquire-order graph must be cycle-free.
    assert tracer.cycles() == [], tracer.edges()
    tracer.check()
    conn.close()
