"""One acquisition runtime per catalog.

Every connection of a :class:`~repro.db.catalog.Catalog` dispatches crowd
work through the catalog's one
:class:`~repro.crowd.runtime.AcquisitionRuntime`.  A configured runtime is
installed with ``Catalog.set_acquisition_runtime`` before first use;
either way the catalog warm-starts it from recovered answers and worker
stats, journals its worker evidence and sends it every cell invalidation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields
from typing import Any, Sequence

import pytest

import repro
import repro.crowd.runtime
from repro.crowd.runtime import AcquisitionRuntime
from repro.db import AcquisitionPolicy, Catalog, Connection, Dispatch, SessionContext
from repro.errors import ExecutionError


class ConstantSource:
    """Batch value source answering every cell with one value."""

    def __init__(self, value: float) -> None:
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


def crowd_connection(catalog: Catalog, value: float = 0.9) -> Connection:
    """A connection whose crowd answers stay out of table storage."""
    return Connection(
        catalog,
        session=SessionContext(
            value_source=ConstantSource(value),
            policy=AcquisitionPolicy(crowd_batch_size=10, crowd_write_back=False),
        ),
    )


def make_items(conn: Connection, n: int) -> None:
    conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO items (item_id, name) VALUES (?, ?)",
        [(i, f"item-{i}") for i in range(1, n + 1)],
    )
    conn.add_perceptual_column("items", "appeal")


class TestOneRuntime:
    def test_racing_first_calls_share_one_instance(self, monkeypatch):
        # A slow constructor widens the window in which two unguarded
        # first callers would each build a runtime.
        class SlowRuntime(AcquisitionRuntime):
            def __init__(self, **kwargs: Any) -> None:
                time.sleep(0.05)
                super().__init__(**kwargs)

        monkeypatch.setattr(repro.crowd.runtime, "AcquisitionRuntime", SlowRuntime)
        catalog = Catalog()
        connections = [Connection(catalog), Connection(catalog)]
        barrier = threading.Barrier(len(connections))
        seen: list[Any] = []

        def first_call(conn: Connection) -> None:
            barrier.wait(timeout=5.0)
            seen.append(conn.acquisition_runtime())

        threads = [threading.Thread(target=first_call, args=(c,)) for c in connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(seen) == 2
        assert seen[0] is seen[1] is catalog.acquisition_runtime()
        assert isinstance(seen[0], SlowRuntime)

    @pytest.mark.parametrize("first", ["created by use", "installed"])
    def test_a_second_runtime_is_refused(self, first):
        catalog = Catalog()
        if first == "installed":
            catalog.set_acquisition_runtime(AcquisitionRuntime(cache_size=8))
        runtime = Connection(catalog).acquisition_runtime()
        with pytest.raises(ExecutionError, match="already in use"):
            catalog.set_acquisition_runtime(AcquisitionRuntime(max_concurrent_batches=1))
        assert catalog.acquisition_runtime() is runtime
        assert Connection(catalog).acquisition_runtime() is runtime
        assert runtime.cache.capacity == (8 if first == "installed" else 1024)
        assert runtime.max_concurrent_batches == 4

    def test_crowd_answers_are_shared_across_sessions(self):
        catalog = Catalog()
        first = crowd_connection(catalog, 0.9)
        make_items(first, 4)
        second = crowd_connection(catalog, 0.1)
        assert first.execute("SELECT count(appeal) FROM items").fetchone() == (4,)
        # The second session's repeat is served from the one answer cache.
        assert second.execute("SELECT sum(appeal) FROM items").fetchone() == (
            pytest.approx(3.6),
        )
        assert first.session.value_source.dispatches == 1
        assert second.session.value_source.dispatches == 0


class TestInvalidation:
    def make(self) -> tuple[Connection, AcquisitionRuntime]:
        catalog = Catalog()
        runtime = AcquisitionRuntime(cache_size=64)
        catalog.set_acquisition_runtime(runtime)
        conn = crowd_connection(catalog)
        make_items(conn, 4)
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(runtime.cache) == 4
        return conn, runtime

    def test_update_evicts_the_installed_runtimes_entry(self):
        conn, runtime = self.make()
        conn.execute("UPDATE items SET appeal = ? WHERE item_id = ?", (0.2, 3))
        assert len(runtime.cache) == 3
        assert runtime.cache.get("items", "appeal", 3) == (False, None)

    def test_drop_table_evicts_the_installed_runtimes_entries(self):
        conn, runtime = self.make()
        conn.execute("DROP TABLE items")
        assert len(runtime.cache) == 0


class TestDurableWarmStart:
    def test_installed_runtime_is_warmed_and_journals_worker_evidence(self, tmp_path):
        conn = repro.connect(path=tmp_path / "db")
        make_items(conn, 3)
        conn.table("items").fill_values("appeal", {1: 0.8, 2: 0.3}, provenance="crowd")
        conn.catalog.record_worker_stats({7: (4.0, 1.0)})
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        runtime = AcquisitionRuntime(max_concurrent_batches=2, cache_size=16)
        reopened.catalog.set_acquisition_runtime(runtime)
        assert reopened.acquisition_runtime() is runtime
        # Warm start: recovered crowd answers and worker stats.
        assert runtime.cache.get("items", "appeal", 1) == (True, 0.8)
        assert runtime.cache.get("items", "appeal", 2) == (True, 0.3)
        assert runtime.cache.get("items", "appeal", 3) == (False, None)
        assert runtime.worker_quality.totals() == {7: (4.0, 1.0)}
        # New worker evidence reaches the catalog and the WAL.
        runtime.worker_quality.observe_gold(9, True)
        runtime.worker_quality.flush()
        assert reopened.catalog.worker_stats()[9] == (1.0, 0.0)
        reopened.close()

        again = repro.connect(path=tmp_path / "db")
        assert again.catalog.worker_stats() == {7: (4.0, 1.0), 9: (1.0, 0.0)}
        again.close()


class TestPolicyCarriesNoRuntimeKnobs:
    def test_policy_has_sixteen_fields_and_pragmas(self):
        assert len(fields(AcquisitionPolicy)) == 16
        conn = repro.connect()
        rows = conn.execute("PRAGMA acquisition_policy").fetchall()
        assert len(rows) == 16
        for knob in ("max_concurrent_batches", "answer_cache_size", "answer_cache_ttl"):
            with pytest.raises(ExecutionError):
                conn.execute(f"PRAGMA acquisition_{knob}")
