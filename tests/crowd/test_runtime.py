"""Tests for the concurrent acquisition runtime and its answer cache."""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

import pytest

from repro.crowd.runtime import AcquisitionRuntime, AnswerCache
from repro.db.acquisition import AcquisitionPolicy, Dispatch


class RecordingSource:
    """ValueSource that counts calls and can block mid-dispatch."""

    def __init__(self, value: Any = 1.0, latency: float = 0.0, cost: float = 0.0) -> None:
        self.value = value
        self.latency = latency
        self.cost = cost
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self._lock = threading.Lock()
        self.release = threading.Event()
        self.release.set()  # blocks only when a test clears it
        self.entered = threading.Event()

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
        self.entered.set()
        if self.latency:
            time.sleep(self.latency)
        assert self.release.wait(timeout=10.0), "test forgot to release the source"
        return Dispatch({rowid: self.value for rowid, _row in items}, self.cost)


def items_for(rowids: Sequence[int]) -> list[tuple[int, dict[str, Any]]]:
    return [(rowid, {"item_id": rowid}) for rowid in rowids]


class TestAnswerCache:
    def test_put_get_roundtrip_and_miss(self):
        cache = AnswerCache(capacity=4)
        assert cache.get("movies", "humor", 1) == (False, None)
        cache.put("movies", "humor", 1, 0.7)
        assert cache.get("Movies", "Humor", 1) == (True, 0.7)  # case-insensitive
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_missing_values_are_never_cached(self):
        from repro.db.types import MISSING

        cache = AnswerCache(capacity=4)
        cache.put("movies", "humor", 1, MISSING)
        assert len(cache) == 0

    def test_capacity_eviction_is_lru(self):
        cache = AnswerCache(capacity=2)
        cache.put("t", "a", 1, "one")
        cache.put("t", "a", 2, "two")
        cache.get("t", "a", 1)  # refresh 1 -> 2 becomes least recently used
        cache.put("t", "a", 3, "three")
        assert cache.get("t", "a", 2) == (False, None)  # evicted
        assert cache.get("t", "a", 1) == (True, "one")
        assert cache.get("t", "a", 3) == (True, "three")
        assert cache.stats().evictions == 1

    def test_ttl_expiry_looks_like_a_miss(self):
        clock = FakeClock()
        cache = AnswerCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("t", "a", 1, "fresh")
        assert cache.get("t", "a", 1) == (True, "fresh")
        clock.advance(9.0)
        assert cache.get("t", "a", 1) == (True, "fresh")
        clock.advance(1.0)  # exactly at the TTL boundary: expired
        assert cache.get("t", "a", 1) == (False, None)
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.size == 0

    def test_invalidate_cell_and_table(self):
        cache = AnswerCache(capacity=8)
        cache.put("t", "a", 1, "x")
        cache.put("t", "a", 2, "y")
        cache.put("u", "a", 1, "z")
        assert cache.invalidate("t", "a", 1)
        assert not cache.invalidate("t", "a", 99)  # absent: no-op
        assert cache.invalidate_table("t") == 1
        assert len(cache) == 1
        assert cache.get("u", "a", 1) == (True, "z")

    def test_zero_capacity_disables_caching(self):
        cache = AnswerCache(capacity=0)
        cache.put("t", "a", 1, "x")
        assert cache.get("t", "a", 1) == (False, None)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=-1)
        with pytest.raises(ValueError):
            AnswerCache(ttl_seconds=0.0)


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAcquire:
    def test_dispatches_once_and_caches(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        source = RecordingSource(value=0.5)
        outcome = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
        assert outcome.values == {"humor": {1: 0.5, 2: 0.5, 3: 0.5}}
        assert (outcome.dispatches, outcome.cache_hits, outcome.coalesced) == (1, 0, 0)
        repeat = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
        assert repeat.values == outcome.values
        assert (repeat.dispatches, repeat.cache_hits) == (0, 3)
        assert len(source.calls) == 1

    def test_partial_cache_hit_dispatches_only_the_remainder(self):
        runtime = AcquisitionRuntime()
        source = RecordingSource()
        runtime.acquire(source, "movies", [("humor", items_for([1, 2]))])
        outcome = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3, 4]))])
        assert outcome.cache_hits == 2
        assert outcome.dispatches == 1
        assert source.calls[-1] == ("humor", (3, 4))

    def test_attributes_dispatch_concurrently(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = RecordingSource(latency=0.15)
        requests = [(attr, items_for([1, 2])) for attr in ("a", "b", "c", "d")]
        start = time.perf_counter()
        outcome = runtime.acquire(source, "t", requests)
        elapsed = time.perf_counter() - start
        assert outcome.dispatches == 4
        # Four 0.15 s dispatches overlapped on four workers: well under the
        # 0.6 s a sequential runtime would need.
        assert elapsed < 0.45

    def test_concurrent_identical_requests_coalesce_to_one_dispatch(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = RecordingSource(value=0.9)
        source.release.clear()  # block the owning dispatch mid-flight
        results: list[Any] = []

        def acquire() -> None:
            results.append(
                runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
            )

        owner = threading.Thread(target=acquire)
        owner.start()
        assert source.entered.wait(timeout=5.0)  # dispatch is in flight
        joiners = [threading.Thread(target=acquire) for _ in range(3)]
        for thread in joiners:
            thread.start()
        # Joiners registered against the in-flight cells; only now may the
        # platform answer.  N concurrent identical requests -> 1 dispatch.
        time.sleep(0.05)
        source.release.set()
        owner.join(timeout=10.0)
        for thread in joiners:
            thread.join(timeout=10.0)
        assert len(source.calls) == 1
        assert all(r.values == {"humor": {1: 0.9, 2: 0.9, 3: 0.9}} for r in results)
        total_coalesced = sum(r.coalesced for r in results)
        total_hits = sum(r.cache_hits for r in results)
        assert sum(r.dispatches for r in results) == 1
        # Every non-owner cell was either coalesced onto the in-flight
        # dispatch or (if a joiner arrived after completion) cache-served.
        assert total_coalesced + total_hits == 9

    def test_session_is_charged_for_own_dispatches_only(self):
        class Session:
            def __init__(self) -> None:
                self.cost_spent = 0.0

            def record_cost(self, cost: float) -> None:
                self.cost_spent += cost

        runtime = AcquisitionRuntime()
        source = RecordingSource(value=1.0, cost=0.25)
        session = Session()
        runtime.acquire(source, "t", [("a", items_for([1, 2]))], session=session)
        assert session.cost_spent == pytest.approx(0.25)
        # Cache-served repeat: no dispatch, no charge.
        runtime.acquire(source, "t", [("a", items_for([1, 2]))], session=session)
        assert session.cost_spent == pytest.approx(0.25)

    def test_dispatch_cost_is_charged_exactly(self):
        class Session:
            cost_spent = 0.0

            def record_cost(self, cost: float) -> None:
                Session.cost_spent += cost

        runtime = AcquisitionRuntime()
        source = RecordingSource(cost=0.4)
        runtime.acquire(source, "t", [("a", items_for([1]))], session=Session())
        assert Session.cost_spent == pytest.approx(0.4)

    def test_budget_exhaustion_mid_flush_skips_later_dispatches(self):
        # A dispatch that exhausts the budget must stop the flush's later
        # dispatches: each one re-checks the budget at execution time.
        class Session:
            def __init__(self, max_cost: float) -> None:
                self.policy = AcquisitionPolicy(max_cost=max_cost)
                self.cost_spent = 0.0

            @property
            def budget_exhausted(self) -> bool:
                return self.cost_spent >= self.policy.max_cost

            def record_cost(self, cost: float) -> None:
                self.cost_spent += cost

        # Budget-capped sessions dispatch serially *regardless* of the
        # concurrency knob, so the cap is enforced exactly: a worker pool
        # of 4 must not let 4 dispatches race past the check.
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = RecordingSource(value=1.0, cost=1.0)
        session = Session(max_cost=1.0)
        outcome = runtime.acquire(
            source,
            "t",
            [("a", items_for([1])), ("b", items_for([1])), ("c", items_for([1]))],
            session=session,
            policy=session.policy,
        )
        assert outcome.dispatches == 1  # a spent the whole budget; b, c skipped
        assert session.cost_spent == pytest.approx(1.0)
        assert outcome.values == {"a": {1: 1.0}, "b": {}, "c": {}}

    def test_concurrent_dispatch_costs_are_charged_exactly(self):
        # Four overlapping dispatches on a pool of 4: each Dispatch.cost is
        # charged once, never lost or double-counted by a racing charge.
        class Session:
            def __init__(self) -> None:
                self.cost_spent = 0.0

            def record_cost(self, cost: float) -> None:
                self.cost_spent += cost

        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        session = Session()
        outcome = runtime.acquire(
            RecordingSource(latency=0.02, cost=0.25),
            "t",
            [(attr, items_for([1])) for attr in ("a", "b", "c", "d")],
            session=session,
        )
        assert outcome.dispatches == 4
        assert outcome.cost == pytest.approx(1.0)
        assert session.cost_spent == pytest.approx(1.0)

    def test_outcome_mean_worker_accuracy_is_the_mean_over_dispatches(self):
        class QualitySource:
            accuracies = {"a": 0.6, "b": 0.6, "c": 0.9}

            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                stats = {"mean_worker_accuracy": self.accuracies[attribute]}
                return Dispatch({rowid: 1.0 for rowid, _row in items}, quality=stats)

        runtime = AcquisitionRuntime(max_concurrent_batches=1)
        outcome = runtime.acquire(
            QualitySource(), "t", [(attr, items_for([1])) for attr in ("a", "b", "c")]
        )
        assert outcome.dispatches == 3
        assert outcome.mean_worker_accuracy == pytest.approx(0.7)
        assert AcquisitionRuntime().acquire(RecordingSource(), "t", []).mean_worker_accuracy is None

    def test_joiner_with_budget_retries_budget_skipped_cells(self):
        # A joins cells onto B's in-flight batch, but B's session turns out
        # to be broke and skips the dispatch.  A can pay, so A must
        # re-acquire the cells itself instead of returning MISSING.
        class BrokeSession:
            def __init__(self) -> None:
                self.policy = AcquisitionPolicy(max_cost=1.0)
                self.reached_check = threading.Event()
                self.gate = threading.Event()

            @property
            def budget_exhausted(self) -> bool:
                self.reached_check.set()
                assert self.gate.wait(timeout=10.0)
                return True

            def record_cost(self, cost: float) -> None:  # pragma: no cover
                pass

        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        source = RecordingSource(value=0.6)
        broke = BrokeSession()
        results: dict[str, Any] = {}

        def broke_acquire() -> None:
            results["broke"] = runtime.acquire(
                source, "t", [("a", items_for([1, 2]))], session=broke, policy=broke.policy
            )

        def rich_acquire() -> None:
            results["rich"] = runtime.acquire(source, "t", [("a", items_for([1, 2]))])

        owner = threading.Thread(target=broke_acquire)
        owner.start()
        # The broke session blocks inside its budget check *after*
        # registering the cells; the rich acquirer joins them now.
        assert broke.reached_check.wait(timeout=5.0)
        joiner = threading.Thread(target=rich_acquire)
        joiner.start()
        time.sleep(0.05)
        broke.gate.set()
        owner.join(timeout=10.0)
        joiner.join(timeout=10.0)

        assert results["broke"].values == {"a": {}}  # skipped, cells MISSING
        assert results["broke"].dispatches == 0
        rich = results["rich"]
        assert rich.values == {"a": {1: 0.6, 2: 0.6}}  # retried and paid
        assert len(source.calls) == 1  # only the rich session dispatched

    def test_failed_submission_wakes_coalesced_waiters(self):
        class BrokenPool:
            def submit(self, *args, **kwargs):
                raise RuntimeError("cannot schedule new futures after shutdown")

        runtime = AcquisitionRuntime()
        runtime._pool = BrokenPool()
        # Multi-attribute flush: the failure hits the *first* submit, and
        # every later, never-submitted batch must be unwound too.
        requests = [(attr, items_for([1, 2])) for attr in ("a", "b", "c")]
        with pytest.raises(RuntimeError, match="cannot schedule"):
            runtime.acquire(RecordingSource(), "t", requests)
        # All cells were unregistered, so nothing hangs and a later
        # acquire (with a working pool) retries them.
        runtime._pool = None
        outcome = runtime.acquire(RecordingSource(), "t", requests)
        assert outcome.dispatches == 3
        assert outcome.coalesced == 0  # no orphaned in-flight batches

    def test_dispatch_errors_propagate_and_unregister(self):
        class FailingSource:
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                raise RuntimeError("platform down")

        runtime = AcquisitionRuntime()
        with pytest.raises(RuntimeError, match="platform down"):
            runtime.acquire(FailingSource(), "t", [("a", items_for([1]))])
        # The failed cells were unregistered: a later acquire retries them.
        source = RecordingSource()
        outcome = runtime.acquire(source, "t", [("a", items_for([1]))])
        assert outcome.dispatches == 1

    def test_joiner_survives_owner_dispatch_error(self):
        # The owner's source fails mid-dispatch; a query that merely
        # coalesced onto it must not inherit the error — it re-acquires
        # the cells through its own dispatch.
        entered = threading.Event()
        release = threading.Event()

        class FailingSource:
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                entered.set()
                assert release.wait(timeout=10.0)
                raise RuntimeError("owner's platform down")

        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        results: dict[str, Any] = {}

        def owner() -> None:
            try:
                runtime.acquire(FailingSource(), "t", [("a", items_for([1, 2]))])
            except RuntimeError as exc:
                results["owner_error"] = str(exc)

        def joiner() -> None:
            results["joined"] = runtime.acquire(
                RecordingSource(value=0.7), "t", [("a", items_for([1, 2]))]
            )

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert entered.wait(timeout=5.0)
        joiner_thread = threading.Thread(target=joiner)
        joiner_thread.start()
        time.sleep(0.05)
        release.set()
        owner_thread.join(timeout=10.0)
        joiner_thread.join(timeout=10.0)

        assert results["owner_error"] == "owner's platform down"  # owner still fails
        assert results["joined"].values == {"a": {1: 0.7, 2: 0.7}}  # joiner recovered

    def test_unanswered_cells_are_not_cached(self):
        class SilentSource:
            def request_values_with_quality(self, attribute, items, *, policy, tracker):
                return Dispatch({})

        runtime = AcquisitionRuntime()
        outcome = runtime.acquire(SilentSource(), "t", [("a", items_for([1, 2]))])
        assert outcome.values == {"a": {}}
        assert len(runtime.cache) == 0

    def test_run_prediction_counts_batches(self):
        runtime = AcquisitionRuntime()
        assert runtime.run_prediction(lambda: 42) == 42
        assert runtime.stats()["prediction_batches"] == 1

    def test_stats_shape(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        runtime.acquire(RecordingSource(), "t", [("a", items_for([1]))])
        stats = runtime.stats()
        assert stats["dispatches"] == 1
        assert stats["max_concurrent_batches"] == 2
        assert stats["in_flight"] == 0
        assert stats["cache"].size == 1

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ValueError):
            AcquisitionRuntime(max_concurrent_batches=0)

    def test_shutdown_is_idempotent(self):
        runtime = AcquisitionRuntime()
        runtime.acquire(RecordingSource(), "t", [("a", items_for([1]))])
        runtime.shutdown()
        runtime.shutdown()
        # The pool is recreated transparently on the next dispatch.
        outcome = runtime.acquire(RecordingSource(), "t", [("a", items_for([2]))])
        assert outcome.dispatches == 1
