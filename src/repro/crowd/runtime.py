"""Concurrent crowd-acquisition runtime with cross-query answer caching.

The query engine's acquisition operators
(:class:`~repro.db.sql.operators.CrowdFill` and
:class:`~repro.db.sql.operators.PredictFill`) do not talk to a
:class:`~repro.db.acquisition.ValueSource` directly: they hand
their per-attribute HIT-group batches to an :class:`AcquisitionRuntime`,
which is shared by every connection of a catalog.  The runtime adds the
three behaviours that make crowd-backed queries tractable under concurrent
traffic — crowd latency dominates query time, so the wins come from
overlapping and deduplicating platform work, not from faster CPU:

* **concurrent dispatch** — a bounded worker pool (``max_concurrent_batches``
  threads) executes the platform calls of different attributes and batches
  in parallel, so a query touching four crowd-sourced columns pays one
  platform round-trip of wall-clock latency instead of four;
* **in-flight coalescing** — a registry of pending ``(table, attribute,
  rowid)`` cells lets concurrently executing cursors (and connections
  sharing a catalog) join a dispatch another query already started instead
  of paying the platform twice for the same cell;
* **cross-query answer caching** — an :class:`AnswerCache` (capacity- and
  TTL-bounded, LRU) serves repeat requests with zero platform calls.  The
  cache is *provenance-aware by construction*: only values that came back
  from a crowd dispatch are ever inserted, so predicted cells can never
  poison it, and a direct ``UPDATE`` on a cached cell invalidates its entry
  (the storage layer forwards cell invalidations through the catalog).

The runtime itself never interprets values; it moves batches, deduplicates
cells and accounts statistics.  Determinism under concurrency is the value
source's job (see
:class:`~repro.crowd.sources.SimulatedCrowdValueSource`, which derives its
per-dispatch child seeds from request identity rather than dispatch order).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.crowd.worker_quality import WorkerQualityTracker
from repro.db.acquisition import ValueSource
from repro.db.types import is_missing

__all__ = ["AcquisitionRuntime", "AnswerCache", "AnswerCacheStats", "AcquisitionOutcome"]

#: A cached/coalesced cell: ``(table, attribute, rowid)`` (names lowercased).
CellKey = tuple[str, str, int]


def _cell_key(table: str, attribute: str, rowid: int) -> CellKey:
    return (table.lower(), attribute.lower(), rowid)


# ---------------------------------------------------------------------------
# Answer cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnswerCacheStats:
    """Counters of an :class:`AnswerCache` (monotonic since creation)."""

    hits: int
    misses: int
    expirations: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _CacheEntry:
    value: Any
    inserted_at: float


class AnswerCache:
    """Cross-query cache of crowd answers, keyed on ``(table, attribute, rowid)``.

    * **Capacity-bounded**: at most *capacity* entries; the least recently
      *used* entry is evicted on overflow (lookups refresh recency).
    * **TTL-bounded**: entries older than *ttl_seconds* expire on lookup
      (``None`` disables expiry).  Expired cells look exactly like misses,
      which is what triggers re-acquisition from the platform.
    * **Provenance-aware**: the :class:`AcquisitionRuntime` inserts only
      values returned by a crowd dispatch — predicted cells never enter the
      cache, so a cache hit is always a real (aggregated) human answer.
    * **Invalidation**: a direct ``UPDATE`` of a cell makes the stored value
      authoritative again; the storage layer calls :meth:`invalidate` so the
      stale crowd answer is dropped.

    All methods are thread-safe.  *clock* is injectable for TTL tests.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError("answer cache capacity must be >= 0")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("answer cache ttl_seconds must be positive (or None)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[CellKey, _CacheEntry] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._expirations = 0
        self._evictions = 0
        self._invalidations = 0

    # -- lookups ------------------------------------------------------------

    def get(self, table: str, attribute: str, rowid: int) -> tuple[bool, Any]:
        """Return ``(hit, value)`` for one cell, refreshing its LRU position."""
        key = _cell_key(table, attribute, rowid)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return False, None
            if (
                self.ttl_seconds is not None
                and self._clock() - entry.inserted_at >= self.ttl_seconds
            ):
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, entry.value

    # -- population ---------------------------------------------------------

    def put(self, table: str, attribute: str, rowid: int, value: Any) -> None:
        """Insert one *crowd-sourced* answer (callers must not cache predictions)."""
        if self.capacity == 0 or is_missing(value):
            return
        key = _cell_key(table, attribute, rowid)
        with self._lock:
            self._entries[key] = _CacheEntry(value=value, inserted_at=self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    # -- invalidation -------------------------------------------------------

    def invalidate(self, table: str, attribute: str, rowid: int) -> bool:
        """Drop one cell (direct UPDATE made the stored value authoritative)."""
        key = _cell_key(table, attribute, rowid)
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._invalidations += 1
                return True
            return False

    def invalidate_table(self, table: str) -> int:
        """Drop every cached cell of *table* (e.g. after DROP TABLE)."""
        prefix = table.lower()
        with self._lock:
            stale = [key for key in self._entries if key[0] == prefix]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    # -- introspection ------------------------------------------------------

    def stats(self) -> AnswerCacheStats:
        """Current hit/miss/expiry/eviction/invalidation counters."""
        with self._lock:
            return AnswerCacheStats(
                hits=self._hits,
                misses=self._misses,
                expirations=self._expirations,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CellKey) -> bool:
        with self._lock:
            return key in self._entries


# ---------------------------------------------------------------------------
# Acquisition outcome (what CrowdFill gets back)
# ---------------------------------------------------------------------------


@dataclass
class AcquisitionOutcome:
    """Result of one :meth:`AcquisitionRuntime.acquire` call.

    ``values`` maps each requested attribute to its resolved
    ``rowid -> value`` entries, merged from all three supply paths (cache,
    coalesced in-flight dispatches, own platform dispatches).  The counters
    say how the cells were supplied; EXPLAIN ANALYZE surfaces them per
    operator.
    """

    values: dict[str, dict[int, Any]] = field(default_factory=dict)
    #: Cells served from the :class:`AnswerCache` (zero platform work).
    cache_hits: int = 0
    #: Cells joined onto another cursor's in-flight dispatch.
    coalesced: int = 0
    #: Platform calls this acquire issued itself.
    dispatches: int = 0
    #: Dollars spent by the dispatches this acquire issued.
    cost: float = 0.0
    #: attribute -> rowid -> posterior cell confidence, reported by
    #: quality-tracked dispatches (accuracy-weighted aggregation); stored
    #: as provenance confidence so low-confidence crowd answers feed the
    #: re-acquisition loop exactly like low-confidence predictions.
    confidences: dict[str, dict[int, float]] = field(default_factory=dict)
    #: Platform assignments adaptive sizing avoided versus paying
    #: ``max_assignments`` for every settled item.
    assignments_saved: int = 0
    #: Sum and count of the worker-accuracy estimates reported by this
    #: acquire's quality-tracked dispatches (one estimate per dispatch).
    accuracy_sum: float = 0.0
    accuracy_dispatches: int = 0

    @property
    def mean_worker_accuracy(self) -> float | None:
        """Mean worker-accuracy estimate over the quality-tracked dispatches
        (None when none ran)."""
        if not self.accuracy_dispatches:
            return None
        return self.accuracy_sum / self.accuracy_dispatches


class _PendingBatch:
    """One in-flight platform dispatch, joinable by concurrent acquirers."""

    __slots__ = ("done", "values", "error", "skipped", "quality")

    def __init__(self) -> None:
        self.done = threading.Event()
        #: rowid -> resolved value, populated by the owning dispatch.
        self.values: dict[int, Any] = {}
        self.error: BaseException | None = None
        #: True when the owner skipped the dispatch (budget exhausted) —
        #: joiners with budget of their own should re-acquire these cells.
        self.skipped = False
        #: Quality stats of the owning dispatch (confidences per rowid,
        #: assignments saved, mean worker accuracy); None on flat paths.
        self.quality: dict[str, Any] | None = None


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class AcquisitionRuntime:
    """Catalog-shared scheduler for crowd-acquisition batches.

    Parameters
    ----------
    max_concurrent_batches:
        Size of the worker pool executing platform dispatches; ``1``
        serializes all crowd calls (the ablation baseline), higher values
        overlap the latency of different attributes' and batches' HIT
        groups.
    cache_size, cache_ttl_seconds:
        Capacity and expiry of the :class:`AnswerCache` (``ttl=None`` never
        expires).  ``cache_size=0`` disables caching.
    clock:
        Injectable monotonic clock used by the cache's TTL accounting.

    One runtime is shared by every connection of a
    :class:`~repro.db.catalog.Catalog` (see
    :meth:`~repro.db.catalog.Catalog.acquisition_runtime`), which is what
    makes coalescing and caching effective *across* queries and sessions,
    not just within one cursor.
    """

    def __init__(
        self,
        *,
        max_concurrent_batches: int = 4,
        cache_size: int = 1024,
        cache_ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_concurrent_batches < 1:
            raise ValueError("max_concurrent_batches must be >= 1")
        self.max_concurrent_batches = max_concurrent_batches
        self.cache = AnswerCache(cache_size, cache_ttl_seconds, clock=clock)
        self._lock = threading.Lock()
        self._in_flight: dict[CellKey, _PendingBatch] = {}
        self._pool: ThreadPoolExecutor | None = None
        #: Platform dispatches executed over the runtime's lifetime.
        self.total_dispatches = 0
        #: Cells ever served from the cache / joined onto in-flight work.
        self.total_cache_hits = 0
        self.total_coalesced = 0
        #: Prediction batches routed through :meth:`run_prediction`.
        self.prediction_batches = 0
        self.prediction_seconds = 0.0
        #: Catalog-wide per-worker accuracy estimates, shared by every
        #: session dispatching through this runtime (cross-tenant, like
        #: the answer cache).  The catalog hooks its runtime's tracker to
        #: WAL journaling and warm-starts it from recovered worker stats.
        self.worker_quality = WorkerQualityTracker()
        #: Assignments adaptive sizing avoided over the runtime's lifetime.
        self.total_assignments_saved = 0

    # -- worker pool --------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrent_batches,
                    thread_name_prefix="acquisition",
                )
                # Stop the (non-daemon) worker threads promptly when the
                # runtime itself is garbage collected — e.g. with a dropped
                # catalog — so short-lived runtimes cannot accumulate idle
                # threads.
                weakref.finalize(self, self._pool.shutdown, wait=False)
            return self._pool

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent; in-flight dispatches finish)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- the acquisition entry point ---------------------------------------

    def acquire(
        self,
        source: ValueSource,
        table: str,
        requests: Sequence[tuple[str, Sequence[tuple[int, dict[str, Any]]]]],
        *,
        session: Any = None,
        _retry_skipped: bool = True,
    ) -> AcquisitionOutcome:
        """Resolve the MISSING cells of one CrowdFill flush.

        *requests* holds ``(attribute, items)`` pairs, one per attribute of
        the flushed batch (items are ``(rowid, row)`` pairs).  For every
        cell the runtime tries, in order: the :class:`AnswerCache`, the
        in-flight registry (joining a dispatch another cursor already
        started), and finally one platform dispatch per attribute for the
        cells nobody else is acquiring — all own dispatches execute
        concurrently on the worker pool, bounded by
        ``max_concurrent_batches``.

        Blocks until every cell is resolved (or the platform declined to
        answer it) and returns the merged :class:`AcquisitionOutcome`.
        When *session* is given, each dispatch this call issues re-checks
        ``session.budget_exhausted`` right before executing — a dispatch
        that finds the budget spent is skipped, leaving its cells
        MISSING — and charges its cost as it completes (coalesced cells
        are paid by the dispatch owner; cache hits are free).  A session
        whose ``policy`` carries a cost cap (``max_cost``) has its
        dispatches executed *serially* so the cap is enforced exactly:
        dispatch costs are unknowable up front, and N concurrent dispatches
        could otherwise all pass the budget check before any cost lands,
        overspending the cap by up to N batches.  Concurrency is for
        unbudgeted sessions.
        """
        outcome = AcquisitionOutcome()
        own: list[tuple[str, list[tuple[int, dict[str, Any]]], _PendingBatch, list[CellKey]]] = []
        joined: list[tuple[str, int, dict[str, Any], _PendingBatch]] = []

        for attribute, items in requests:
            resolved = outcome.values.setdefault(attribute, {})
            to_dispatch: list[tuple[int, dict[str, Any]]] = []
            keys: list[CellKey] = []
            pending = _PendingBatch()
            # In-flight registry and cache are consulted under one lock
            # (taken once per attribute batch), registry first: a
            # completing dispatch caches its answers *before*
            # unregistering its cells (also under this lock), so a cell
            # found unregistered here is guaranteed to already show its
            # answer in the cache — there is no window to re-dispatch a
            # just-answered cell.
            with self._lock:
                for rowid, row in items:
                    key = _cell_key(table, attribute, rowid)
                    other = self._in_flight.get(key)
                    if other is not None:
                        joined.append((attribute, rowid, row, other))
                        outcome.coalesced += 1
                        continue
                    hit, value = self.cache.get(table, attribute, rowid)
                    if hit:
                        resolved[rowid] = value
                        outcome.cache_hits += 1
                        continue
                    self._in_flight[key] = pending
                    to_dispatch.append((rowid, row))
                    keys.append(key)
            if to_dispatch:
                own.append((attribute, to_dispatch, pending, keys))

        policy = getattr(session, "policy", None)
        serialize = policy is not None and policy.max_cost is not None
        if own and serialize:
            # Exact budget enforcement: run the dispatches one after the
            # other on the caller's thread, so each one observes the cost
            # the previous ones already charged.
            for index, (attribute, items, pending, keys) in enumerate(own):
                try:
                    cost, dispatched = self._run_dispatch(
                        source, table, attribute, items, pending, keys, session
                    )
                except BaseException as exc:
                    self._abandon_from(own, index + 1, exc)
                    raise
                outcome.cost += cost
                if dispatched:
                    outcome.dispatches += 1
                outcome.values.setdefault(attribute, {}).update(pending.values)
                self._merge_quality(outcome, attribute, pending)
        elif own:
            futures: list[tuple[str, _PendingBatch, Future[tuple[float, bool]]]] = []
            pool = self._executor()
            for index, (attribute, items, pending, keys) in enumerate(own):
                try:
                    future = pool.submit(
                        self._run_dispatch,
                        source,
                        table,
                        attribute,
                        items,
                        pending,
                        keys,
                        session,
                    )
                except BaseException as exc:
                    # submit failed (e.g. a racing shutdown): unregister
                    # this and every not-yet-submitted batch and wake
                    # their coalesced waiters, or later queries touching
                    # those cells would block forever on dead batches.
                    self._abandon_from(own, index, exc)
                    raise
                futures.append((attribute, pending, future))

            # Collect own dispatches first (their futures also propagate
            # errors and per-dispatch cost), then the joined batches.
            for attribute, pending, future in futures:
                cost, dispatched = future.result()
                outcome.cost += cost
                if dispatched:
                    outcome.dispatches += 1
                outcome.values.setdefault(attribute, {}).update(pending.values)
                self._merge_quality(outcome, attribute, pending)
        retry_cells: dict[str, list[tuple[int, dict[str, Any]]]] = {}
        for attribute, rowid, row, pending in joined:
            pending.done.wait()
            if pending.error is not None:
                # The *owner's* dispatch failed.  Its error is not ours:
                # re-acquire the cell through our own source/session below
                # instead of aborting an unrelated query.  (In a retry
                # round the error propagates — a second failure means the
                # problem is not specific to the original owner.)
                if _retry_skipped:
                    retry_cells.setdefault(attribute, []).append((rowid, row))
                    continue
                raise pending.error
            if rowid in pending.values:
                outcome.values.setdefault(attribute, {})[rowid] = pending.values[rowid]
                quality = pending.quality
                if quality and rowid in quality.get("confidences", {}):
                    outcome.confidences.setdefault(attribute, {})[rowid] = quality[
                        "confidences"
                    ][rowid]
            elif pending.skipped:
                retry_cells.setdefault(attribute, []).append((rowid, row))

        with self._lock:
            self.total_dispatches += outcome.dispatches
            self.total_cache_hits += outcome.cache_hits
            self.total_coalesced += outcome.coalesced
            self.total_assignments_saved += outcome.assignments_saved

        if (
            retry_cells
            and _retry_skipped
            and not (session is not None and getattr(session, "budget_exhausted", False))
        ):
            # We coalesced onto a dispatch that never produced answers —
            # its owner was out of budget, or its source errored.  This
            # session can still try with its own dispatch (one retry
            # round; cells that fail again stay MISSING or raise).
            sub = self.acquire(
                source,
                table,
                list(retry_cells.items()),
                session=session,
                _retry_skipped=False,
            )
            outcome.cache_hits += sub.cache_hits
            outcome.coalesced += sub.coalesced
            outcome.dispatches += sub.dispatches
            outcome.cost += sub.cost
            outcome.assignments_saved += sub.assignments_saved
            for attribute, values in sub.values.items():
                outcome.values.setdefault(attribute, {}).update(values)
            for attribute, confidences in sub.confidences.items():
                outcome.confidences.setdefault(attribute, {}).update(confidences)
            outcome.accuracy_sum += sub.accuracy_sum
            outcome.accuracy_dispatches += sub.accuracy_dispatches
        return outcome

    @staticmethod
    def _merge_quality(
        outcome: AcquisitionOutcome, attribute: str, pending: _PendingBatch
    ) -> None:
        """Fold one quality-tracked dispatch's stats into *outcome*."""
        quality = pending.quality
        if not quality:
            return
        confidences = quality.get("confidences")
        if confidences:
            outcome.confidences.setdefault(attribute, {}).update(confidences)
        outcome.assignments_saved += int(quality.get("assignments_saved", 0))
        accuracy = quality.get("mean_worker_accuracy")
        if accuracy is not None:
            outcome.accuracy_sum += float(accuracy)
            outcome.accuracy_dispatches += 1

    def _abandon_from(
        self,
        own: list[tuple[str, list[tuple[int, dict[str, Any]]], _PendingBatch, list[CellKey]]],
        start: int,
        error: BaseException,
    ) -> None:
        """Unwind the pending batches from *start* on that will never run.

        (Batches before *start* either completed or are cleaned up by
        ``_run_dispatch``'s own ``finally``.)
        """
        for _attribute, _items, pending, keys in own[start:]:
            pending.error = error
            with self._lock:
                for key in keys:
                    if self._in_flight.get(key) is pending:
                        del self._in_flight[key]
            pending.done.set()

    def _run_dispatch(
        self,
        source: ValueSource,
        table: str,
        attribute: str,
        items: list[tuple[int, dict[str, Any]]],
        pending: _PendingBatch,
        keys: list[CellKey],
        session: Any,
    ) -> tuple[float, bool]:
        """Execute one platform dispatch on the worker pool.

        Re-checks the session budget at execution time (an earlier
        dispatch of the same flush may have exhausted it) and charges the
        dispatch's cost as soon as it is known.  Populates the cache and
        the pending batch, then unregisters the cells under the runtime
        lock — in that order, so a concurrent acquirer either joins the
        pending batch or finds the answers already cached, never neither.
        Returns ``(cost, dispatched)``; a budget-skipped dispatch is
        ``(0.0, False)`` and leaves its cells MISSING.
        """
        try:
            if session is not None and getattr(session, "budget_exhausted", False):
                pending.values = {}
                pending.skipped = True
                return 0.0, False
            dispatch = source.request_values_with_quality(
                attribute,
                items,
                policy=getattr(session, "policy", None),
                tracker=self.worker_quality,
            )
            pending.quality = dispatch.quality or None
            # Persist new worker evidence (a no-op when nothing is dirty or
            # without a journal hook; the catalog installs one on its
            # shared runtime).
            self.worker_quality.flush()
            if session is not None and dispatch.cost:
                with self._lock:  # record_cost is not itself thread-safe
                    session.record_cost(dispatch.cost)
            resolved = {
                rowid: value for rowid, value in dispatch.values.items() if not is_missing(value)
            }
            for rowid, value in resolved.items():
                self.cache.put(table, attribute, rowid, value)
            pending.values = resolved
            return dispatch.cost, True
        except BaseException as exc:
            pending.error = exc
            raise
        finally:
            with self._lock:
                for key in keys:
                    if self._in_flight.get(key) is pending:
                        del self._in_flight[key]
            pending.done.set()

    # -- prediction chokepoint ---------------------------------------------

    def run_prediction(self, fit_predict: Callable[[], Any]) -> Any:
        """Run one PredictFill training/prediction step through the runtime.

        Predictions are CPU-bound and must not occupy the platform worker
        pool, so they execute inline; routing them through the runtime
        keeps a single accounting point for all acquisition work
        (``prediction_batches`` / ``prediction_seconds``).
        """
        start = time.perf_counter()
        try:
            return fit_predict()
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.prediction_batches += 1
                self.prediction_seconds += elapsed

    # -- introspection ------------------------------------------------------

    def stats(self) -> Mapping[str, Any]:
        """Lifetime counters of the runtime plus its cache statistics."""
        with self._lock:
            counters = {
                "max_concurrent_batches": self.max_concurrent_batches,
                "dispatches": self.total_dispatches,
                "cache_hits": self.total_cache_hits,
                "coalesced": self.total_coalesced,
                "in_flight": len(self._in_flight),
                "prediction_batches": self.prediction_batches,
                "prediction_seconds": self.prediction_seconds,
                "assignments_saved": self.total_assignments_saved,
            }
        counters["cache"] = self.cache.stats()
        counters["known_workers"] = self.worker_quality.n_workers
        counters["mean_worker_accuracy"] = self.worker_quality.mean_accuracy()
        return counters

    def __repr__(self) -> str:
        return (
            f"AcquisitionRuntime(max_concurrent_batches={self.max_concurrent_batches}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
