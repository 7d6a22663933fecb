"""Closed-loop runner for SQL workloads against an embedded connection.

A workload is a deterministic stream of :class:`Op` objects; the runner
executes them back to back, times each statement from ``execute`` to the
last fetched row, and keeps every output for the workload's oracle.  With a
:class:`Tracer` attached, every second op runs traced: the two interleaved
halves see the same host conditions, so their p50s differ only by what the
tracing costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from .common import LoopResult, closed_loop, median
from .layers import FrontEndTimer, OperatorTimes, WalProbe


@dataclass(frozen=True)
class Op:
    """One statement of a workload."""

    kind: str
    sql: str
    params: tuple = ()
    read: bool = True
    #: Bytes of user data a write carries (its parameter values as text).
    user_bytes: int = 0
    #: Values the oracle needs that are spelled into the SQL text as literals.
    literals: tuple = ()


def user_bytes(values: tuple) -> int:
    return sum(len(str(value).encode("utf-8")) for value in values)


def execute(connection: Any, op: Op) -> Any:
    """Run one statement; a read returns its rows, a write its rowcount."""
    cursor = connection.execute(op.sql, op.params)
    return cursor.fetchall() if op.read else cursor.rowcount


_POOL_COUNTERS = ("hits", "misses", "evictions", "write_backs")


class Tracer:
    """Per-layer bookkeeping of the traced ops over one embedded connection.

    Counters are read around each traced op, outside its timed region, so
    ops that run untraced in between never leak into the per-layer figures.
    """

    def __init__(self, connection: Any) -> None:
        self.connection = connection
        self.front_end = FrontEndTimer()
        self.operators = OperatorTimes()
        durability = connection.durability
        self._pool = durability.pager.pool if durability is not None else None
        self._wal = durability.wal if durability is not None else None
        self.wal = WalProbe(self._wal) if self._wal is not None else None
        self.ops: list[Op] = []
        #: Per op: (latency s, statement-cache miss, operator self s, WAL s).
        self.costs: list[tuple[float, bool, float, float]] = []
        #: Per op: the seconds some layer's self time covers (set by finish).
        self.attributed: list[float] = []
        self.counts: dict[str, int] = dict.fromkeys(
            ("cache_hits", "cache_misses", "fsyncs", "wal_records", *_POOL_COUNTERS), 0
        )

    def _counters(self) -> dict[str, int]:
        cache = self.connection.cache_stats()
        counters = {"cache_hits": cache.hits, "cache_misses": cache.misses}
        if self._pool is not None:
            counters.update({name: getattr(self._pool, name) for name in _POOL_COUNTERS})
        if self._wal is not None:
            counters["fsyncs"] = self._wal.fsyncs
            counters["wal_records"] = len(self.wal.records)
        return counters

    def step(self, op: Op) -> tuple[float, Any]:
        before = self._counters()
        wal_before = self.wal.seconds if self.wal is not None else 0.0
        start = perf_counter()
        cursor = self.connection.execute(op.sql, op.params)
        output = cursor.fetchall() if op.read else cursor.rowcount
        latency = perf_counter() - start
        own = self.operators.add(cursor.plan) if op.read else 0.0
        wal = (self.wal.seconds - wal_before) if self.wal is not None else 0.0
        after = self._counters()
        for name, value in after.items():
            self.counts[name] += value - before[name]
        self.ops.append(op)
        self.costs.append((latency, after["cache_misses"] > before["cache_misses"], own, wal))
        return latency, output

    def finish(self) -> dict[str, float]:
        """Detach, replay the front end and return the SQL-layer metrics."""
        if self.wal is not None:
            self.wal.detach()
        connection = self.connection
        self.attributed = []
        for op, (_latency, missed, own, wal) in zip(self.ops, self.costs):
            cost = self.front_end.replay(connection, op.sql, op.params)
            paid = ("tokenize", "parse", "plan") if missed else ()
            self.attributed.append(
                sum(cost.get(phase, 0.0) for phase in paid)
                + sum(cost.get(phase, 0.0) for phase in ("bind", "lower", "open"))
                + own
                + wal
            )
        counts = self.counts
        statements = len(self.ops)
        reads = sum(1 for op in self.ops if op.read)
        writes = statements - reads
        lookups = counts["cache_hits"] + counts["cache_misses"]
        layers: dict[str, float] = {
            "connection.stmt_cache_hit_rate": counts["cache_hits"] / lookups if lookups else 0.0,
            "tokenizer.tokenize_us": self.front_end.mean_us("tokenize"),
            "parser.parse_us": self.front_end.mean_us("parse"),
            "planner.plan_us": self.front_end.mean_us("plan"),
            "planner.bind_us": self.front_end.mean_us("bind"),
            "planner.lower_us": self.front_end.mean_us("lower"),
            "operators.open_us": self.front_end.mean_us("open"),
        }
        for name, seconds in self.operators.self_seconds.items():
            layers[f"operators.{name}.self_us"] = seconds / max(reads, 1) * 1e6
        if self.operators.rows_out:
            layers["operators.rows_examined_per_row"] = (
                self.operators.rows_examined / self.operators.rows_out
            )
        if self._pool is not None and statements:
            pins = counts["hits"] + counts["misses"]
            layers["pager.hit_rate"] = counts["hits"] / pins if pins else 0.0
            layers["pager.misses_per_stmt"] = counts["misses"] / statements
            layers["pager.evictions_per_stmt"] = counts["evictions"] / statements
            layers["pager.write_backs_per_stmt"] = counts["write_backs"] / statements
        if self.wal is not None and writes:
            written = sum(op.user_bytes for op in self.ops if not op.read)
            layers["wal.records_per_write"] = counts["wal_records"] / writes
            layers["wal.bytes_per_user_byte"] = (
                self.wal.framed_bytes() / written if written else 0.0
            )
            layers["wal.fsyncs_per_write"] = counts["fsyncs"] / writes
        layers["trace.unattributed_share"] = self.unattributed_share()
        return layers

    def unattributed_share(self, read: bool | None = None) -> float:
        """Share of the traced latency no layer covers (reads/writes/all)."""
        chosen = [
            (cost[0], seconds)
            for op, cost, seconds in zip(self.ops, self.costs, self.attributed)
            if read is None or op.read == read
        ]
        total = sum(latency for latency, _ in chosen)
        covered = sum(seconds for _, seconds in chosen)
        return max(0.0, 1.0 - covered / total) if total else 0.0

    def mean_attributed_by_kind(self) -> dict[str, float]:
        """Mean attributed seconds per op of each op kind (after finish)."""
        by_kind: dict[str, list[float]] = {}
        for op, seconds in zip(self.ops, self.attributed):
            by_kind.setdefault(op.kind, []).append(seconds)
        return {kind: sum(values) / len(values) for kind, values in by_kind.items()}


def measure(
    connection: Any,
    op_at: Callable[[int], Op],
    seconds: float,
    *,
    tracer: Tracer | None = None,
    min_ops: int = 1,
) -> tuple[LoopResult, list[Op], list[Any]]:
    """Closed loop over ``op_at(0), op_at(1), ...`` for *seconds*.

    Returns the samples, the ops run and their outputs (an exception object
    for an op that raised).  Samples are marked failed only for raised
    errors here; the workload's oracle marks wrong outputs afterwards.
    With a *tracer*, the odd-numbered ops run traced (``Sample.traced``).
    """
    ops: list[Op] = []
    outputs: list[Any] = []

    def step(i: int) -> tuple[str, float, bool]:
        op = op_at(i)
        ops.append(op)
        kind = "read" if op.read else "write"
        start = perf_counter()
        try:
            if tracer is not None and i % 2:
                latency, output = tracer.step(op)
            else:
                output = execute(connection, op)
                latency = perf_counter() - start
        except Exception as exc:  # a failed op is counted, not fatal
            outputs.append(exc)
            return kind, perf_counter() - start, False
        outputs.append(output)
        return kind, latency, True

    loop = closed_loop(step, seconds, min_ops=min_ops)
    if tracer is not None:
        for i, sample in enumerate(loop.samples):
            sample.traced = bool(i % 2)
    return loop, ops, outputs


def split_traced(loop: LoopResult) -> tuple[LoopResult, LoopResult]:
    """The untraced and the traced samples of an interleaved loop."""
    half = loop.wall_seconds / 2.0
    plain = LoopResult([s for s in loop.samples if not s.traced], half)
    traced = LoopResult([s for s in loop.samples if s.traced], half)
    return plain, traced


def apply_oracle(loop: LoopResult, ops: list[Op], outputs: list[Any], expect: Callable) -> int:
    """Mark samples whose output differs from ``expect(op)``; returns mismatches."""
    mismatches = 0
    for sample, op, output in zip(loop.samples, ops, outputs):
        expected = expect(op)
        if sample.ok and output != expected:
            sample.ok = False
            mismatches += 1
    return mismatches


def p50_ms(loop: LoopResult, kind: str = "read") -> float:
    return median(loop.latencies_ms(kind))
