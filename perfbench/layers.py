"""Outside-in per-layer tracing.

Nothing here reaches into the program: each layer is measured by timing
calls into its public functions (the SQL front end, ``Operator.open``, the
value source and predictor behind benchmark-owned proxies, the WAL's
``append``) and by reading its public counters (``Operator.wall_seconds``
and ``rows_scanned``, the statement cache, the buffer pool's and the WAL's
counters, ``AcquisitionRuntime.stats()``, the server's ``server_stats``).
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any

from repro.db.sql import ast
from repro.db.sql.parameters import bind_select_plan
from repro.db.sql.parser import parse_statement
from repro.db.sql.planner import Planner
from repro.db.sql.tokenizer import tokenize

#: Operators whose exclusive time is reported as ``operators.<Op>.self_us``.
OPERATORS = (
    "SeqScan",
    "IndexScan",
    "IndexRangeScan",
    "Bind",
    "Filter",
    "Project",
    "Aggregate",
    "HashJoin",
    "Sort",
    "Limit",
    "CrowdFill",
    "PredictFill",
)

#: WAL frame header: ``<u32 length><u32 crc32>`` before each JSON record.
WAL_HEADER_BYTES = 8

#: Layer metric -> (end-to-end metrics it should move, workloads it moves on).
LAYER_MAP: dict[str, dict[str, list[str]]] = {
    "connection.stmt_cache_hit_rate": {
        "moves": ["read_p50_ms"],
        "on": ["oltp_embedded"],
    },
    "tokenizer.tokenize_us": {"moves": ["read_p50_ms"], "on": ["oltp_embedded"]},
    "parser.parse_us": {"moves": ["read_p50_ms"], "on": ["oltp_embedded"]},
    "planner.plan_us": {
        "moves": ["read_p50_ms", "throughput_ops_s"],
        "on": ["oltp_embedded", "served_oltp"],
    },
    "planner.bind_us": {
        "moves": ["read_p50_ms", "throughput_ops_s"],
        "on": ["oltp_embedded", "served_oltp"],
    },
    "planner.lower_us": {
        "moves": ["read_p50_ms", "throughput_ops_s"],
        "on": ["oltp_embedded", "served_oltp"],
    },
    "operators.open_us": {
        "moves": ["read_p50_ms", "throughput_ops_s"],
        "on": ["oltp_embedded", "served_oltp"],
    },
    **{
        f"operators.{name}.self_us": {
            "moves": ["read_p50_ms", "read_tail_ms"],
            "on": ["crowd_expand"] if name in ("CrowdFill", "PredictFill") else ["analytic_scan"],
        }
        for name in OPERATORS
    },
    "operators.rows_examined_per_row": {
        "moves": ["read_p50_ms", "read_tail_ms"],
        "on": ["analytic_scan"],
    },
    **{
        f"pager.{name}": {"moves": ["read_p50_ms", "peak_rss_mb"], "on": ["analytic_scan"]}
        for name in (
            "hit_rate",
            "misses_per_stmt",
            "evictions_per_stmt",
            "write_backs_per_stmt",
            "overhead_ms",
        )
    },
    **{
        f"wal.{name}": {
            "moves": ["write_p50_ms", "write_tail_ms"],
            "on": ["oltp_embedded", "served_oltp"],
        }
        for name in ("records_per_write", "bytes_per_user_byte", "fsyncs_per_write", "overhead_us")
    },
    **{
        name: {
            "moves": [
                "read_p50_ms",
                "platform_calls_per_query",
                "crowd_usd_per_query",
                "fill_accuracy",
            ],
            "on": ["crowd_expand"],
        }
        for name in (
            "runtime.dispatches_per_query",
            "runtime.cache_hit_rate",
            "runtime.assignments_saved_per_query",
            "sources.dispatch_ms",
            "sources.cells_per_dispatch",
            "prediction.fit_predict_ms",
            "prediction.training_size",
        )
    },
    "perceptual.space_build_s": {"moves": ["setup_s"], "on": ["crowd_expand"]},
    **{
        name: {"moves": ["read_p50_ms", "throughput_ops_s"], "on": ["served_oltp"]}
        for name in (
            "protocol.encode_us",
            "protocol.decode_us",
            "server.overhead_us",
            "server.rejected",
            "tenancy.stmt_cache_hit_rate",
        )
    },
    "trace.unattributed_share": {"moves": [], "on": ["all"]},
    "trace.overhead_share": {"moves": [], "on": ["all"]},
}

PER_LAYER_METRICS = tuple(LAYER_MAP)


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at zero (a layer a workload never reaches)."""
    return dict.fromkeys(PER_LAYER_METRICS, 0.0)


# ---------------------------------------------------------------------------
# SQL front end and operator tree
# ---------------------------------------------------------------------------


class FrontEndTimer:
    """Accumulates tokenize/parse/plan/bind/lower/open time per call.

    :meth:`replay` runs one of the workload's own statements through the
    public front-end functions; the caller decides which phases the real
    execution paid (a statement-cache hit skips tokenize, parse and plan).
    """

    PHASES = ("tokenize", "parse", "plan", "bind", "lower", "open")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def replay(self, connection: Any, sql: str, params: tuple = ()) -> dict[str, float]:
        t0 = perf_counter()
        tokenize(sql)
        t1 = perf_counter()
        statement = parse_statement(sql)  # tokenizes again, then parses
        t2 = perf_counter()
        cost = {"tokenize": t1 - t0, "parse": max(0.0, (t2 - t1) - (t1 - t0))}
        if isinstance(statement, ast.SelectStatement):
            planner = Planner(connection.catalog)
            with connection.catalog.lock:
                t3 = perf_counter()
                plan = planner.plan_select(statement)
                t4 = perf_counter()
                bound = bind_select_plan(plan, params)
                t5 = perf_counter()
                root = planner.lower(bound)
                t6 = perf_counter()
                root.open()
                t7 = perf_counter()
                root.close()
            cost.update(plan=t4 - t3, bind=t5 - t4, lower=t6 - t5, open=t7 - t6)
        for phase, seconds in cost.items():
            self.seconds[phase] += seconds
            self.calls[phase] += 1
        return cost

    def mean_us(self, phase: str) -> float:
        calls = self.calls.get(phase, 0)
        return self.seconds[phase] / calls * 1e6 if calls else 0.0


class OperatorTimes:
    """Exclusive operator time read from ``Cursor.plan.walk()``."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.rows_examined = 0
        self.rows_out = 0

    def add(self, root: Any) -> float:
        """Fold one executed tree in; returns its summed self time."""
        total = 0.0
        for op in root.walk():
            own = op.wall_seconds - sum(child.wall_seconds for child in op.children)
            self.self_seconds[type(op).__name__] += own
            total += own
            self.rows_examined += getattr(op, "rows_scanned", 0)
        self.rows_out += root.rows_out
        return total


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------


class WalProbe:
    """Times ``WriteAheadLog.append`` of one database from outside.

    The wrapper is installed as an instance attribute and removed by
    :meth:`detach`; the records are kept so their framed size can be
    computed after the measured window.
    """

    def __init__(self, wal: Any) -> None:
        self._wal = wal
        self.seconds = 0.0
        self.records: list[tuple[str, dict[str, Any]]] = []
        inner = wal.append

        def append(op: str, payload: dict[str, Any]) -> int:
            start = perf_counter()
            try:
                return inner(op, payload)
            finally:
                self.seconds += perf_counter() - start
                self.records.append((op, payload))

        wal.append = append

    def detach(self) -> None:
        del self._wal.append

    def framed_bytes(self) -> int:
        return sum(
            WAL_HEADER_BYTES
            + len(json.dumps({"lsn": 0, "op": op, **payload}, separators=(",", ":")))
            for op, payload in self.records
        )


# ---------------------------------------------------------------------------
# Crowd proxies
# ---------------------------------------------------------------------------


class TimedSource:
    """Delegating proxy around a value source that times every dispatch.

    It exposes the wrapped source's request methods and its
    ``quality_enabled`` flag, so the acquisition runtime takes exactly the
    dispatch path it takes for the source itself.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.quality_enabled = getattr(inner, "quality_enabled", False)
        self._lock = threading.Lock()
        # Named apart from the wrapped source's own ``dispatches`` and
        # ``total_cost``, which reads through the proxy must still reach.
        self.timed_seconds = 0.0
        self.timed_calls = 0
        self.timed_cells = 0

    def _timed(self, method: str, attribute: str, items: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return getattr(self._inner, method)(attribute, items, **kwargs)
        finally:
            with self._lock:
                self.timed_seconds += perf_counter() - start
                self.timed_calls += 1
                self.timed_cells += len(items)

    def request_values(self, attribute: str, items: Any) -> Any:
        return self._timed("request_values", attribute, items)

    def request_values_with_cost(self, attribute: str, items: Any) -> Any:
        return self._timed("request_values_with_cost", attribute, items)

    def request_values_with_quality(self, attribute: str, items: Any, **kwargs: Any) -> Any:
        return self._timed("request_values_with_quality", attribute, items, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedPredictor:
    """Delegating proxy around an attribute predictor timing ``fit_predict``."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.seconds = 0.0
        self.calls = 0
        self.training_rows = 0

    def fit_predict(self, attribute: str, train: Any, targets: Any) -> Any:
        start = perf_counter()
        batch = self._inner.fit_predict(attribute, train, targets)
        self.seconds += perf_counter() - start
        self.calls += 1
        self.training_rows += batch.training_size
        return batch

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
