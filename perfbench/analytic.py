"""``analytic_scan``: scans, a hash join and a sort over a table larger than
the buffer pool.

A ``sales`` fact table and a 1000-row ``stores`` dimension live in a
durable database whose buffer pool is much smaller than the heap, so every
full scan misses and evicts pages.  Three parameterized queries run in
turn (parse and plan come from the statement cache, and nothing is
written):

* scan + filter + GROUP BY aggregate over ``sales``;
* a hash join of ``sales`` with ``stores`` plus an aggregate;
* ORDER BY on ``amount`` (no index) with LIMIT.

Each query takes its parameter from a small fixed set (the middle of each
sixth of the parameter's range, walked in a seeded order), so the oracle
computes every expected result at set-up on an in-memory ``sqlite3``
mirror of the same rows.  ``amount`` is a seeded permutation, so the
sorted query has exactly one right answer.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass
from typing import Any

import repro

from .common import fresh_dir, latency_metrics, median, peak_rss_mb, repeated_setup
from .embedded import Op, Tracer, apply_oracle, measure, p50_ms, split_traced
from .layers import empty_layers

SALES_SQL = (
    "CREATE TABLE sales (id INTEGER PRIMARY KEY, store_id INTEGER, product INTEGER, "
    "qty INTEGER, amount INTEGER, day INTEGER)"
)
STORES_SQL = "CREATE TABLE stores (store_id INTEGER PRIMARY KEY, region TEXT, size INTEGER)"
QUERIES = {
    "aggregate": (
        "SELECT product, count(*), sum(qty) FROM sales WHERE day < ? GROUP BY product"
    ),
    "join": (
        "SELECT s.region, count(*), sum(f.amount) FROM sales f "
        "JOIN stores s ON f.store_id = s.store_id WHERE s.size >= ? GROUP BY s.region"
    ),
    "sort": "SELECT id, amount FROM sales WHERE qty >= ? ORDER BY amount DESC LIMIT 10",
}
#: Queries whose result order is not fixed by the SQL (compared as multisets).
UNORDERED = ("aggregate", "join")
PARAMS_PER_QUERY = 6


@dataclass(frozen=True)
class Config:
    fact_rows: int = 10_000
    dim_rows: int = 1_000
    #: Buffer pool: 24 pages of 4 KiB (96 KiB) against a ~1 MB heap.
    pool_pages: int = 24

    @classmethod
    def tiny(cls) -> "Config":
        return cls(fact_rows=900, dim_rows=60, pool_pages=4)


def _strata(low: int, high: int) -> list[int]:
    """PARAMS_PER_QUERY values, the middle of each equal slice of [low, high)."""
    width = (high - low) / PARAMS_PER_QUERY
    return [int(low + width * (j + 0.5)) for j in range(PARAMS_PER_QUERY)]


class Dataset:
    """Generated rows, the per-query parameter sets and their expected results."""

    def __init__(self, seed: int, cfg: Config) -> None:
        self.seed = seed
        rng = random.Random(seed * 104_729 + 17)
        amounts = list(range(1, cfg.fact_rows + 1))
        rng.shuffle(amounts)
        self.stores = [
            (i, f"region-{rng.randrange(12):02d}", rng.randrange(100)) for i in range(cfg.dim_rows)
        ]
        self.sales = [
            (
                i,
                rng.randrange(cfg.dim_rows),
                rng.randrange(200),
                rng.randrange(1, 20),
                amounts[i - 1] * 7,
                rng.randrange(365),
            )
            for i in range(1, cfg.fact_rows + 1)
        ]
        self.params = {
            "aggregate": _strata(30, 335),
            "join": _strata(0, 90),
            "sort": _strata(1, 19),
        }
        # Each query walks its parameters in a seeded order, one per turn, so
        # every seed runs the same spread of selectivities equally often.
        self.order = {
            name: rng.sample(range(PARAMS_PER_QUERY), PARAMS_PER_QUERY) for name in QUERIES
        }
        self.expected = self._expected_results()

    def _expected_results(self) -> dict[tuple[str, int], list[tuple]]:
        mirror = sqlite3.connect(":memory:")
        try:
            mirror.execute(SALES_SQL)
            mirror.execute(STORES_SQL)
            mirror.executemany("INSERT INTO sales VALUES (?, ?, ?, ?, ?, ?)", self.sales)
            mirror.executemany("INSERT INTO stores VALUES (?, ?, ?)", self.stores)
            expected = {}
            for name, values in self.params.items():
                for value in values:
                    rows = [tuple(row) for row in mirror.execute(QUERIES[name], (value,))]
                    expected[(name, value)] = sorted(rows) if name in UNORDERED else rows
            return expected
        finally:
            mirror.close()

    def op(self, i: int) -> Op:
        """The *i*-th query: the three queries in turn, seeded parameters."""
        turn, k = divmod(i, len(QUERIES))
        name = list(QUERIES)[k]
        value = self.params[name][self.order[name][turn % PARAMS_PER_QUERY]]
        return Op(name, QUERIES[name], (value,))

    def expect(self, op: Op) -> list[tuple]:
        return self.expected[(op.kind, op.params[0])]


def _normalize(ops: list[Op], outputs: list[Any]) -> list[Any]:
    """Sort the outputs of unordered queries so they compare as multisets."""
    return [
        sorted(out) if op.kind in UNORDERED and isinstance(out, list) else out
        for op, out in zip(ops, outputs)
    ]


def build_database(path: Any, dataset: Dataset, pool_pages: int, *, durable: bool = True) -> Any:
    if durable:
        conn = repro.connect(path=path, checkpoint_interval=None, buffer_pool_pages=pool_pages)
    else:
        conn = repro.connect()
    conn.execute(SALES_SQL)
    conn.execute(STORES_SQL)
    conn.executemany("INSERT INTO stores (store_id, region, size) VALUES (?, ?, ?)", dataset.stores)
    conn.executemany(
        "INSERT INTO sales (id, store_id, product, qty, amount, day) VALUES (?, ?, ?, ?, ?, ?)",
        dataset.sales,
    )
    if durable:
        conn.checkpoint()
    return conn


def run(seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    dataset = Dataset(seed, cfg)
    conn, setup_times = repeated_setup(
        lambda k: build_database(fresh_dir(f"analytic-{k}"), dataset, cfg.pool_pages),
        lambda stale: stale.close(),
    )
    op_at, check = dataset.op, dataset.expect
    try:
        pool = conn.durability.buffer_pool_stats()
        layers = None
        if not trace:
            loop, ops, outputs = measure(conn, op_at, seconds)
            apply_oracle(loop, ops, _normalize(ops, outputs), check)
        else:
            tracer = Tracer(conn)
            loop, ops, outputs = measure(conn, op_at, seconds, tracer=tracer)
            apply_oracle(loop, ops, _normalize(ops, outputs), check)
            layers = empty_layers()
            layers.update(tracer.finish())
            plain, traced = split_traced(loop)
            memory = build_database(None, dataset, cfg.pool_pages, durable=False)
            try:
                twin, m_ops, m_outputs = measure(memory, op_at, 0.0, min_ops=len(ops))
            finally:
                memory.close()
            apply_oracle(twin, m_ops, _normalize(m_ops, m_outputs), check)
            layers["pager.overhead_ms"] = p50_ms(plain) - p50_ms(twin)
            layers["trace.overhead_share"] = p50_ms(traced) / p50_ms(plain) - 1.0
            loop.samples.extend(s for s in twin.samples if not s.ok)
    finally:
        conn.close()
    metrics, details = latency_metrics(loop)
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    details.update(
        fact_rows=cfg.fact_rows,
        dim_rows=cfg.dim_rows,
        heap_bytes=pool["heap_bytes"],
        buffer_pool_bytes=pool["capacity_pages"] * pool["page_size"],
        loop="closed",
        clients=1,
        flush="synchronous=normal (read-only: no WAL records)",
    )
    result = {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "details": details,
        "setup_samples_s": setup_times,
    }
    if layers is not None:
        result["layers"] = layers
    return result
