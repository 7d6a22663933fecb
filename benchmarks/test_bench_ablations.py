"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to a numbered table in the paper; they quantify the
components the paper's results rest on:

* perceptual-space construction cost (the "about 2 hours on a notebook"
  remark in Section 4.2, scaled down),
* Euclidean embedding vs. the plain SVD model as the source of the space,
* SVM extraction cost per retraining step (the "roughly 0.5 seconds" remark
  in Experiment 4),
* SQL engine throughput for the query shapes the workload uses.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Sequence

import numpy as np

import repro.client
from repro.core.prediction import PerceptualPredictor
from repro.crowd.platform import CrowdPlatform
from repro.crowd.runtime import AcquisitionRuntime
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db import AcquisitionPolicy, Catalog, Connection, Dispatch, SessionContext
from repro.db.types import is_missing
from repro.experiments.context import build_perceptual_space
from repro.learn.metrics import g_mean
from repro.learn.model_selection import sample_balanced_training_set
from repro.perceptual.factorization import FactorModelConfig
from repro.perceptual.svd_model import SVDModel
from repro.server import ReproServer, ServerConfig, TenantConfig
from repro.utils.tables import format_table


def test_ablation_space_construction(benchmark, movie_context, report_writer):
    """Cost of building the perceptual space from the rating corpus."""
    corpus = movie_context.corpus
    config = movie_context.config

    space = benchmark.pedantic(
        build_perceptual_space,
        args=(corpus,),
        kwargs={"n_factors": config.n_factors, "n_epochs": config.n_epochs, "seed": 1},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "ablation_space_construction",
        format_table(
            ["quantity", "value"],
            [
                ("ratings", corpus.ratings.n_ratings),
                ("items", corpus.ratings.n_items),
                ("users", corpus.ratings.n_users),
                ("dimensions", space.n_dimensions),
            ],
            title="Ablation: perceptual-space construction input",
        ),
    )
    assert space.n_items == corpus.ratings.n_items


def test_ablation_embedding_vs_svd(benchmark, movie_context, repetitions, report_writer):
    """Euclidean embedding vs. plain SVD item factors as extraction features."""
    corpus = movie_context.corpus
    labels = movie_context.reference_labels("Comedy")
    config = movie_context.config

    def run() -> dict[str, float]:
        svd = SVDModel(FactorModelConfig(n_factors=config.n_factors, n_epochs=config.n_epochs, seed=1))
        svd.fit(corpus.ratings)
        svd_space = svd.to_space()
        scores = {}
        for name, space in (("euclidean", movie_context.space), ("svd", svd_space)):
            values = []
            for repetition in range(repetitions):
                positives, negatives = sample_balanced_training_set(
                    {i: l for i, l in labels.items() if i in space}, 40, seed=repetition
                )
                gold = {i: True for i in positives}
                gold.update({i: False for i in negatives})
                batch = PerceptualPredictor(space).fit_predict(
                    "is_comedy",
                    [(i, {"item_id": i}, gold[i]) for i in sorted(gold)],
                    [(i, {"item_id": i}) for i in space.item_ids],
                )
                ids = [i for i in labels if i in batch.values]
                truth = np.array([labels[i] for i in ids])
                predictions = np.array([batch.values[i] for i in ids])
                values.append(g_mean(truth, predictions))
            scores[name] = float(np.mean(values))
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    report_writer(
        "ablation_embedding_vs_svd",
        format_table(
            ["space", "g-mean (Comedy, n=40)"],
            [(name, value) for name, value in scores.items()],
            title="Ablation: factor model behind the perceptual space",
        ),
    )
    assert scores["euclidean"] > 0.6


def test_ablation_extractor_training_cost(benchmark, movie_context, report_writer):
    """Per-retraining cost of the SVM model (Experiment 4 inner loop)."""
    labels = movie_context.reference_labels("Comedy")
    usable = {i: l for i, l in labels.items() if i in movie_context.space}
    # Cap at what the corpus offers: the small CI scale has fewer than 100
    # positives, and the benchmark measures cost, not a fixed sample size.
    per_class = min(
        100,
        sum(1 for label in usable.values() if label),
        sum(1 for label in usable.values() if not label),
    )
    positives, negatives = sample_balanced_training_set(usable, per_class, seed=0)
    gold = {i: True for i in positives}
    gold.update({i: False for i in negatives})
    train = [(i, {"item_id": i}, gold[i]) for i in sorted(gold)]
    targets = [(i, {"item_id": i}) for i in movie_context.space.item_ids]
    predictor = PerceptualPredictor(movie_context.space)

    result = benchmark(predictor.fit_predict, "is_comedy", train, targets)
    assert len(result.values) == movie_context.space.n_items
    report_writer(
        "ablation_extractor_cost",
        format_table(
            ["quantity", "value"],
            [
                ("training size", len(gold)),
                ("items classified", len(result.values)),
            ],
            title="Ablation: extractor retraining step",
        ),
    )


def test_ablation_operator_algebra(report_writer, metric_writer):
    """Physical-operator ablations: the equi-join hash path vs. the
    nested-loop baseline, and LIMIT early termination via scan counters."""
    from repro.db.sql.operators import SeqScan
    from repro.db.storage import BATCH_ROWS

    n_left, n_right = 300, 300
    catalog = Catalog()
    setup = Connection(catalog)
    setup.execute("CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER, payload TEXT)")
    setup.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, payload TEXT)")
    setup.executemany(
        "INSERT INTO l (id, k, payload) VALUES (?, ?, ?)",
        [(i, i % 100, f"left-{i}") for i in range(1, n_left + 1)],
    )
    setup.executemany(
        "INSERT INTO r (id, k, payload) VALUES (?, ?, ?)",
        [(i, i % 100, f"right-{i}") for i in range(1, n_right + 1)],
    )
    join_sql = "SELECT count(*) FROM l JOIN r ON l.k = r.k"

    def timed(connection: Connection, repeats: int = 3) -> tuple[float, int]:
        best = float("inf")
        rows = 0
        for _ in range(repeats):
            start = time.perf_counter()
            (rows,) = connection.execute(join_sql).fetchone()
            best = min(best, time.perf_counter() - start)
        return best, rows

    hash_time, hash_rows = timed(Connection(catalog))
    nl_time, nl_rows = timed(Connection(catalog, hash_joins=False))
    assert hash_rows == nl_rows == n_left * (n_right // 100)
    join_speedup = nl_time / hash_time
    metric_writer("hash_join_ms", hash_time * 1000)
    metric_writer("nested_loop_join_ms", nl_time * 1000)
    metric_writer("hash_join_speedup", join_speedup)
    assert join_speedup >= 1.3, (
        f"hash join should beat nested loop by >=1.3x on the synthetic "
        f"equi-join workload, got {join_speedup:.2f}x"
    )

    # -- LIMIT early termination: the scan counter proves laziness -------------
    n_big = 5000
    setup.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
    setup.executemany(
        "INSERT INTO big (id, v) VALUES (?, ?)", [(i, i) for i in range(1, n_big + 1)]
    )
    conn = Connection(catalog)

    limited = conn.execute("SELECT v FROM big LIMIT 10")
    assert len(limited.fetchall()) == 10
    limited_scanned = next(
        op for op in limited.plan.walk() if isinstance(op, SeqScan)
    ).rows_scanned

    full = conn.execute("SELECT v FROM big")
    full.fetchall()
    full_scanned = next(op for op in full.plan.walk() if isinstance(op, SeqScan)).rows_scanned

    # The scan passes BATCH_ROWS rows per pull: LIMIT 10 reads one batch.
    assert limited_scanned == BATCH_ROWS, (
        f"LIMIT 10 must not materialize the table: scanned {limited_scanned} "
        f"of {n_big} rows"
    )
    assert full_scanned == n_big

    report_writer(
        "ablation_operator_algebra",
        format_table(
            ["quantity", "value"],
            [
                ("join workload (rows x rows)", f"{n_left} x {n_right}"),
                ("join result rows", hash_rows),
                ("rows scanned for LIMIT 10", f"{limited_scanned} / {n_big}"),
                ("rows scanned for full scan", f"{full_scanned} / {n_big}"),
            ],
            title="Ablation: physical operator algebra",
        ),
    )


def test_ablation_hybrid_acquisition(movie_context, report_writer, metric_writer):
    """Hybrid crowd+predict acquisition vs. exhaustive crowd-only acquisition.

    The paper's central cost argument: crowd-source a small sample of the
    attribute and let the perceptual-space model predict the rest.  Both
    strategies answer the same query over the movies workload; the hybrid
    plan must save at least 3x the crowd platform calls while its answer
    quality stays within the tolerance below of the crowd-only baseline.
    """
    labels = movie_context.reference_labels("Comedy")
    batch_size = 25

    def run(hybrid: bool):
        catalog = Catalog()
        conn = Connection(catalog)
        conn.execute(
            "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
        )
        conn.executemany(
            "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)",
            [
                (record["item_id"], record["name"], record["year"])
                for record in movie_context.corpus.items
            ],
        )
        conn.add_perceptual_column("movies", "is_comedy")
        source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=7),
            WorkerPool.build(n_experts=40, seed=5),
            truth={"is_comedy": labels},
            judgments_per_item=3,
            items_per_hit=10,
            seed=13,
        )
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=batch_size))
        if hybrid:
            conn.set_predictor(PerceptualPredictor(movie_context.space, seed=0))
            conn.set_policy(conn.policy.with_overrides(sample_fraction=0.25))
        (comedies,) = conn.execute(
            "SELECT count(*) FROM movies WHERE is_comedy = true"
        ).fetchone()
        # A connection without a value source reads the cells as stored.
        keyed = dict(Connection(catalog).execute("SELECT item_id, is_comedy FROM movies"))
        scored = [
            (bool(keyed[item]), bool(labels[item]))
            for item in keyed
            if item in labels and not is_missing(keyed[item])
        ]
        accuracy = sum(p == t for p, t in scored) / len(scored)
        return source.dispatches, accuracy, comedies, len(scored)

    crowd_calls, crowd_accuracy, crowd_count, crowd_filled = run(hybrid=False)
    hybrid_calls, hybrid_accuracy, hybrid_count, hybrid_filled = run(hybrid=True)

    metric_writer("hybrid_platform_calls_saved", crowd_calls / hybrid_calls)
    assert crowd_calls >= 3 * hybrid_calls, (
        f"hybrid acquisition should save >=3x platform calls: "
        f"crowd-only {crowd_calls} vs hybrid {hybrid_calls}"
    )
    # Paper-style tolerance: predicting from a 25% sample may cost some
    # accuracy versus asking a human for every tuple, but the prediction
    # must stay clearly better than chance and near the crowd baseline.
    assert hybrid_accuracy >= crowd_accuracy - 0.3
    assert hybrid_accuracy >= 0.65
    # The hybrid plan answers every cell the space covers.
    assert hybrid_filled >= crowd_filled

    report_writer(
        "ablation_hybrid_acquisition",
        format_table(
            ["quantity", "crowd-only", "hybrid"],
            [
                ("platform calls", crowd_calls, hybrid_calls),
                ("cells answered", crowd_filled, hybrid_filled),
                ("accuracy vs reference", f"{crowd_accuracy:.3f}", f"{hybrid_accuracy:.3f}"),
                ("comedies found", crowd_count, hybrid_count),
                (
                    "calls saved",
                    "-",
                    f"{crowd_calls - hybrid_calls} ({crowd_calls / hybrid_calls:.1f}x)",
                ),
            ],
            title="Ablation: hybrid crowd+predict acquisition (movies workload)",
        ),
    )


def test_ablation_concurrent_acquisition(report_writer, metric_writer):
    """Concurrent acquisition runtime vs. serialized crowd dispatch.

    Crowd latency dominates query time, so the acquisition runtime's
    bounded worker pool must overlap the platform round-trips of different
    attributes and batches: on a four-attribute workload with a
    latency-simulating crowd source, ``max_concurrent_batches=4`` has to
    beat the serialized baseline by >=2x wall-clock while producing
    *identical* answers (child seeds derive from request identity, not
    dispatch order).  Re-running the query must be served entirely from
    the cross-query AnswerCache: zero additional platform calls.
    """
    n_rows = 48
    attributes = ("funny", "scary", "romantic", "violent")
    batch_size = 12  # 4 flushes x 4 attributes = 16 dispatches per query
    latency = 0.05  # simulated platform round-trip (seconds)

    def build(concurrency: int) -> tuple[Connection, SimulatedCrowdValueSource]:
        catalog = Catalog()
        catalog.set_acquisition_runtime(AcquisitionRuntime(max_concurrent_batches=concurrency))
        conn = Connection(
            catalog,
            session=SessionContext(
                # keep cells MISSING in storage so the repeat query
                # exercises the AnswerCache instead of the write-back path
                policy=AcquisitionPolicy(crowd_write_back=False)
            ),
        )
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO items (item_id, name) VALUES (?, ?)",
            [(i, f"item-{i}") for i in range(1, n_rows + 1)],
        )
        for attribute in attributes:
            conn.add_perceptual_column("items", attribute)
        truth = {
            attribute: {i: (i + offset) % 3 == 0 for i in range(1, n_rows + 1)}
            for offset, attribute in enumerate(attributes)
        }
        source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=7),
            WorkerPool.build(n_experts=20, seed=5),
            truth=truth,
            judgments_per_item=3,
            items_per_hit=8,
            # Forced answers (paper Experiment 3 setting): an odd judgment
            # count then always has a majority, so the first query answers
            # every cell and the repeat query is a pure cache read.
            allow_dont_know=False,
            seed=13,
            latency_seconds=latency,
        )
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=batch_size))
        return conn, source

    sql = "SELECT item_id, funny, scary, romantic, violent FROM items"

    def timed(conn: Connection) -> tuple[float, list]:
        start = time.perf_counter()
        rows = conn.execute(sql).fetchall()
        return time.perf_counter() - start, rows

    serial_conn, serial_source = build(1)
    serial_time, serial_rows = timed(serial_conn)
    concurrent_conn, concurrent_source = build(4)
    concurrent_time, concurrent_rows = timed(concurrent_conn)

    # Determinism: interleaved dispatch must not change a single answer.
    assert concurrent_rows == serial_rows
    assert concurrent_source.dispatches == serial_source.dispatches
    speedup = serial_time / concurrent_time
    metric_writer("concurrent_acquisition_serial_ms", serial_time * 1000)
    metric_writer("concurrent_acquisition_concurrent_ms", concurrent_time * 1000)
    metric_writer("concurrent_acquisition_speedup", speedup)
    assert speedup >= 2.0, (
        f"concurrent acquisition (max_concurrent_batches=4) should beat the "
        f"serialized baseline by >=2x wall-clock, got {speedup:.2f}x "
        f"({serial_time * 1000:.0f} ms vs {concurrent_time * 1000:.0f} ms)"
    )

    # Cross-query answer cache: the repeat query costs zero platform calls.
    dispatches_before = concurrent_source.dispatches
    repeat_time, repeat_rows = timed(concurrent_conn)
    assert repeat_rows == concurrent_rows
    assert concurrent_source.dispatches == dispatches_before
    metric_writer("concurrent_acquisition_repeat_ms", repeat_time * 1000)
    cache_stats = concurrent_conn.acquisition_runtime().cache.stats()
    assert cache_stats.hits >= n_rows * len(attributes)

    report_writer(
        "ablation_concurrent_acquisition",
        format_table(
            ["quantity", "value"],
            [
                ("workload", f"{n_rows} rows x {len(attributes)} attributes"),
                ("platform dispatches per query", serial_source.dispatches),
                ("simulated latency per dispatch", f"{latency * 1000:.0f} ms"),
                ("repeat-query platform calls", 0),
                ("answer-cache hits", cache_stats.hits),
            ],
            title="Ablation: concurrent acquisition runtime + answer cache",
        ),
    )


def test_ablation_durability(tmp_path, report_writer, metric_writer):
    """Durable storage: group-commit throughput and restart recovery.

    Two claims of the durability layer are quantified:

    * **group commit pays** — insert throughput with batched fsyncs
      (``synchronous=normal``) must beat fsync-per-statement
      (``synchronous=full``) by >=3x on the hot path;
    * **paid crowd answers survive restarts** — a database expanded and
      crowd-filled on disk, reopened in a fresh catalog with a fresh value
      source, answers the same query with *zero* platform calls (the
      values, their provenance and the warm answer cache all come back
      from snapshot + WAL replay).
    """
    import repro
    from conftest import bench_scale

    n_rows = 150 if bench_scale() == "small" else 400

    def insert_throughput(synchronous: str, repeats: int = 3) -> tuple[float, int]:
        """Best-of-N insert throughput (rows/s) and the fsyncs of one run."""
        best = 0.0
        fsyncs = 0
        for attempt in range(repeats):
            conn = repro.connect(
                path=tmp_path / f"db-{synchronous}-{attempt}",
                synchronous=synchronous,
                checkpoint_interval=None,
            )
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, payload TEXT)")
            rows = [(i, f"payload-{i}" * 4) for i in range(n_rows)]
            # executemany executes one INSERT statement per row (each is
            # auto-committed, so `full` pays one fsync per row) without
            # re-measuring parse/plan overhead on every call.
            start = time.perf_counter()
            conn.executemany("INSERT INTO t (id, payload) VALUES (?, ?)", rows)
            elapsed = time.perf_counter() - start
            fsyncs = conn.durability.stats()["fsyncs"]
            conn.close()
            best = max(best, n_rows / elapsed)
        return best, fsyncs

    full_tp, full_fsyncs = insert_throughput("full")
    group_tp, group_fsyncs = insert_throughput("normal")
    speedup = group_tp / full_tp
    metric_writer("durability_full_rows_per_s", full_tp)
    metric_writer("durability_group_commit_rows_per_s", group_tp)
    metric_writer("durability_group_commit_speedup", speedup)
    assert full_fsyncs >= n_rows  # one fsync per acknowledged statement
    assert group_fsyncs < full_fsyncs / 3  # batching is what we measured
    assert speedup >= 3.0, (
        f"group commit should beat fsync-per-statement by >=3x on insert "
        f"throughput, got {speedup:.2f}x ({group_tp:.0f} vs {full_tp:.0f} rows/s)"
    )

    # -- restart recovery: repeat crowd query with zero platform calls --------
    db_path = tmp_path / "crowd-db"
    n_items = 30
    truth = {"is_fun": {i: i % 2 == 0 for i in range(1, n_items + 1)}}

    def build_source() -> SimulatedCrowdValueSource:
        return SimulatedCrowdValueSource(
            CrowdPlatform(seed=7),
            WorkerPool.build(n_experts=20, seed=5),
            truth=truth,
            judgments_per_item=3,
            items_per_hit=10,
            allow_dont_know=False,
            seed=13,
        )

    sql = "SELECT item_id, is_fun FROM items ORDER BY item_id"
    conn = repro.connect(path=db_path)
    conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO items (item_id, name) VALUES (?, ?)",
        [(i, f"item-{i}") for i in range(1, n_items + 1)],
    )
    conn.add_perceptual_column("items", "is_fun")
    first_source = build_source()
    conn.set_value_source(first_source)
    conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))
    first_rows = conn.execute(sql).fetchall()
    paid_dispatches = first_source.dispatches
    assert paid_dispatches > 0
    conn.close()

    reopened = repro.connect(path=db_path)
    fresh_source = build_source()
    reopened.set_value_source(fresh_source)
    reopened.set_policy(reopened.policy.with_overrides(crowd_batch_size=10))
    repeat_rows = reopened.execute(sql).fetchall()
    assert repeat_rows == first_rows
    assert fresh_source.dispatches == 0, (
        f"restart recovery must serve the repeat crowd query from persisted "
        f"answers: {fresh_source.dispatches} platform calls after reopen"
    )
    metric_writer("restart_repeat_platform_calls", fresh_source.dispatches)
    recovery = reopened.durability.stats()
    reopened.close()

    report_writer(
        "ablation_durability",
        format_table(
            ["quantity", "value"],
            [
                ("inserts per mode", n_rows),
                ("fsyncs (full / normal)", f"{full_fsyncs} / {group_fsyncs}"),
                ("crowd dispatches paid once", paid_dispatches),
                ("platform calls after restart", fresh_source.dispatches),
                ("WAL records replayed on reopen", recovery["records_replayed"]),
                ("snapshot loaded on reopen", recovery["snapshot_loaded"]),
            ],
            title="Ablation: durable storage (WAL group commit + recovery)",
        ),
    )


def test_ablation_sql_engine_throughput(benchmark, movie_context, report_writer, metric_writer):
    """Query latency of the crowd database on the workload's query shapes,
    plus the effect of the connection's prepared-statement cache on a
    repeated-query (OLTP-style point lookup) workload."""
    catalog = Catalog()
    setup = Connection(catalog)
    setup.execute(
        "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER, is_comedy BOOLEAN)"
    )
    labels = movie_context.reference_labels("Comedy")
    setup.executemany(
        "INSERT INTO movies (item_id, name, year, is_comedy) VALUES (?, ?, ?, ?)",
        [
            (
                record["item_id"],
                record["name"],
                record["year"],
                labels.get(record["item_id"], False),
            )
            for record in movie_context.corpus.items
        ],
    )
    conn = Connection(catalog)

    def workload() -> int:
        total = 0
        total += conn.execute("SELECT count(*) FROM movies WHERE is_comedy = true").fetchone()[0]
        total += conn.execute(
            "SELECT name FROM movies WHERE year > ? ORDER BY year DESC LIMIT 20", (1990,)
        ).rowcount
        total += conn.execute(
            "SELECT year, count(*) AS n FROM movies GROUP BY year HAVING count(*) > 2 ORDER BY n DESC"
        ).rowcount
        total += conn.execute("SELECT name FROM movies WHERE item_id = ?", (17,)).rowcount
        return total

    total = benchmark(workload)
    assert total > 0

    # -- prepared-statement cache: repeated point queries, cache on vs off ------
    point_queries = [
        ("SELECT name, year FROM movies WHERE item_id = ?", (17,)),
        ("SELECT name FROM movies WHERE item_id = ?", (42,)),
        ("SELECT year FROM movies WHERE item_id = ?", (99,)),
        ("SELECT count(*) FROM movies WHERE item_id = ?", (5,)),
    ]

    def repeated_queries(connection: Connection, repeats: int = 200) -> float:
        for _ in range(10):  # warmup
            for sql, params in point_queries:
                connection.execute(sql, params)
        start = time.perf_counter()
        for _ in range(repeats):
            for sql, params in point_queries:
                connection.execute(sql, params)
        elapsed = time.perf_counter() - start
        return repeats * len(point_queries) / elapsed

    cached_qps = repeated_queries(Connection(catalog))
    uncached_qps = repeated_queries(Connection(catalog, statement_cache_size=0))
    speedup = cached_qps / uncached_qps
    metric_writer("statement_cache_on_qps", cached_qps)
    metric_writer("statement_cache_off_qps", uncached_qps)
    metric_writer("statement_cache_speedup", speedup)
    assert speedup >= 1.3, (
        f"statement cache should give >=1.3x throughput on repeated queries, "
        f"got {speedup:.2f}x ({cached_qps:.0f} vs {uncached_qps:.0f} q/s)"
    )

    report_writer(
        "ablation_sql_engine",
        format_table(
            ["quantity", "value"],
            [
                ("rows in movies", len(movie_context.corpus.items)),
                ("workload result size", total),
                ("point queries per connection", 200 * len(point_queries)),
            ],
            title="Ablation: SQL engine workload",
        ),
    )


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation; conservative for p99)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class _MeteredSource:
    """ValueSource answering a constant and counting platform dispatches."""

    def __init__(self) -> None:
        self.dispatches = 0
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
            self.dispatches += 1
        return Dispatch({rowid: 0.8 for rowid, _row in items}, 0.05 * len(items))


def test_ablation_served_load(report_writer, metric_writer, repetitions):
    """The served database under concurrent wire load.

    Two claims of the server subsystem (``repro serve``) are quantified:

    * **it holds concurrency** — 64 wire clients, each authenticated as its
      own tenant, hammer point lookups through the full stack (framing ->
      tenancy -> rate limit -> admission -> worker pool -> engine) with
      zero errors and zero admission rejects; per-request p50/p99 latency
      and aggregate throughput land in ``BENCH_results.json`` so CI's
      bench-regression gate catches a server slowdown;
    * **crowd spend amortizes across tenants** — a second tenant's repeat
      of a crowd-touching query costs zero additional platform calls (the
      economic point of serving one shared catalog: answers are paid for
      once, served from the shared AnswerCache thereafter).
    """
    n_clients = 64
    n_rows = 128
    requests_per_client = 4 * repetitions

    config = ServerConfig(port=0, max_inflight=2 * n_clients, executor_threads=8)
    errors: list[BaseException] = []
    buckets: list[list[float]] = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients + 1)

    with ReproServer(config) as server:
        host, port = server.address
        with repro.client.connect(host, port, tenant="seed") as seed:
            seed.execute(
                "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
            )
            seed.cursor().executemany(
                "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)",
                [(i, f"movie-{i}", 1960 + i % 60) for i in range(1, n_rows + 1)],
            )

        def client_run(idx: int) -> None:
            try:
                conn = repro.client.connect(host, port, tenant=f"load-{idx}")
                barrier.wait(timeout=60)
                for step in range(requests_per_client):
                    item = (idx * 31 + step * 7) % n_rows + 1
                    start = time.perf_counter()
                    rows = conn.execute(
                        "SELECT name, year FROM movies WHERE item_id = ?", (item,)
                    ).fetchall()
                    buckets[idx].append(time.perf_counter() - start)
                    assert rows[0][0] == f"movie-{item}"
                conn.close()
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)
                barrier.abort()  # do not leave the other parties hanging

        threads = [
            threading.Thread(target=client_run, args=(i,), daemon=True) for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)  # all clients connected; release the load
        load_start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - load_start
        stats = server.stats()

    assert not errors, f"served load produced client errors: {errors[:3]}"
    latencies = [sample for bucket in buckets for sample in bucket]
    total_requests = n_clients * requests_per_client
    assert len(latencies) == total_requests
    assert stats["rejected"] == 0  # max_inflight=128 must admit 64 clients

    p50_ms = _percentile(latencies, 0.50) * 1000.0
    p99_ms = _percentile(latencies, 0.99) * 1000.0
    throughput = total_requests / elapsed
    metric_writer("served_load_clients", n_clients)
    metric_writer("served_load_p50_ms", p50_ms)
    metric_writer("served_load_p99_ms", p99_ms)
    metric_writer("served_load_throughput_rps", throughput)

    # -- cross-tenant crowd reuse over the wire --------------------------------
    source = _MeteredSource()

    def factory(tenant: TenantConfig) -> SessionContext:
        # Keep answers out of storage so the zero-call repeat below is
        # carried by the shared AnswerCache, not by write-back.
        return SessionContext(
            policy=AcquisitionPolicy(max_cost=tenant.max_cost, crowd_write_back=False),
            value_source=source,
        )

    tenants = [TenantConfig(name="alice", max_cost=5.0), TenantConfig(name="bob", max_cost=5.0)]
    with ReproServer(ServerConfig(port=0), tenants=tenants, session_factory=factory) as srv:
        alice = repro.client.connect(*srv.address, tenant="alice")
        alice.execute(
            "CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT, appeal REAL PERCEPTUAL)"
        )
        for i in range(1, 17):
            alice.execute("INSERT INTO items (item_id, name) VALUES (?, ?)", (i, f"i{i}"))
        assert alice.execute("SELECT COUNT(appeal) FROM items").fetchall() == [(16,)]
        paid = source.dispatches
        assert paid >= 1
        bob = repro.client.connect(*srv.address, tenant="bob")
        assert bob.execute("SELECT COUNT(appeal) FROM items").fetchall() == [(16,)]
        extra = source.dispatches - paid
        alice.close()
        bob.close()

    metric_writer("served_cross_tenant_repeat_platform_calls", extra)
    assert extra == 0, f"tenant repeat should be served from the answer cache, paid {extra} calls"

    report_writer(
        "ablation_served_load",
        format_table(
            ["quantity", "value"],
            [
                ("concurrent wire clients (tenants)", n_clients),
                ("requests per client", requests_per_client),
                ("total requests", total_requests),
                ("admission rejects", stats["rejected"]),
                ("cross-tenant repeat platform calls", extra),
            ],
            title="Ablation: served database under concurrent load",
        ),
    )


def test_ablation_enumeration(report_writer, metric_writer):
    """Open-world enumeration: the Chao92 stopping rule vs. exhaustion.

    Two claims of ``INSERT ... FROM CROWD`` are quantified:

    * **stopping early pays** — with a ``COMPLETENESS >= 0.9`` target the
      enumeration reaches >=90% *true* coverage of the simulated universe
      in a handful of platform calls instead of grinding to exhaustion
      (``enum_platform_calls_at_90pct``, gated with a max bound);
    * **the estimate is honest** — at stop time the Chao92
      ``est_coverage`` may not drift far from the true coverage
      (``enum_est_coverage_error``, gated with a max bound).
    """
    import repro

    universe = [f"species-{i:02d}" for i in range(20)]

    def build_source() -> SimulatedCrowdValueSource:
        return SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=5, seed=3),
            truth={},
            seed=7,
            universe={"birds": universe},
            answers_per_batch=25,
            payment_per_hit=0.05,
        )

    def enumerate_birds(sql: str) -> tuple[dict, int]:
        source = build_source()
        conn = repro.connect()
        conn.set_value_source(source)
        conn.execute("CREATE TABLE birds (bird_id INTEGER PRIMARY KEY, name TEXT)")
        stats = conn.execute(sql).result.enumeration
        conn.close()
        return stats, source.dispatches

    stopping, stopping_calls = enumerate_birds(
        "INSERT INTO birds (name) FROM CROWD WHERE 'birds' WITH COMPLETENESS >= 0.9"
    )
    exhaustive, exhaustive_calls = enumerate_birds(
        "INSERT INTO birds (name) FROM CROWD WHERE 'birds'"
    )

    assert stopping["stopped_on"] == "completeness"
    true_coverage = stopping["unique_seen"] / len(universe)
    assert true_coverage >= 0.9, (
        f"the completeness stop must actually deliver >=90% of the true "
        f"universe, got {true_coverage:.0%}"
    )
    metric_writer("enum_platform_calls_at_90pct", stopping_calls)
    assert stopping_calls <= 8, (
        f"reaching 90% coverage should take a handful of platform calls, "
        f"got {stopping_calls}"
    )
    assert stopping_calls < exhaustive_calls, (
        "the stopping rule must beat enumerating to exhaustion "
        f"({stopping_calls} vs {exhaustive_calls} platform calls)"
    )

    coverage_error = abs(stopping["est_coverage"] - true_coverage)
    metric_writer("enum_est_coverage_error", coverage_error)
    assert coverage_error <= 0.25, (
        f"Chao92 estimate drifted {coverage_error:.2f} from true coverage "
        f"at stop time"
    )

    report_writer(
        "ablation_enumeration",
        format_table(
            ["quantity", "value"],
            [
                ("true universe size", len(universe)),
                ("platform calls to >=90% coverage", stopping_calls),
                ("platform calls to exhaustion", exhaustive_calls),
                ("unique entities at stop", stopping["unique_seen"]),
                ("true coverage at stop", f"{true_coverage:.0%}"),
                ("est_coverage at stop", f"{stopping['est_coverage']:.3f}"),
                ("est_total at stop", f"{stopping['est_total']:.1f}"),
                ("coverage estimate error", f"{coverage_error:.3f}"),
                ("stopped_on", stopping["stopped_on"]),
            ],
            title="Ablation: open-world enumeration (Chao92 stopping rule)",
        ),
    )


def test_ablation_storage(tmp_path, report_writer, metric_writer):
    """Paged row store + ordered indexes: the two claims of docs/storage.md.

    * **range queries should use the index** — on a 100k-row table, a
      ``BETWEEN`` query answered by ``IndexRangeScan`` must beat the same
      query answered by ``SeqScan`` by >=5x;
    * **memory stays bounded** — a million-row durable table loads and
      serves a range query in a subprocess whose peak RSS stays far below
      what materializing the rows in memory would cost: resident memory
      is the buffer pool, the rowid directory and the (in-memory) ordered
      indexes — never the row payloads themselves.
    """
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    # -- IndexRangeScan vs SeqScan on 100k rows -------------------------------
    n_rows = 100_000
    rows = [(i, (i * 37) % n_rows) for i in range(1, n_rows + 1)]

    def build(with_index: bool) -> Connection:
        conn = Connection()
        conn.run_statement("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany("INSERT INTO t (id, v) VALUES (?, ?)", rows)
        if with_index:
            conn.run_statement("CREATE INDEX ON t (v)")
        return conn

    sql = "SELECT id FROM t WHERE v BETWEEN 1000 AND 1999"
    indexed, plain = build(True), build(False)
    plan_indexed = "\n".join(r[0] for r in indexed.run_statement(f"EXPLAIN {sql}").rows)
    plan_plain = "\n".join(r[0] for r in plain.run_statement(f"EXPLAIN {sql}").rows)
    assert "IndexRangeScan" in plan_indexed  # the cost model chose the index
    assert "SeqScan" in plan_plain

    def best_of(conn: Connection, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = conn.run_statement(sql)
            assert len(result.rows) == 1000
            best = min(best, time.perf_counter() - start)
        return best

    seq_time, index_time = best_of(plain), best_of(indexed)
    speedup = seq_time / index_time
    metric_writer("seq_scan_range_ms", seq_time * 1e3)
    metric_writer("index_range_scan_ms", index_time * 1e3)
    metric_writer("index_range_scan_speedup", speedup)
    assert speedup >= 5.0, (
        f"IndexRangeScan should beat SeqScan by >=5x on a narrow range over "
        f"{n_rows} rows, got {speedup:.1f}x "
        f"({index_time * 1e3:.2f}ms vs {seq_time * 1e3:.2f}ms)"
    )

    # -- million-row load stays within a flat memory bound --------------------
    loader = textwrap.dedent(
        """
        import resource
        import sys

        import repro

        n = 1_000_000
        conn = repro.connect(
            path=sys.argv[1], synchronous="off", checkpoint_interval=None
        )
        conn.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
        chunk = 25_000
        for base in range(0, n, chunk):
            conn.executemany(
                "INSERT INTO big (id, v) VALUES (?, ?)",
                [(i + 1, ((i + 1) * 37) % 100_000) for i in range(base, base + chunk)],
            )
        cursor = conn.execute("SELECT id, v FROM big WHERE v BETWEEN 10 AND 209")
        served = 0
        while True:
            batch = cursor.fetchmany(1000)  # stream: never materialize the table
            if not batch:
                break
            served += len(batch)
        conn.close()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(served, peak_kb, flush=True)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", loader, str(tmp_path / "big-db")],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    served, peak_kb = (int(part) for part in completed.stdout.split())
    peak_mb = peak_kb / 1024
    metric_writer("paged_peak_rss_mb", peak_mb)
    assert served == 2000  # the streamed range query returned the right rows
    # Holding a million decoded row dicts (plus the same pk index) costs
    # well over 700 MB; the paged store must stay far under that — resident
    # memory is interpreter baseline + pool + rowid directory + pk index.
    assert peak_mb <= 500.0, (
        f"million-row load should keep peak RSS flat, got {peak_mb:.0f} MB"
    )

    report_writer(
        "ablation_storage",
        format_table(
            ["quantity", "value"],
            [
                ("rows (range-scan comparison)", n_rows),
                ("rows in the range", 1000),
                ("rows (paged-load subprocess)", 1_000_000),
                ("rows served by streamed range query", served),
            ],
            title="Ablation: paged storage (cost-based range scans + flat RSS)",
        ),
    )


def test_ablation_worker_quality(report_writer, metric_writer):
    """Worker-quality model: platform assignments saved at equal accuracy.

    Two arms fill the same 120 perceptual cells through the engine with the
    same mixed-reliability worker pool (a quarter of the workers flip the
    true label 42% of the time, the rest 8%):

    * **flat** — quality tracking off, a fixed 7 judgments per item
      (the budget the adaptive arm is allowed to escalate to);
    * **adaptive** — gold-seeded accuracy tracking plus accuracy-weighted
      voting; each item starts at ``min_assignments`` votes and only
      escalates while the posterior confidence sits below the target.

    The adaptive arm must answer with >=1.5x fewer billable platform
    assignments while matching (or beating) the flat arm's accuracy.
    """
    n_items = 120
    truth = {i: i % 2 == 0 for i in range(1, n_items + 1)}
    gold = {"is_comedy": {i: i % 3 == 0 for i in range(1000, 1012)}}
    sql = "SELECT item_id, is_comedy FROM items ORDER BY item_id"

    def run_arm(adaptive: bool) -> tuple[SimulatedCrowdValueSource, int, Connection]:
        pool = WorkerPool.build(n_honest=24, n_spammers=6, seed=7)
        rates = {w.worker_id: (0.08 if w.worker_id % 4 else 0.42) for w in pool}
        source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            pool,
            truth={"is_comedy": truth},
            seed=42,
            items_per_hit=1,
            judgments_per_item=7,
            worker_error_rates=rates,
            gold_answers=gold if adaptive else None,
            quality=adaptive,
        )
        conn = Connection()
        conn.run_statement(
            "CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)"
        )
        conn.executemany(
            "INSERT INTO items (item_id, name) VALUES (?, ?)",
            [(i, f"item-{i}") for i in range(1, n_items + 1)],
        )
        conn.add_perceptual_column("items", "is_comedy")
        conn.set_value_source(source)
        conn.set_policy(
            conn.policy.with_overrides(
                crowd_batch_size=20,
                gold_fraction=0.15,
                target_cell_confidence=0.85,
                min_assignments=3,
                max_assignments=7,
            )
        )
        correct = sum(
            1
            for item_id, label in conn.execute(sql).fetchall()
            if not is_missing(label) and bool(label) == truth[item_id]
        )
        return source, correct, conn

    flat_source, flat_correct, flat_conn = run_arm(adaptive=False)
    adaptive_source, adaptive_correct, adaptive_conn = run_arm(adaptive=True)

    assert flat_source.total_assignments > 0
    assert adaptive_source.total_assignments > 0
    ratio = flat_source.total_assignments / adaptive_source.total_assignments
    metric_writer("quality_platform_calls_ratio", ratio)
    assert ratio >= 1.5, (
        f"adaptive assignment sizing should cut billable platform "
        f"assignments by >=1.5x at equal accuracy, got {ratio:.2f}x "
        f"({flat_source.total_assignments} flat vs "
        f"{adaptive_source.total_assignments} adaptive)"
    )
    assert adaptive_correct >= flat_correct, (
        f"the savings must not cost accuracy: adaptive labelled "
        f"{adaptive_correct}/{n_items} correctly vs flat {flat_correct}/{n_items}"
    )

    runtime_stats = adaptive_conn.catalog.acquisition_runtime().stats()
    tracker_workers = runtime_stats.get("known_workers", 0)
    mean_accuracy = runtime_stats.get("mean_worker_accuracy", 0.0)

    report_writer(
        "ablation_worker_quality",
        format_table(
            ["quantity", "flat", "adaptive"],
            [
                ("items labelled", n_items, n_items),
                ("correct labels", flat_correct, adaptive_correct),
                (
                    "billable assignments",
                    flat_source.total_assignments,
                    adaptive_source.total_assignments,
                ),
                ("platform-calls ratio", "1.0x", f"{ratio:.2f}x"),
                ("workers profiled", "-", tracker_workers),
                ("mean worker accuracy", "-", f"{mean_accuracy:.3f}"),
                (
                    "assignments saved vs max budget",
                    "-",
                    runtime_stats.get("assignments_saved", 0),
                ),
            ],
            title="Ablation: worker quality (adaptive sizing + weighted votes)",
        ),
    )
