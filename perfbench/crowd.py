"""``crowd_expand``: query-driven schema expansion, the paper's workload.

Set-up loads the synthetic movie corpus at the ``MovieExperimentConfig``
scale below, derives the expert-majority reference labels and builds the
perceptual space.  One catalog, connection and acquisition runtime serve
every operation.  An operation copies the movies table in (untimed), runs
a SELECT naming a genre attribute the table does not have yet (timed:
the expansion handler adds the column, then CrowdFill asks the simulated
crowd for a planner-chosen sample and PredictFill predicts the rest) and
drops the copy again (untimed).  The value source has zero latency, so
crowd work is CPU time, and a mixed-reliability worker pool, so every
dispatch takes the quality-tracked path.

Crowd cost and fill quality are scored over the first ``scored_queries``
operations, a fixed prefix of a seeded sequence; they repeat exactly for
a seed however many operations the time window admits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from repro.core.prediction import PerceptualPredictor
from repro.crowd.platform import CrowdPlatform
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.datasets.experts import build_expert_databases, majority_reference
from repro.datasets.movies import build_movie_corpus
from repro.db import Catalog, ColumnType, Connection
from repro.experiments.context import MovieExperimentConfig, build_perceptual_space

from .common import (
    LoopResult,
    closed_loop,
    latency_metrics,
    median,
    peak_rss_mb,
    repeated_setup,
)
from .layers import FrontEndTimer, OperatorTimes, TimedPredictor, TimedSource, empty_layers

CREATE_SQL = "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
INSERT_SQL = "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)"
QUERY_SQL = "SELECT item_id, {attribute} FROM movies"
GOLD_BASE = 10_000_000


@dataclass(frozen=True)
class Config:
    movies: MovieExperimentConfig = field(default_factory=MovieExperimentConfig.small)
    scored_queries: int = 24

    @classmethod
    def tiny(cls) -> "Config":
        return cls(
            movies=MovieExperimentConfig(
                n_movies=120, n_users=300, ratings_per_user=25, n_factors=8, n_epochs=6
            ),
            scored_queries=3,
        )


class Setup:
    """Corpus, reference labels, space and the shared connection."""

    def __init__(self, seed: int, cfg: Config, *, traced: bool) -> None:
        # The corpus and its space are the fixed data set of this workload
        # (the config's own seed); the workload seed drives the genre order,
        # the workers, the platform and the predictor.
        movies = cfg.movies
        corpus = build_movie_corpus(
            n_movies=movies.n_movies,
            n_users=movies.n_users,
            ratings_per_user=movies.ratings_per_user,
            seed=movies.seed,
        )
        self.reference = majority_reference(
            build_expert_databases(corpus.ground_truth, seed=movies.seed)
        )
        start = perf_counter()
        space = build_perceptual_space(
            corpus, n_factors=movies.n_factors, n_epochs=movies.n_epochs, seed=movies.seed
        )
        self.space_build_s = perf_counter() - start
        self.rows = [(r["item_id"], r["name"], r["year"]) for r in corpus.items]
        self.genres = sorted(self.reference)
        random.Random(seed * 7 + 3).shuffle(self.genres)

        pool = WorkerPool.build(n_honest=24, n_spammers=6, seed=seed)
        # Mixed reliability: a quarter of the workers flip the label 42% of
        # the time, the rest 8% (this also turns quality tracking on).
        rates = {w.worker_id: (0.08 if w.worker_id % 4 else 0.42) for w in pool}
        gold_rng = random.Random(seed * 13 + 5)
        self.source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=seed),
            pool,
            truth={attribute_of(g): labels for g, labels in self.reference.items()},
            seed=seed,
            items_per_hit=5,
            judgments_per_item=7,
            worker_error_rates=rates,
            gold_answers={
                attribute_of(g): {GOLD_BASE + i: gold_rng.random() < 0.5 for i in range(12)}
                for g in self.genres
            },
            latency_seconds=0.0,
        )
        self.predictor = PerceptualPredictor(space, seed=seed)
        self.catalog = Catalog()
        self.conn = Connection(self.catalog)
        if traced:
            self.source = TimedSource(self.source)
            self.predictor = TimedPredictor(self.predictor)
        self.conn.set_value_source(self.source)
        self.conn.set_predictor(self.predictor)
        self.conn.set_expansion_handler(self._expand)
        self.runtime = self.conn.acquisition_runtime()

    def _expand(self, table: str, column: str) -> bool:
        self.conn.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    def close(self) -> None:
        self.conn.close()
        self.runtime.shutdown()


def attribute_of(genre: str) -> str:
    return "is_" + genre.lower()


@dataclass
class Scored:
    """Crowd cost and fill quality of one expansion query."""

    platform_calls: int
    usd: float
    accuracy: float


def expansion_step(setup: Setup, scores: list[Scored], trace: dict | None = None):
    """The step function running the *i*-th expansion query of *setup*."""
    source = setup.source

    def step(i: int) -> tuple[str, float, bool]:
        genre = setup.genres[i % len(setup.genres)]
        attribute = attribute_of(genre)
        sql = QUERY_SQL.format(attribute=attribute)
        conn = setup.conn
        conn.execute(CREATE_SQL)
        conn.executemany(INSERT_SQL, setup.rows)
        calls, usd = source.dispatches, source.total_cost
        misses = conn.cache_stats().misses
        ok = True
        start = perf_counter()
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchall()
            latency = perf_counter() - start
        except Exception:  # a failed op is counted, not fatal
            latency, rows, ok, cursor = perf_counter() - start, [], False, None
        labels = setup.reference[genre]
        values = dict(rows)
        ok = ok and sorted(values) == sorted(r[0] for r in setup.rows)
        ok = ok and len(values) == len(rows) and all(isinstance(v, bool) for v in values.values())
        correct = sum(1 for item, label in labels.items() if values.get(item) == label)
        scores.append(
            Scored(source.dispatches - calls, source.total_cost - usd, correct / len(labels))
        )
        if trace is not None and cursor is not None:
            trace["attributed"] += trace["operators"].add(cursor.plan)
            cost = trace["front_end"].replay(conn, sql)
            if conn.cache_stats().misses > misses:
                trace["attributed"] += cost["tokenize"] + cost["parse"]
            # The copy-in changed the catalog version, so every op re-plans.
            trace["attributed"] += sum(cost[p] for p in ("plan", "bind", "lower", "open"))
            trace["latency"] += latency
        conn.execute("DROP TABLE movies")
        return "read", latency, ok

    return step


def run_phase(steps: list, seconds: float, min_ops: int) -> list[LoopResult]:
    """Closed loop taking turns over *steps*; one loop of samples per step.

    Throughput and windows count the expansion queries' own time, not the
    untimed copy-in and drop around each one: each step's queries are laid
    end to end.  Samples of every step after the first are marked traced.
    """
    n = len(steps)
    loop = closed_loop(lambda i: steps[i % n](i // n), seconds, min_ops=min_ops * n)
    loops = []
    for k in range(n):
        part = LoopResult(loop.samples[k::n], speed=loop.speed)
        for sample in part.samples:
            sample.start = part.wall_seconds
            sample.traced = k > 0
            part.wall_seconds += sample.seconds
        loops.append(part)
    return loops


def crowd_metrics(scores: list[Scored], n: int) -> dict[str, float]:
    head = scores[:n]
    return {
        "platform_calls_per_query": sum(s.platform_calls for s in head) / len(head),
        "crowd_usd_per_query": sum(s.usd for s in head) / len(head),
        "fill_accuracy": sum(s.accuracy for s in head) / len(head),
    }


def run(seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    if not trace:
        setup, setup_times = repeated_setup(
            lambda _k: Setup(seed, cfg, traced=False), lambda stale: stale.close()
        )
        scores: list[Scored] = []
        try:
            (loop,) = run_phase([expansion_step(setup, scores)], seconds, cfg.scored_queries)
        finally:
            setup.close()
        return _result(loop, scores, setup_times, cfg)

    # Two identical set-ups, one behind the tracing proxies, take turns
    # query by query: both see the same host, and each sees exactly the
    # query sequence of an untraced run.
    setups, setup_times = [], []
    for traced_setup in (False, True):
        start = perf_counter()
        setups.append(Setup(seed, cfg, traced=traced_setup))
        setup_times.append(perf_counter() - start)
    plain, traced = setups
    state = {
        "operators": OperatorTimes(),
        "front_end": FrontEndTimer(),
        "attributed": 0.0,
        "latency": 0.0,
    }
    scores, t_scores = [], []
    runtime_before = dict(traced.runtime.stats())
    cache_stmt_before = traced.conn.cache_stats()
    try:
        loop, t_loop = run_phase(
            [expansion_step(plain, scores), expansion_step(traced, t_scores, state)],
            seconds,
            cfg.scored_queries,
        )
        runtime_after = dict(traced.runtime.stats())
        cache_stmt_after = traced.conn.cache_stats()
    finally:
        plain.close()
        traced.close()
    result = _result(loop, scores, setup_times, cfg)
    same = crowd_metrics(t_scores, cfg.scored_queries) == crowd_metrics(
        scores, cfg.scored_queries
    )
    result["details"]["proxies_changed_nothing"] = same
    if not same:
        result["failed"] += 1
    queries = len(t_loop.samples)
    cache_before, cache_after = runtime_before["cache"], runtime_after["cache"]
    lookups = (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses)
    source, predictor = traced.source, traced.predictor
    operators = state["operators"]
    layers = empty_layers()
    layers.update(
        {
            "runtime.dispatches_per_query": (
                runtime_after["dispatches"] - runtime_before["dispatches"]
            ) / queries,
            "runtime.cache_hit_rate": (
                (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0
            ),
            "runtime.assignments_saved_per_query": (
                runtime_after["assignments_saved"] - runtime_before["assignments_saved"]
            ) / queries,
            "sources.dispatch_ms": source.timed_seconds / max(source.timed_calls, 1) * 1000.0,
            "sources.cells_per_dispatch": source.timed_cells / max(source.timed_calls, 1),
            "prediction.fit_predict_ms": predictor.seconds / max(predictor.calls, 1) * 1000.0,
            "prediction.training_size": predictor.training_rows / max(predictor.calls, 1),
            "perceptual.space_build_s": median([plain.space_build_s, traced.space_build_s]),
            "connection.stmt_cache_hit_rate": (
                (cache_stmt_after.hits - cache_stmt_before.hits)
                / max(
                    1,
                    cache_stmt_after.hits
                    + cache_stmt_after.misses
                    - cache_stmt_before.hits
                    - cache_stmt_before.misses,
                )
            ),
            "tokenizer.tokenize_us": state["front_end"].mean_us("tokenize"),
            "parser.parse_us": state["front_end"].mean_us("parse"),
            "planner.plan_us": state["front_end"].mean_us("plan"),
            "planner.bind_us": state["front_end"].mean_us("bind"),
            "planner.lower_us": state["front_end"].mean_us("lower"),
            "operators.open_us": state["front_end"].mean_us("open"),
            "trace.overhead_share": median(t_loop.latencies_ms("read"))
            / median(loop.latencies_ms("read"))
            - 1.0,
            "trace.unattributed_share": max(0.0, 1.0 - state["attributed"] / state["latency"])
            if state["latency"]
            else 0.0,
        }
    )
    for name, seconds_spent in operators.self_seconds.items():
        layers[f"operators.{name}.self_us"] = seconds_spent / queries * 1e6
    if operators.rows_out:
        layers["operators.rows_examined_per_row"] = operators.rows_examined / operators.rows_out
    result["layers"] = layers
    return result


def _result(loop: LoopResult, scores: list[Scored], setup_times: list[float], cfg: Config) -> dict:
    metrics, details = latency_metrics(loop)
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics.update(crowd_metrics(scores, cfg.scored_queries))
    details.update(
        movie_config=vars(cfg.movies),
        scored_queries=cfg.scored_queries,
        loop="closed",
        clients=1,
        flush="in memory (no durability)",
    )
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "details": details,
        "setup_samples_s": setup_times,
    }
