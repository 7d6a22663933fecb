"""Command-line interface for the reproduction package.

Entry points::

    python -m repro demo                     # end-to-end schema expansion demo
    python -m repro experiment table3        # regenerate one paper table/figure
    python -m repro build-space out.npz      # build + persist a perceptual space
    python -m repro serve --db-path d/       # serve a database to network clients
    python -m repro lint                     # project-invariant static analysis

The experiment command accepts ``--scale small|default`` so the paper
tables can be regenerated quickly (small) or at the standard benchmark
scale (default).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

#: Experiment identifiers accepted by ``python -m repro experiment``.
EXPERIMENT_CHOICES = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure3",
    "figure4",
    "tsvm",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Crowd-enabled databases with query-driven schema expansion "
            "(reproduction of Selke, Lofi, Balke, VLDB 2012)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the end-to-end schema-expansion demo")
    demo.add_argument("--movies", type=int, default=300, help="number of synthetic movies")
    demo.add_argument("--seed", type=int, default=7, help="random seed")
    demo.add_argument(
        "--db-path",
        default=None,
        help=(
            "persist the demo database to this directory; a rerun against the "
            "same directory reuses the paid crowd answers (zero crowd spend)"
        ),
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures"
    )
    experiment.add_argument("name", choices=EXPERIMENT_CHOICES, help="experiment to run")
    experiment.add_argument(
        "--scale", choices=("small", "default"), default="small", help="corpus scale"
    )
    experiment.add_argument(
        "--repetitions", type=int, default=2, help="random repetitions per cell"
    )

    build_space = subparsers.add_parser(
        "build-space", help="build a synthetic corpus and persist its perceptual space"
    )
    build_space.add_argument("output", help="output path for the .npz space archive")
    build_space.add_argument("--movies", type=int, default=500)
    build_space.add_argument("--users", type=int, default=1200)
    build_space.add_argument("--factors", type=int, default=24)
    build_space.add_argument("--epochs", type=int, default=20)
    build_space.add_argument("--seed", type=int, default=0)
    build_space.add_argument(
        "--ratings-output", default=None, help="optional path to also persist the rating data"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a database directory to network clients (repro.client)",
    )
    serve.add_argument(
        "--db-path",
        default=None,
        help="database directory to own and serve (omit for an in-memory catalog)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7457)
    serve.add_argument(
        "--tenants",
        metavar="FILE",
        default=None,
        help=(
            "JSON file with a list of tenant configs "
            '([{"name": ..., "token": ..., "max_cost": ..., '
            '"max_requests_per_second": ...}]); omitted = open registry'
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission-control cap on concurrently executing statements",
    )
    serve.add_argument(
        "--executor-threads",
        type=int,
        default=8,
        help="worker threads running blocking engine calls",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight statements on SIGTERM",
    )
    serve.add_argument(
        "--synchronous",
        choices=("full", "normal"),
        default=None,
        help="WAL durability mode of the served database directory",
    )
    serve.add_argument(
        "--buffer-pool-pages",
        type=int,
        default=None,
        help=(
            "buffer-pool capacity of the paged row store in pages "
            "(0 disables paging; default: engine default)"
        ),
    )

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the project-invariant static-analysis suite",
    )
    lint.add_argument("paths", nargs="*", default=["src"], help="files/dirs to analyse")
    lint.add_argument("--format", choices=("human", "json"), default="human")
    lint.add_argument("--output", metavar="FILE", default=None)
    lint.add_argument("--select", metavar="RULES", default=None)
    lint.add_argument("--show-suppressed", action="store_true")
    lint.add_argument("--list-rules", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_demo(args: argparse.Namespace) -> int:
    import repro
    from repro.core import PerceptualPredictor
    from repro.crowd import CrowdPlatform, SimulatedCrowdValueSource, WorkerPool
    from repro.datasets import build_movie_corpus
    from repro.db import ColumnType
    from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig

    corpus = build_movie_corpus(n_movies=args.movies, n_users=args.movies * 2, seed=args.seed)
    print(f"Built corpus: {corpus.summary()}")

    db_path = getattr(args, "db_path", None)
    conn = repro.connect(path=db_path) if db_path else repro.connect()
    cursor = conn.cursor()
    fresh = "movies" not in conn.table_names()
    if fresh:
        cursor.execute(
            "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
        )
        cursor.executemany(
            "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)",
            [(r["item_id"], r["name"], r["year"]) for r in corpus.items],
        )
    else:
        print(f"Reopened persisted database at {db_path} (snapshot + WAL replay)")

    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=16, n_epochs=15, seed=args.seed))
    model.fit(corpus.ratings)
    space = model.to_space()
    print(f"Built perceptual space: {space}")

    # Query-driven expansion: the handler only adds the column; the crowd
    # answers a sample and the perceptual-space predictor fills the rest.
    pool = WorkerPool.build(n_honest=25, n_experts=10, n_spammers=10, seed=args.seed)
    source = SimulatedCrowdValueSource(
        CrowdPlatform(seed=args.seed),
        pool.only_trusted(),
        truth={"is_comedy": corpus.labels_for("Comedy")},
        seed=args.seed,
    )
    conn.set_value_source(source)
    conn.set_predictor(PerceptualPredictor(space))

    def expand(table: str, column: str) -> bool:
        conn.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    conn.set_expansion_handler(expand)

    cursor.execute(
        "SELECT name, year FROM movies WHERE is_comedy = ? ORDER BY year DESC LIMIT 5",
        (True,),
    )
    print("\nTop comedies after query-driven schema expansion:")
    for name, year in cursor:
        print(f"  {name} ({year})")
    if source.dispatches:
        counts = conn.provenance_counts("movies", "is_comedy")
        print(
            f"\nFilled {counts.get('crowd', 0)} rows from the crowd and "
            f"{counts.get('predicted', 0)} by prediction for ${source.total_cost:.2f} "
            f"({source.total_judgments} judgments in {source.dispatches} dispatches)."
        )
    else:
        print("\nServed from persisted crowd answers: no new crowd spend.")
    if conn.durability is not None:
        stats = conn.durability.stats()
        print(
            "Durability: wal_records={wal_records} fsyncs={fsyncs} "
            "checkpoints={checkpoints} replayed={records_replayed}".format(**stats)
        )
        conn.close()
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import reporting
    from repro.experiments.boosting import run_boosting_experiments
    from repro.experiments.context import MovieExperimentConfig, get_movie_context
    from repro.experiments.crowd_quality import run_crowd_quality_experiments
    from repro.experiments.neighbors import run_nearest_neighbor_showcase
    from repro.experiments.other_domains import run_other_domain_experiment, small_scale
    from repro.experiments.questionable import run_questionable_experiment
    from repro.experiments.small_samples import run_small_sample_experiment
    from repro.experiments.tsvm_comparison import run_tsvm_comparison
    from repro.utils.tables import format_table

    name = args.name
    repetitions = max(1, args.repetitions)

    if name in ("table5", "table6"):
        domain = "restaurants" if name == "table5" else "board_games"
        scale = small_scale(domain) if args.scale == "small" else None
        rows = run_other_domain_experiment(
            domain, n_repetitions=repetitions, scale=scale
        )
        title = "Table 5. Results for restaurants" if name == "table5" else "Table 6. Results for board games"
        print(reporting.render_other_domain_table(rows, title=title))
        return 0

    config = (
        MovieExperimentConfig.small() if args.scale == "small" else MovieExperimentConfig()
    )
    context = get_movie_context(config)

    if name == "table1":
        outcome = run_crowd_quality_experiments(context)
        print(reporting.render_table1(outcome.rows))
    elif name == "table2":
        columns, purity = run_nearest_neighbor_showcase(context)
        print(reporting.render_table2(columns, purity))
    elif name == "table3":
        rows = run_small_sample_experiment(context, n_repetitions=repetitions)
        print(reporting.render_table3(rows))
    elif name == "table4":
        rows = run_questionable_experiment(context, n_repetitions=repetitions)
        print(reporting.render_table4(rows))
    elif name in ("figure3", "figure4"):
        outcome = run_crowd_quality_experiments(context)
        series = run_boosting_experiments(context, outcome)
        if name == "figure3":
            print(reporting.render_boosting_series(series))
        else:
            rows = []
            for entry in series:
                for cost, crowd_correct, boosted_correct in entry.correct_over_money():
                    rows.append((entry.experiment, round(cost, 2), crowd_correct, boosted_correct))
            print(
                format_table(
                    ["Experiment", "cost ($)", "crowd correct", "boosted correct"], rows
                )
            )
    elif name == "tsvm":
        rows = run_tsvm_comparison(context)
        print(reporting.render_tsvm_rows(rows))
    return 0


def _run_build_space(args: argparse.Namespace) -> int:
    from repro.datasets import build_movie_corpus
    from repro.perceptual import (
        EuclideanEmbeddingModel,
        FactorModelConfig,
        save_ratings,
        save_space,
    )

    corpus = build_movie_corpus(n_movies=args.movies, n_users=args.users, seed=args.seed)
    model = EuclideanEmbeddingModel(
        FactorModelConfig(n_factors=args.factors, n_epochs=args.epochs, seed=args.seed)
    )
    model.fit(corpus.ratings)
    space = model.to_space().with_metadata(corpus=corpus.name, seed=args.seed)
    path = save_space(space, args.output)
    print(f"Wrote perceptual space ({space.n_items} items, d={space.n_dimensions}) to {path}")
    if args.ratings_output:
        ratings_path = save_ratings(corpus.ratings, args.ratings_output)
        print(f"Wrote rating data ({corpus.ratings.n_ratings} ratings) to {ratings_path}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import logging

    from repro.server import ReproServer, ServerConfig, TenantConfig

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    tenants: list[TenantConfig] = []
    if args.tenants:
        with open(args.tenants, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, list):
            raise SystemExit(f"{args.tenants}: expected a JSON list of tenant configs")
        tenants = [TenantConfig.from_mapping(entry) for entry in raw]
    server = ReproServer(
        ServerConfig(
            host=args.host,
            port=args.port,
            path=args.db_path,
            synchronous=args.synchronous,
            buffer_pool_pages=args.buffer_pool_pages,
            max_inflight=args.max_inflight,
            executor_threads=args.executor_threads,
            drain_grace=args.drain_grace,
        ),
        tenants=tenants,
    )
    # Blocks until SIGTERM/SIGINT, then drains: in-flight statements
    # finish, the WAL group-commit buffer is flushed, a final snapshot
    # checkpoint is published, and the directory lock is released.
    asyncio.run(server.serve_async(install_signal_handlers=True))
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.output:
        argv += ["--output", args.output]
    if args.select:
        argv += ["--select", args.select]
    if args.show_suppressed:
        argv.append("--show-suppressed")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "build-space":
        return _run_build_space(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
