"""Crowd-only vs. hybrid (crowd + perceptual space) expansion on the movie domain.

Reproduces the cost/quality trade-off at the heart of the paper: the same
query-driven ``is_comedy`` expansion is performed twice —

* once on a connection with only a crowd value source, so the crowd
  judges every movie (ten votes each, Experiment-1-style worker
  population), and
* once on a connection that also has a perceptual-space predictor, so the
  crowd answers only a small sample and the predictor fills the rest.

On both connections the expansion handler only adds the column; the
query's ``CrowdFill``/``PredictFill`` operators do the filling.  The
script prints cost, judgments, coverage and accuracy for both.

Run with:  python examples/movie_schema_expansion.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core import PerceptualPredictor
from repro.crowd import CrowdPlatform, SimulatedCrowdValueSource, WorkerPool
from repro.datasets import build_expert_databases, build_movie_corpus, majority_reference
from repro.db import ColumnType, Connection
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig


def build_connection(corpus) -> Connection:
    """Load the factual part of the corpus into a fresh connection."""
    conn = repro.connect()
    cursor = conn.cursor()
    cursor.execute(
        "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
    )
    cursor.executemany(
        "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)",
        [(r["item_id"], r["name"], r["year"]) for r in corpus.items],
    )

    def expand(table: str, column: str) -> bool:
        conn.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    conn.set_expansion_handler(expand)
    return conn


def accuracy_of(conn: Connection, truth: dict[int, bool]) -> tuple[float, float]:
    """(coverage, accuracy on covered rows) of the expanded is_comedy column."""
    values = conn.column_values("movies", "is_comedy")
    keys = conn.column_values("movies", "item_id")
    covered = 0
    correct = 0
    for rowid, value in values.items():
        item_id = int(keys[rowid])
        if item_id not in truth:
            continue
        if isinstance(value, bool):
            covered += 1
            if value == truth[item_id]:
                correct += 1
    total = len(truth)
    return covered / total, (correct / covered if covered else 0.0)


def main() -> None:
    corpus = build_movie_corpus(n_movies=500, n_users=1200, ratings_per_user=45, seed=3)
    experts = build_expert_databases(corpus.ground_truth, seed=3)
    reference = majority_reference(experts)
    truth = reference["Comedy"]

    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=20, n_epochs=15, seed=3))
    model.fit(corpus.ratings)
    space = model.to_space()

    platform = CrowdPlatform(seed=13)
    pool = WorkerPool.build(n_honest=35, n_spammers=45, n_experts=12, seed=13)
    query = "SELECT count(*) FROM movies WHERE is_comedy = ?"

    # -- Crowd-only: no predictor, so the crowd judges every movie ---------------------
    conn_crowd = build_connection(corpus)
    crowd = SimulatedCrowdValueSource(
        platform, pool, truth={"is_comedy": truth}, judgments_per_item=10, seed=13
    )
    conn_crowd.set_value_source(crowd)
    conn_crowd.execute(query, (True,)).fetchone()
    crowd_coverage, crowd_accuracy = accuracy_of(conn_crowd, truth)

    # -- Hybrid: a small crowd sample, the perceptual space predicts the rest ----------
    conn_space = build_connection(corpus)
    hybrid = SimulatedCrowdValueSource(
        platform, pool.only_trusted(), truth={"is_comedy": truth}, seed=13
    )
    conn_space.set_value_source(hybrid)
    conn_space.set_predictor(PerceptualPredictor(space))
    (comedies,) = conn_space.execute(query, (True,)).fetchone()
    space_coverage, space_accuracy = accuracy_of(conn_space, truth)

    print("Strategy comparison for expanding movies.is_comedy")
    print("---------------------------------------------------")
    rows = [
        ("crowd only", crowd, crowd_coverage, crowd_accuracy),
        ("hybrid", hybrid, space_coverage, space_accuracy),
    ]
    for label, source, coverage, accuracy in rows:
        print(
            f"{label:10s}  cost ${source.total_cost:6.2f}   "
            f"judgments {source.total_judgments:6d}   dispatches {source.dispatches:3d}   "
            f"coverage {coverage * 100:5.1f}%   accuracy {accuracy * 100:5.1f}%"
        )

    saving = 1.0 - hybrid.total_cost / crowd.total_cost
    print(
        f"\nThe hybrid expansion used {saving * 100:.0f}% less money and "
        f"reached {space_coverage * 100:.0f}% coverage "
        f"(crowd-only left {100 - crowd_coverage * 100:.0f}% of movies unclassified)."
    )
    assert hybrid.total_cost < crowd.total_cost / 5 and space_coverage == 1.0

    true_count = int(np.sum(list(truth.values())))
    print(f"Comedies found: {comedies} (reference says {true_count}).")


if __name__ == "__main__":
    main()
