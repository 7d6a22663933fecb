"""Direct crowd-sourcing vs. perceptual-space expansion on the movie domain.

Reproduces the cost/quality trade-off at the heart of the paper: the same
``is_comedy`` schema expansion is performed twice —

* once by crowd-sourcing a judgment for every movie (ten votes each,
  Experiment-1-style worker population), and
* once by crowd-sourcing only a small gold sample and extrapolating from
  the perceptual space.

Both strategies run on their own connection with their own session-scoped
expansion pipeline, so neither clobbers the other's policy.  The script
prints accuracy, coverage, cost and simulated wall-clock time for both.

Run with:  python examples/movie_schema_expansion.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core import DirectCrowdPolicy, GoldSampleCollector, PerceptualSpacePolicy
from repro.crowd import CrowdPlatform, WorkerPool
from repro.datasets import build_expert_databases, build_movie_corpus, majority_reference
from repro.db import Connection
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

    # -- Strategy 1: direct crowd-sourcing of every value --------------------------
    conn_direct = build_connection(corpus)
    direct = (
        conn_direct.expansion()
        .with_policy(DirectCrowdPolicy(platform, pool, judgments_per_item=10))
        .with_key("item_id")
        .with_truth({"is_comedy": truth})
        .build()
    )
    direct_report = direct.expand_attribute("movies", "is_comedy")
    direct_coverage, direct_accuracy = accuracy_of(conn_direct, truth)

    # -- Strategy 2: perceptual-space expansion from a small gold sample -------------
    conn_space = build_connection(corpus)
    collector = GoldSampleCollector(platform, pool.only_trusted(), seed=13)
    expansion = (
        conn_space.expansion()
        .with_policy(PerceptualSpacePolicy(space, collector, gold_sample_size=80))
        .with_key("item_id")
        .with_truth({"is_comedy": truth})
        .build()
    )
    space_report = expansion.expand_attribute("movies", "is_comedy")
    space_coverage, space_accuracy = accuracy_of(conn_space, truth)

    print("Strategy comparison for expanding movies.is_comedy")
    print("---------------------------------------------------")
    rows = [
        ("direct crowd", direct_report, direct_coverage, direct_accuracy),
        ("perceptual space", space_report, space_coverage, space_accuracy),
    ]
    for label, report, coverage, accuracy in rows:
        print(
            f"{label:18s}  cost ${report.cost:6.2f}   time {report.minutes:7.1f} min   "
            f"judgments {report.judgments:6d}   coverage {coverage * 100:5.1f}%   "
            f"accuracy {accuracy * 100:5.1f}%"
        )

    saving = 1.0 - (space_report.cost / direct_report.cost if direct_report.cost else 0.0)
    print(
        f"\nThe perceptual-space expansion used {saving * 100:.0f}% less money and "
        f"reached {space_coverage * 100:.0f}% coverage "
        f"(direct crowd-sourcing left {100 - direct_coverage * 100:.0f}% of movies unclassified)."
    )

    (comedies,) = conn_space.execute(
        "SELECT count(*) FROM movies WHERE is_comedy = ?", (True,)
    ).fetchone()
    true_count = int(np.sum(list(truth.values())))
    print(f"Comedies found: {comedies} (reference says {true_count}).")


if __name__ == "__main__":
    main()
