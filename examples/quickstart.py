"""Quickstart: answer a query on an attribute the database does not have.

This is the paper's running example end to end, at toy scale:

1. Build a synthetic movie corpus (items, factual metadata, user ratings).
2. Open a connection and load the factual part through parameterized
   INSERTs (qmark style, like sqlite3).
3. Build a perceptual space from the ratings.
4. Give the connection's session a (simulated) crowd, a perceptual-space
   predictor and an expansion handler that adds the missing column.
5. Run ``SELECT ... WHERE is_comedy = ?`` — a column that does not
   exist — and watch it being expanded at query time: the crowd answers
   a small sample, the predictor fills every other movie.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core import PerceptualPredictor
from repro.crowd import CrowdPlatform, SimulatedCrowdValueSource, WorkerPool
from repro.datasets import build_movie_corpus
from repro.db import ColumnType
from repro.learn.metrics import g_mean
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig


def main() -> None:
    # 1. A small synthetic Social-Web corpus (movies, ratings, ground truth).
    corpus = build_movie_corpus(n_movies=400, n_users=1000, ratings_per_user=40, seed=7)
    print(f"Corpus: {corpus.summary()}")

    # 2. The crowd-enabled database holds only factual data.  ``connect``
    #    returns a DB-API-style connection with cursors and ? parameters.
    conn = repro.connect()
    cursor = conn.cursor()
    cursor.execute(
        "CREATE TABLE movies ("
        " item_id INTEGER PRIMARY KEY,"
        " name TEXT NOT NULL,"
        " year INTEGER,"
        " country TEXT)"
    )
    cursor.executemany(
        "INSERT INTO movies (item_id, name, year, country) VALUES (?, ?, ?, ?)",
        [
            (record["item_id"], record["name"], record["year"], record["country"])
            for record in corpus.items
        ],
    )
    (count,) = cursor.execute("SELECT count(*) FROM movies").fetchone()
    print(f"Loaded {count} movies")

    # 3. Perceptual space from the rating data (Section 3.3).
    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=16, n_epochs=15, seed=7))
    model.fit(corpus.ratings)
    space = model.to_space()
    print(f"Perceptual space: {space}")

    # 4. Crowd + predictor on this connection's session.  The expansion
    #    handler only adds the column; the query itself fills it.  Another
    #    connection to the same catalog could use a different source.
    truth = corpus.labels_for("Comedy")
    pool = WorkerPool.build(n_honest=25, n_experts=10, n_spammers=10, seed=7)
    source = SimulatedCrowdValueSource(
        CrowdPlatform(seed=7), pool.only_trusted(), truth={"is_comedy": truth}, seed=7
    )
    conn.set_value_source(source)
    conn.set_predictor(PerceptualPredictor(space))

    def expand(table: str, column: str) -> bool:
        if column != "is_comedy":
            return False  # the simulated crowd only knows is_comedy
        conn.add_perceptual_column(table, column, ColumnType.BOOLEAN)
        return True

    conn.set_expansion_handler(expand)

    # 5. The query references a column that does not exist yet.
    cursor.execute(
        "SELECT name, year FROM movies WHERE is_comedy = ? ORDER BY year DESC LIMIT 5",
        (True,),
    )
    print("\nTop comedies according to the expanded schema:")
    for name, year in cursor:
        print(f"  {name}  ({year})")

    counts = dict(cursor.execute("PRAGMA column_provenance = 'movies.is_comedy'").fetchall())
    print(
        f"\nExpansion filled {counts.get('crowd', 0)} movies from the crowd and "
        f"{counts.get('predicted', 0)} by prediction for ${source.total_cost:.2f} "
        f"({source.total_judgments} crowd judgments in {source.dispatches} dispatches)."
    )
    rows = cursor.execute("SELECT item_id, is_comedy FROM movies").fetchall()
    labels = np.array([truth[item] for item, _ in rows])
    predicted = np.array([bool(value) for _, value in rows])
    quality = g_mean(labels, predicted)
    print(
        f"Accuracy {np.mean(labels == predicted):.3f}, g-mean {quality:.3f}; "
        f"session spent ${conn.session.cost_spent:.2f}; cache {conn.cache_stats()}."
    )
    assert source.total_cost <= 0.65 and quality >= 0.75


if __name__ == "__main__":
    main()
