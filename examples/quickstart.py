"""Quickstart: answer a query on an attribute the database does not have.

This is the paper's running example end to end, at toy scale:

1. Build a synthetic movie corpus (items, factual metadata, user ratings).
2. Open a connection and load the factual part through parameterized
   INSERTs (qmark style, like sqlite3).
3. Build a perceptual space from the ratings.
4. Attach a schema-expansion pipeline to the connection's session, using
   the space plus a small crowd-sourced gold sample.
5. Run ``SELECT ... WHERE is_comedy = ?`` — a column that does not
   exist — and watch it being expanded at query time.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.core import GoldSampleCollector, PerceptualSpacePolicy
from repro.crowd import CrowdPlatform, WorkerPool
from repro.datasets import build_movie_corpus
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

    # 4. Crowd platform + expansion pipeline on this connection's session.
    #    Another connection to the same catalog could use a different policy.
    platform = CrowdPlatform(seed=7)
    pool = WorkerPool.build(n_honest=25, n_experts=10, n_spammers=10, seed=7)
    collector = GoldSampleCollector(platform, pool.only_trusted(), seed=7)
    policy = PerceptualSpacePolicy(space, collector, gold_sample_size=60)
    expander = (
        conn.expansion()
        .with_policy(policy)
        .with_key("item_id")
        .with_truth({"is_comedy": corpus.labels_for("Comedy")})
        .allow("is_comedy")
        .attach()
    )

    # 5. The query references a column that does not exist yet.
    cursor.execute(
        "SELECT name, year FROM movies WHERE is_comedy = ? ORDER BY year DESC LIMIT 5",
        (True,),
    )
    print("\nTop comedies according to the expanded schema:")
    for name, year in cursor:
        print(f"  {name}  ({year})")

    report = expander.reports[0]
    print(
        f"\nExpansion filled {report.rows_filled}/{report.rows_total} rows "
        f"for ${report.cost:.2f} in {report.minutes:.0f} simulated minutes "
        f"({report.judgments} crowd judgments)."
    )
    print(f"Session spent ${conn.session.cost_spent:.2f}; cache {conn.cache_stats()}.")


if __name__ == "__main__":
    main()
