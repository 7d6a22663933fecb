"""Query-time fill: a perceptual column completed by the SQL engine itself.

A crowd-enabled database answers queries over attributes nobody has
stored yet.  Here the ``humor`` column of a movie table starts out
entirely MISSING; a value source (the perceptual-space extractor wrapped
in the :class:`repro.db.ValueSource` protocol) is installed on the
connection, and a plain ``SELECT ... ORDER BY humor DESC`` fills the
column on demand:

* the planner puts a ``CrowdFill`` operator under the sort, which hands
  the MISSING cells to the acquisition runtime in batches of
  ``crowd_batch_size`` rows — one source dispatch per batch;
* the answers are written back with crowd provenance, so the repeat query
  needs no dispatch at all.

Run with:  python examples/query_time_fill.py
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core import PerceptualAttributeExtractor
from repro.datasets import build_movie_corpus
from repro.db import AcquisitionPolicy, Dispatch, connect
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig


class ExtractionValueSource:
    """Answers ``humor`` cells from precomputed perceptual-space judgments."""

    def __init__(self, scores: dict[int, float]) -> None:
        self.scores = scores
        self.dispatches = 0

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: AcquisitionPolicy | None,
        tracker: Any,
    ) -> Dispatch:
        self.dispatches += 1
        return Dispatch(
            {
                rowid: self.scores[int(row["item_id"])]
                for rowid, row in items
                if int(row["item_id"]) in self.scores
            }
        )


def main() -> None:
    corpus = build_movie_corpus(n_movies=300, n_users=800, ratings_per_user=40, seed=21)
    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=16, n_epochs=12, seed=21))
    model.fit(corpus.ratings)
    space = model.to_space()

    # Gold sample: numeric humor judgments for 60 movies (simulated experts
    # give a 1-10 score derived from the comedy label with noise); the
    # extractor turns it into a judgment for every movie in the space.
    labels = corpus.labels_for("Comedy")
    rng = np.random.default_rng(21)
    gold_ids = [int(i) for i in rng.choice(sorted(labels), size=60, replace=False)]
    gold = {
        i: float(np.clip((7.5 if labels[i] else 3.5) + rng.normal(0, 1), 1, 10)) for i in gold_ids
    }
    extractor = PerceptualAttributeExtractor(space)
    source = ExtractionValueSource(
        extractor.extract_numeric("humor", gold, value_range=(1.0, 10.0)).values
    )

    db = connect()
    db.execute(
        "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER,"
        " humor REAL PERCEPTUAL)"
    )
    db.executemany(
        "INSERT INTO movies (item_id, name, year) VALUES (?, ?, ?)",
        [(r["item_id"], r["name"], r["year"]) for r in corpus.items],
    )
    provenance = "PRAGMA column_provenance = 'movies.humor'"
    missing = dict(db.execute(provenance).fetchall())["missing"]
    print(f"{missing} movies have no humor judgment yet")

    db.set_value_source(source)
    query = (
        "SELECT name, round(humor, 1) AS humor FROM movies WHERE humor IS NOT NULL "
        "ORDER BY humor DESC LIMIT 5"
    )
    print("\nMost humorous movies (SELECT ... ORDER BY humor DESC):")
    for name, humor in db.execute(query).fetchall():
        print(f"  {humor:>4}  {name}")
    filled = dict(db.execute(provenance).fetchall()).get("crowd", 0)
    print(
        f"\nCrowdFill obtained {filled}/{len(corpus.items)} humor values "
        f"in {source.dispatches} batched dispatches "
        f"(batch size {db.policy.crowd_batch_size})"
    )
    assert filled > 0 and source.dispatches > 0

    dispatches = source.dispatches
    db.execute(query).fetchall()
    print(f"Repeat query: {source.dispatches - dispatches} further dispatches")
    assert source.dispatches == dispatches


if __name__ == "__main__":
    main()
