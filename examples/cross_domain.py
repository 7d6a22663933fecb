"""Schema expansion beyond movies: restaurants and board games (Section 4.5).

Builds the synthetic yelp-like and boardgamegeek-like corpora, trains a
perceptual space for each, and expands a handful of binary categories from
small gold samples, printing the g-mean reached per category — the
cross-domain generalisation the paper reports in Tables 5 and 6.

Run with:  python examples/cross_domain.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PerceptualPredictor
from repro.datasets import build_boardgame_corpus, build_restaurant_corpus
from repro.learn import g_mean, sample_balanced_training_set
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig


def expand_categories(corpus, categories, *, n_per_class: int = 20, seed: int = 5) -> None:
    """Train a space for *corpus* and report the g-mean of each category."""
    model = EuclideanEmbeddingModel(FactorModelConfig(n_factors=16, n_epochs=12, seed=seed))
    model.fit(corpus.ratings)
    space = model.to_space()

    print(f"\n{corpus.name}: {corpus.summary()}")
    for category in categories:
        labels = {i: l for i, l in corpus.labels_for(category).items() if i in space}
        try:
            positives, negatives = sample_balanced_training_set(labels, n_per_class, seed=seed)
        except Exception:
            print(f"  {category:30s}  (not enough examples for n={n_per_class})")
            continue
        gold = {i: True for i in positives}
        gold.update({i: False for i in negatives})
        batch = PerceptualPredictor(space).fit_predict(
            category,
            [(i, {"item_id": i}, gold[i]) for i in sorted(gold)],
            [(i, {"item_id": i}) for i in space.item_ids],
        )
        ids = [i for i in labels if i in batch.values]
        truth = np.array([labels[i] for i in ids])
        predictions = np.array([batch.values[i] for i in ids])
        print(f"  {category:30s}  g-mean {g_mean(truth, predictions):.2f}  "
              f"(trained on {len(gold)} judgments, labelled {len(ids)} items)")


def main() -> None:
    restaurants = build_restaurant_corpus(
        n_restaurants=400, n_users=1200, ratings_per_user=25, seed=5
    )
    expand_categories(
        restaurants,
        ["Category: Fast Food", "Ambience: Trendy", "Good For Kids", "Noise Level: Very Loud"],
    )

    games = build_boardgame_corpus(n_games=500, n_users=1200, ratings_per_user=40, seed=5)
    expand_categories(
        games,
        ["Party Game", "Worker Placement", "Children's Game", "Modular Board"],
    )
    print(
        "\nNote how the perceptual categories (Party Game, Worker Placement) are "
        "recovered much better than the factual one (Modular Board), as in the paper."
    )


if __name__ == "__main__":
    main()
