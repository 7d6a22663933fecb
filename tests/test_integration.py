"""End-to-end integration tests: the full paper workflow on one small corpus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DirectCrowdPolicy,
    GoldSampleCollector,
    PerceptualSpacePolicy,
    QuestionableResponseDetector,
    SchemaExpander,
)
from repro.crowd import CrowdPlatform, WorkerPool
from repro.db import Connection
from repro.experiments.questionable import corrupt_labels
from repro.learn.metrics import g_mean


@pytest.fixture(scope="module")
def loaded_db(small_corpus):
    db = Connection()
    db.run_statement(
        "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT NOT NULL, year INTEGER)"
    )
    db.insert_rows(
        "movies",
        [
            {"item_id": r["item_id"], "name": r["name"], "year": r["year"]}
            for r in small_corpus.items
        ],
    )
    return db


class TestEndToEndSchemaExpansion:
    def test_figure2_workflow(self, loaded_db, small_corpus, small_space):
        """The full Figure-2 workflow: query -> gold sample -> extraction -> answer."""
        truth = small_corpus.labels_for("Comedy")
        platform = CrowdPlatform(seed=31)
        pool = WorkerPool.build(n_honest=20, n_experts=10, n_spammers=15, seed=31)
        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=31)
        policy = PerceptualSpacePolicy(small_space, collector, gold_sample_size=60)
        expander = SchemaExpander(
            loaded_db, policy, key_column="item_id", truth={"is_comedy": truth}
        )
        expander.attach()

        result = loaded_db.run_statement(
            "SELECT name FROM movies WHERE is_comedy = true ORDER BY year DESC LIMIT 10"
        )
        assert 0 < len(result) <= 10

        report = expander.reports[0]
        assert report.coverage == 1.0
        assert report.cost < 5.0

        # Quality of the expanded column against the ground truth.
        values = loaded_db.column_values("movies", "is_comedy")
        keys = loaded_db.column_values("movies", "item_id")
        predictions, labels = [], []
        for rowid, value in values.items():
            item = int(keys[rowid])
            predictions.append(bool(value))
            labels.append(truth[item])
        assert g_mean(np.array(labels), np.array(predictions)) > 0.55

    def test_perceptual_space_cheaper_than_direct_crowd(self, small_corpus, small_space):
        truth = small_corpus.labels_for("Comedy")
        item_ids = sorted(truth)
        platform = CrowdPlatform(seed=37)
        pool = WorkerPool.build(n_honest=25, n_spammers=20, n_experts=10, seed=37)

        crowd_policy = DirectCrowdPolicy(platform, pool, judgments_per_item=10)
        crowd_result = crowd_policy.expand("is_comedy", item_ids, truth)

        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=37)
        space_policy = PerceptualSpacePolicy(small_space, collector, gold_sample_size=60)
        space_result = space_policy.expand("is_comedy", item_ids, truth)

        assert space_result.cost < crowd_result.cost / 2
        assert space_result.coverage_count == len(item_ids)
        assert crowd_result.coverage_count <= len(item_ids)

    def test_data_cleaning_workflow(self, small_corpus, small_space):
        """Section 4.4: flag questionable labels, re-verify, quality improves."""
        truth = {
            i: l for i, l in small_corpus.labels_for("Comedy").items() if i in small_space
        }
        corrupted, _swapped = corrupt_labels(truth, 0.2, seed=5)
        detector = QuestionableResponseDetector(small_space)
        repaired = detector.repair("is_comedy", corrupted, verified_labels=truth)
        before = np.mean([corrupted[i] == truth[i] for i in truth])
        after = np.mean([repaired[i] == truth[i] for i in truth])
        assert after > before

    def test_public_api_importable(self):
        import repro

        assert repro.__version__
        assert hasattr(repro, "connect")
        assert hasattr(repro, "AcquisitionPolicy")
        assert hasattr(repro, "SchemaExpander")
        assert hasattr(repro, "EuclideanEmbeddingModel")
