"""Tests for the schema expander wiring policies into the database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gold_sample import GoldSampleCollector
from repro.core.policies import DirectCrowdPolicy, PerceptualSpacePolicy
from repro.core.schema_expansion import SchemaExpander
from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker import WorkerPool
from repro.db.connection import Connection
from repro.db.types import is_missing
from repro.errors import ExpansionError, UnknownColumnError
from repro.perceptual.space import PerceptualSpace


@pytest.fixture(scope="module")
def space() -> PerceptualSpace:
    rng = np.random.default_rng(4)
    positives = rng.normal(2.0, 0.5, size=(30, 4))
    negatives = rng.normal(0.0, 0.5, size=(70, 4))
    return PerceptualSpace(list(range(1, 101)), np.vstack([positives, negatives]))


@pytest.fixture(scope="module")
def truth() -> dict[int, bool]:
    return {i: i <= 30 for i in range(1, 101)}


def build_db() -> Connection:
    db = Connection()
    db.run_statement("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
    db.insert_rows("items", [{"item_id": i, "name": f"Item {i}"} for i in range(1, 101)])
    return db


def build_space_policy(space) -> PerceptualSpacePolicy:
    platform = CrowdPlatform(seed=6)
    pool = WorkerPool.build(n_experts=12, seed=6)
    collector = GoldSampleCollector(platform, pool, seed=6)
    return PerceptualSpacePolicy(space, collector, gold_sample_size=40)


class TestExplicitExpansion:
    def test_expand_attribute_fills_column(self, space, truth):
        db = build_db()
        expander = SchemaExpander(
            db, build_space_policy(space), key_column="item_id", truth={"is_positive": truth}
        )
        report = expander.expand_attribute("items", "is_positive")
        assert report.rows_total == 100
        assert report.rows_filled == 100
        assert report.coverage == 1.0
        assert report.cost > 0
        found = db.run_statement("SELECT count(*) FROM items WHERE is_positive = true").scalar()
        assert 15 <= found <= 45
        # The write-back is crowd data and must be marked as such, so the
        # quality layer and cache invalidation can tell it from stored fact.
        provenance = db.table("items").provenance_map("is_positive")
        assert provenance and all(e.source == "crowd" for e in provenance.values())

    def test_ledger_records_expansion(self, space, truth):
        db = build_db()
        expander = SchemaExpander(
            db, build_space_policy(space), key_column="item_id", truth={"is_positive": truth}
        )
        expander.expand_attribute("items", "is_positive")
        assert expander.ledger.total_values_obtained == 100
        assert expander.ledger.total_cost > 0
        assert len(expander.reports) == 1

    def test_expansion_with_existing_column(self, space, truth):
        db = build_db()
        db.add_perceptual_column("items", "is_positive")
        expander = SchemaExpander(
            db, build_space_policy(space), key_column="item_id", truth={"is_positive": truth}
        )
        report = expander.expand_attribute("items", "is_positive")
        assert report.rows_filled == 100

    def test_missing_key_column(self, space, truth):
        db = Connection()
        db.run_statement("CREATE TABLE items (other_id INTEGER)")
        expander = SchemaExpander(db, build_space_policy(space), key_column="item_id", truth={})
        with pytest.raises(UnknownColumnError):
            expander.expand_attribute("items", "is_positive")

    def test_table_without_usable_keys(self, space):
        db = Connection()
        db.run_statement("CREATE TABLE items (item_id INTEGER, name TEXT)")
        expander = SchemaExpander(db, build_space_policy(space), key_column="item_id", truth={})
        with pytest.raises(ExpansionError):
            expander.expand_attribute("items", "is_positive")


class TestQueryDrivenExpansion:
    def test_query_triggers_expansion(self, space, truth):
        db = build_db()
        expander = SchemaExpander(
            db, build_space_policy(space), key_column="item_id", truth={"is_positive": truth}
        )
        expander.attach()
        result = db.run_statement("SELECT name FROM items WHERE is_positive = true")
        assert len(result) > 0
        assert len(expander.reports) == 1
        assert expander.reports[0].attribute == "is_positive"

    def test_whitelist_blocks_other_attributes(self, space, truth):
        db = build_db()
        expander = SchemaExpander(
            db,
            build_space_policy(space),
            key_column="item_id",
            truth={"is_positive": truth},
            allowed_attributes={"is_positive"},
        )
        expander.attach()
        with pytest.raises(UnknownColumnError):
            db.run_statement("SELECT name FROM items WHERE email = 'x'")

    def test_failed_expansion_propagates_unknown_column(self, space):
        db = build_db()
        # No truth provided: the gold sample will be one-sided and expansion fails.
        expander = SchemaExpander(
            db, build_space_policy(space), key_column="item_id", truth={}
        )
        expander.attach()
        with pytest.raises(UnknownColumnError):
            db.run_statement("SELECT name FROM items WHERE is_unknown_attr = true")

    def test_direct_crowd_policy_leaves_unclassified_missing(self, truth):
        db = build_db()
        platform = CrowdPlatform(seed=8)
        pool = WorkerPool.build(n_honest=15, n_spammers=10, seed=8)
        policy = DirectCrowdPolicy(platform, pool, judgments_per_item=5)
        expander = SchemaExpander(
            db, policy, key_column="item_id", truth={"is_positive": truth}
        )
        report = expander.expand_attribute("items", "is_positive")
        values = db.column_values("items", "is_positive")
        unresolved = [v for v in values.values() if is_missing(v)]
        assert report.rows_filled + len(unresolved) == 100
