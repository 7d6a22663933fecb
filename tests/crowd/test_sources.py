"""Tests for the batched crowd-platform value source (query-engine bridge)."""

from __future__ import annotations

import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db import Dispatch, connect


@pytest.fixture
def truth() -> dict[int, bool]:
    return {i: i % 3 == 0 for i in range(1, 21)}


@pytest.fixture
def source(truth) -> SimulatedCrowdValueSource:
    return SimulatedCrowdValueSource(
        CrowdPlatform(seed=11),
        WorkerPool.build(n_honest=15, n_spammers=0, seed=3),
        truth={"is_comedy": truth},
        key_column="item_id",
        judgments_per_item=5,
        items_per_hit=10,
    )


def labels(rowids, letters: str) -> dict[int, bool]:
    """``rowid -> bool`` from a string of ``T``/``F`` answers."""
    return {rowid: letter == "T" for rowid, letter in zip(rowids, letters)}


class TestFlatDispatch:
    def test_one_dispatch_per_batch(self, source):
        items = [(rowid, {"item_id": rowid}) for rowid in range(1, 11)]
        values = source.request_values_with_quality("is_comedy", items).values
        assert source.dispatches == 1
        assert source.total_cost > 0
        assert source.total_judgments >= len(values)
        assert all(isinstance(v, bool) for v in values.values())

    def test_rows_without_key_are_skipped(self, source):
        items = [(1, {"item_id": 1}), (2, {"item_id": None}), (3, {})]
        values = source.request_values_with_quality("is_comedy", items).values
        assert set(values) <= {1}

    def test_empty_batch_dispatches_nothing(self, source):
        dispatch = source.request_values_with_quality("is_comedy", [(5, {"item_id": None})])
        assert dispatch == Dispatch({})
        assert source.dispatches == 0


class TestDeterminism:
    def make_source(self, truth, seed):
        return SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=15, seed=3),
            truth={"is_comedy": truth},
            judgments_per_item=5,
            seed=seed,
        )

    def test_seeded_source_is_deterministic_across_runs(self, truth):
        items = [(rowid, {"item_id": rowid}) for rowid in range(1, 21)]
        runs = []
        for _ in range(2):
            source = self.make_source(truth, seed=42)
            runs.append(
                [
                    source.request_values_with_quality("is_comedy", items[i : i + 10])
                    for i in (0, 10)
                ]
            )
        assert runs[0] == runs[1]

    def test_child_seeds_derive_from_request_identity(self, truth):
        # Child seeds hash the request (attribute + item ids), not the
        # dispatch ordinal: different batches get independent streams ...
        items = [(rowid, {"item_id": rowid}) for rowid in range(1, 21)]
        source = self.make_source(truth, seed=42)
        source.request_values_with_quality("is_comedy", items[:10])
        source.request_values_with_quality("is_comedy", items[10:])
        first, second = source.runs
        assert [j.worker_id for j in first.judgments] != [
            j.worker_id for j in second.judgments
        ]

    def test_flat_answers_are_pinned_to_the_seed_derivation(self, truth):
        # The paper tables rest on the flat path's child-seed derivation
        # (source seed, attribute, sorted item ids).  A mixed honest/spam
        # pool makes the answers seed-sensitive: these are the exact
        # dispatches the seeded source has always produced.
        source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=8, n_spammers=7, seed=3),
            truth={"is_comedy": truth},
            judgments_per_item=3,
            seed=42,
        )
        assert not source.quality_enabled
        items = [(rowid, {"item_id": rowid}) for rowid in range(1, 21)]
        first, second = (
            source.request_values_with_quality("is_comedy", batch)
            for batch in (items[:10], items[10:])
        )
        assert first == Dispatch(labels(range(1, 11), "TTTTFFTFTT"), 0.06)
        assert second == Dispatch(labels(range(12, 21), "FTTTFTFFF"), 0.06)  # 11 unanswered

    def test_identical_batches_reproduce_identical_answers(self, truth):
        # ... while re-asking the exact same batch deterministically
        # reproduces the same judgments, whatever order dispatches ran in.
        # This is the invariant concurrent acquisition rests on: answers
        # are a pure function of the request, not of scheduling.
        items = [(rowid, {"item_id": rowid}) for rowid in range(1, 11)]
        source = self.make_source(truth, seed=42)
        first_values = source.request_values_with_quality("is_comedy", items)
        second_values = source.request_values_with_quality("is_comedy", items)
        first, second = source.runs
        assert first_values == second_values
        assert [j.worker_id for j in first.judgments] == [
            j.worker_id for j in second.judgments
        ]


class TestQueryIntegration:
    def test_expansion_query_dispatches_coalesced_hit_groups(self, source, truth):
        conn = connect()
        conn.execute("CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO movies (item_id, name) VALUES (?, ?)",
            [(i, f"movie-{i}") for i in range(1, 21)],
        )
        conn.add_perceptual_column("movies", "is_comedy")
        conn.set_value_source(source)
        conn.set_policy(conn.policy.with_overrides(crowd_batch_size=10))

        (count,) = conn.execute(
            "SELECT count(*) FROM movies WHERE is_comedy = ?", (True,)
        ).fetchone()
        # 20 missing rows, batch_size 10 -> exactly 2 platform calls,
        # never one HIT dispatch per row.
        assert source.dispatches == 2
        # honest workers with majority vote recover most of the truth
        assert 0 < count <= 20
        filled = 20 - conn.missing_count("movies", "is_comedy")
        assert filled >= 15
        text = conn.explain_analyze("SELECT count(*) FROM movies WHERE is_comedy = true")
        assert "CrowdFill(batch_size=10)" in text
