"""Tests for the expansion policies (direct crowd, perceptual space, hybrid)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gold_sample import GoldSampleCollector
from repro.core.policies import DirectCrowdPolicy, HybridPolicy, PerceptualSpacePolicy
from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker import WorkerPool
from repro.errors import ExpansionError
from repro.perceptual.space import PerceptualSpace


@pytest.fixture(scope="module")
def space() -> PerceptualSpace:
    rng = np.random.default_rng(2)
    positives = rng.normal(2.0, 0.5, size=(40, 5))
    negatives = rng.normal(0.0, 0.5, size=(110, 5))
    return PerceptualSpace(list(range(1, 151)), np.vstack([positives, negatives]))


@pytest.fixture(scope="module")
def truth() -> dict[int, bool]:
    return {i: i <= 40 for i in range(1, 151)}


@pytest.fixture()
def platform() -> CrowdPlatform:
    return CrowdPlatform(seed=3)


@pytest.fixture()
def pool() -> WorkerPool:
    return WorkerPool.build(n_honest=20, n_experts=10, n_spammers=10, seed=3)


class TestDirectCrowdPolicy:
    def test_expansion_covers_most_items(self, platform, pool, truth):
        policy = DirectCrowdPolicy(platform, pool, judgments_per_item=7)
        result = policy.expand("is_positive", sorted(truth), truth)
        assert result.coverage_count > 0.5 * len(truth)
        assert result.cost > 0
        assert result.judgments == pytest.approx(result.details.get("n_workers", 0), abs=10**9)
        accuracy = np.mean([truth[i] == v for i, v in result.values.items()])
        assert accuracy > 0.6

    def test_empty_items_rejected(self, platform, pool, truth):
        policy = DirectCrowdPolicy(platform, pool)
        with pytest.raises(ExpansionError):
            policy.expand("x", [], truth)


class TestPerceptualSpacePolicy:
    def test_full_coverage_and_low_cost(self, platform, pool, space, truth):
        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=4)
        space_policy = PerceptualSpacePolicy(space, collector, gold_sample_size=50)
        crowd_policy = DirectCrowdPolicy(platform, pool, judgments_per_item=10)

        space_result = space_policy.expand("is_positive", sorted(truth), truth)
        crowd_result = crowd_policy.expand("is_positive", sorted(truth), truth)

        assert space_result.coverage_count == len(truth)
        assert space_result.cost < crowd_result.cost
        accuracy = np.mean([truth[i] == v for i, v in space_result.values.items()])
        assert accuracy > 0.8
        assert space_policy.last_gold_sample is not None

    def test_rejects_items_outside_space(self, platform, pool, space, truth):
        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=4)
        policy = PerceptualSpacePolicy(space, collector)
        with pytest.raises(ExpansionError):
            policy.expand("x", [9000, 9001], truth)

    def test_empty_items_rejected(self, platform, pool, space, truth):
        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=4)
        policy = PerceptualSpacePolicy(space, collector)
        with pytest.raises(ExpansionError):
            policy.expand("x", [], truth)


class TestHybridPolicy:
    def test_combines_space_and_crowd(self, platform, pool, space, truth):
        collector = GoldSampleCollector(platform, pool.only_trusted(), seed=5)
        space_policy = PerceptualSpacePolicy(space, collector, gold_sample_size=40)
        crowd_policy = DirectCrowdPolicy(platform, pool, judgments_per_item=5)
        hybrid = HybridPolicy(space_policy, crowd_policy)

        # Items 200-219 are not in the space and must go through the crowd.
        extended_truth = dict(truth)
        extended_truth.update({i: False for i in range(200, 220)})
        result = hybrid.expand("is_positive", sorted(extended_truth), extended_truth)

        assert result.details["covered"] == len(truth)
        assert result.details["uncovered"] == 20
        assert result.coverage_count > len(truth)
        covered_in_space = [i for i in result.values if i in space]
        assert len(covered_in_space) == len(truth)
