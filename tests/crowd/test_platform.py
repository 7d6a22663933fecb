"""Tests for the discrete-event crowd platform simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.aggregation import score_against_truth
from repro.crowd.hit import Answer, HITGroup, Question, make_task_items
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality_control import CountryFilter, GoldQuestionPolicy, QualityControl
from repro.crowd.worker import SPAM_COUNTRIES, WorkerPool
from repro.errors import NoWorkersAvailableError


@pytest.fixture(scope="module")
def truth() -> dict[int, bool]:
    rng = np.random.default_rng(5)
    return {i: bool(rng.random() < 0.3) for i in range(1, 101)}


@pytest.fixture(scope="module")
def group(truth) -> HITGroup:
    return HITGroup(
        question=Question("is_comedy", allow_dont_know=True),
        items=make_task_items(sorted(truth)),
        judgments_per_item=5,
        items_per_hit=10,
        payment_per_hit=0.02,
    )


@pytest.fixture(scope="module")
def pool() -> WorkerPool:
    return WorkerPool.build(n_honest=20, n_spammers=20, seed=3)


@pytest.fixture(scope="module")
def run(group, pool, truth):
    platform = CrowdPlatform(seed=11)
    return platform.run_group(group, pool, truth=truth)


class TestRunMechanics:
    def test_all_assignments_completed(self, run, group):
        assert run.assignments_requested == 10 * 5
        assert run.assignments_completed == run.assignments_requested

    def test_judgment_count_matches_assignments(self, run, group):
        assert len(run.judgments) == run.assignments_completed * group.items_per_hit

    def test_judgments_sorted_by_time(self, run):
        times = [j.timestamp_minutes for j in run.judgments]
        assert times == sorted(times)

    def test_each_item_receives_required_votes(self, run, truth):
        per_item = {}
        for j in run.judgments:
            per_item[j.item_id] = per_item.get(j.item_id, 0) + 1
        assert set(per_item) == set(truth)
        assert all(count == 5 for count in per_item.values())

    def test_distinct_workers_per_hit(self, run):
        seen: dict[tuple[int, int], int] = {}
        for j in run.judgments:
            key = (j.hit_id, j.worker_id)
            seen[key] = seen.get(key, 0) + 1
        # A worker may do a HIT only once, so each (hit, worker) pair appears
        # exactly items_per_hit times.
        assert all(count == 10 for count in seen.values())

    def test_cost_accounting(self, run):
        assert run.total_cost == pytest.approx(run.assignments_completed * 0.02)
        assert run.cost_until(run.completion_minutes) == pytest.approx(run.total_cost)
        assert run.cost_until(0.0) == 0.0

    def test_completion_time_positive(self, run):
        assert run.completion_minutes > 0

    def test_judgments_until_is_prefix(self, run):
        half = run.completion_minutes / 2
        prefix = run.judgments_until(half)
        assert len(prefix) < len(run.judgments)
        assert all(j.timestamp_minutes <= half for j in prefix)

    def test_reproducible_with_same_seed(self, group, pool, truth):
        first = CrowdPlatform(seed=42).run_group(group, pool, truth=truth)
        second = CrowdPlatform(seed=42).run_group(group, pool, truth=truth)
        assert first.total_cost == second.total_cost
        assert [j.answer for j in first.judgments] == [j.answer for j in second.judgments]

    def test_different_seeds_differ(self, group, pool, truth):
        first = CrowdPlatform(seed=1).run_group(group, pool, truth=truth)
        second = CrowdPlatform(seed=2).run_group(group, pool, truth=truth)
        assert [j.answer for j in first.judgments] != [j.answer for j in second.judgments]

    def test_invalid_interarrival(self):
        with pytest.raises(ValueError):
            CrowdPlatform(worker_interarrival_minutes=0)


class TestQualityIntegration:
    def test_country_filter_improves_accuracy(self, group, pool, truth):
        platform = CrowdPlatform(seed=7)
        unfiltered = platform.run_group(group, pool, truth=truth)
        filtered = platform.run_group(
            group, pool, quality_control=QualityControl([CountryFilter(SPAM_COUNTRIES)]), truth=truth
        )
        unfiltered_report = score_against_truth(unfiltered.majority_outcomes(), truth)
        filtered_report = score_against_truth(filtered.majority_outcomes(), truth)
        assert filtered_report.accuracy_on_classified > unfiltered_report.accuracy_on_classified

    def test_all_workers_filtered_raises(self, group, truth):
        spam_only = WorkerPool.build(n_spammers=5, seed=1)
        platform = CrowdPlatform(seed=7)
        with pytest.raises(NoWorkersAvailableError):
            platform.run_group(
                group,
                spam_only,
                quality_control=QualityControl([CountryFilter(SPAM_COUNTRIES)]),
                truth=truth,
            )

    def test_gold_questions_ban_spammers(self, truth):
        gold_ids = list(truth)[:10]
        gold_answers = {i: Answer.from_bool(truth[i]) for i in gold_ids}
        group = HITGroup(
            question=Question("is_comedy", allow_dont_know=False, lookup_allowed=True),
            items=make_task_items(sorted(truth), gold_answers=gold_answers),
            judgments_per_item=5,
            items_per_hit=10,
        )
        # Spammers "look up" with only 60% accuracy, so they fail gold items.
        pool = WorkerPool.build(n_spammers=15, n_lookup=15, seed=2)
        policy = GoldQuestionPolicy(max_gold_errors=2)
        platform = CrowdPlatform(seed=3)
        run = platform.run_group(
            group, pool, quality_control=QualityControl([policy]), truth=truth
        )
        assert len(run.banned_workers) > 0

    def test_max_minutes_limits_run(self, group, pool, truth):
        platform = CrowdPlatform(seed=11)
        run = platform.run_group(group, pool, truth=truth, max_minutes=5.0)
        assert run.completion_minutes <= 5.0
        assert run.assignments_completed < run.assignments_requested

    def test_majority_labels_shortcut(self, run, truth):
        labels = run.majority_labels()
        outcomes = run.majority_outcomes()
        assert set(labels) == {i for i, o in outcomes.items() if o.label is not None}
