"""Tests for quality-control policies (country filter, gold questions, composition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.hit import Answer, Judgment, TaskItem
from repro.crowd.quality_control import (
    CountryFilter,
    GoldQuestionPolicy,
    QualityControl,
    QualityPolicy,
)
from repro.crowd.worker import SPAM_COUNTRIES, WorkerPool, make_expert_worker, make_honest_worker


class TrustedOnly(QualityPolicy):
    """A pool filter keeping only trusted workers."""

    def filter_pool(self, pool: WorkerPool) -> WorkerPool:
        return pool.only_trusted()


def gold_item(item_id: int, answer: Answer) -> TaskItem:
    return TaskItem(item_id=item_id, is_gold=True, gold_answer=answer)


def judgment(item_id: int, worker_id: int, answer: Answer, *, is_gold: bool = True) -> Judgment:
    return Judgment(
        item_id=item_id,
        worker_id=worker_id,
        answer=answer,
        hit_id=1,
        timestamp_minutes=0.0,
        is_gold=is_gold,
    )


class TestCountryFilter:
    def test_excludes_countries(self):
        pool = WorkerPool.build(n_honest=10, n_spammers=10, seed=0)
        filtered = CountryFilter(SPAM_COUNTRIES).filter_pool(pool)
        assert all(worker.country not in SPAM_COUNTRIES for worker in filtered)

    def test_case_insensitive(self):
        pool = WorkerPool.build(n_honest=10, n_spammers=10, seed=0)
        filtered = CountryFilter([c.lower() for c in SPAM_COUNTRIES]).filter_pool(pool)
        assert all(worker.country not in SPAM_COUNTRIES for worker in filtered)


class TestGoldQuestionPolicy:
    def test_bans_after_max_errors(self):
        rng = np.random.default_rng(0)
        worker = make_honest_worker(1, rng)
        policy = GoldQuestionPolicy(max_gold_errors=2)
        item = gold_item(1, Answer.POSITIVE)
        policy.on_judgment(worker, item, judgment(1, worker.worker_id, Answer.NEGATIVE))
        assert not policy.is_banned(worker.worker_id)
        policy.on_judgment(worker, item, judgment(1, worker.worker_id, Answer.NEGATIVE))
        assert policy.is_banned(worker.worker_id)
        assert worker.worker_id in policy.banned_workers

    def test_correct_answers_do_not_count(self):
        rng = np.random.default_rng(0)
        worker = make_expert_worker(2, rng)
        policy = GoldQuestionPolicy(max_gold_errors=1)
        policy.on_judgment(worker, gold_item(1, Answer.POSITIVE), judgment(1, 2, Answer.POSITIVE))
        assert not policy.is_banned(2)

    def test_dont_know_does_not_count(self):
        rng = np.random.default_rng(0)
        worker = make_honest_worker(3, rng)
        policy = GoldQuestionPolicy(max_gold_errors=1)
        policy.on_judgment(worker, gold_item(1, Answer.POSITIVE), judgment(1, 3, Answer.DONT_KNOW))
        assert not policy.is_banned(3)

    def test_non_gold_items_ignored(self):
        rng = np.random.default_rng(0)
        worker = make_honest_worker(4, rng)
        policy = GoldQuestionPolicy(max_gold_errors=1)
        policy.on_judgment(
            worker, TaskItem(1), judgment(1, 4, Answer.NEGATIVE, is_gold=False)
        )
        assert not policy.is_banned(4)

    def test_error_counts_tracked_per_worker(self):
        rng = np.random.default_rng(0)
        first = make_honest_worker(5, rng)
        second = make_honest_worker(6, rng)
        policy = GoldQuestionPolicy(max_gold_errors=2)
        item = gold_item(1, Answer.POSITIVE)
        policy.on_judgment(first, item, judgment(1, 5, Answer.NEGATIVE))
        policy.on_judgment(second, item, judgment(1, 6, Answer.NEGATIVE))
        assert policy.banned_workers == frozenset()
        policy.on_judgment(first, item, judgment(1, 5, Answer.NEGATIVE))
        assert policy.banned_workers == {5}


class TestCompositeQualityControl:
    def test_none_is_noop(self):
        pool = WorkerPool.build(n_honest=3, seed=0)
        control = QualityControl.none()
        assert control.filter_pool(pool) is pool
        assert not control.is_banned(1)

    def test_policies_compose(self):
        pool = WorkerPool.build(n_honest=5, n_spammers=5, n_experts=2, seed=0)
        control = QualityControl([CountryFilter(SPAM_COUNTRIES)]).add(TrustedOnly())
        filtered = control.filter_pool(pool)
        assert all(worker.trusted for worker in filtered)
        assert len(control.policies) == 2

    def test_ban_from_any_policy(self):
        rng = np.random.default_rng(0)
        worker = make_honest_worker(9, rng)
        gold_policy = GoldQuestionPolicy(max_gold_errors=1)
        control = QualityControl([CountryFilter(["XX"]), gold_policy])
        control.on_judgment(worker, gold_item(1, Answer.POSITIVE), judgment(1, 9, Answer.NEGATIVE))
        assert control.is_banned(9)

    def test_pool_filter_that_empties_raises(self):
        pool = WorkerPool.build(n_honest=3, seed=0)
        control = QualityControl([TrustedOnly()])
        with pytest.raises(ValueError):
            control.filter_pool(pool)
