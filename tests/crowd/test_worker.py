"""Tests for simulated worker behaviour and worker pools."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.crowd.hit import Answer, Question, TaskItem
from repro.crowd.worker import (
    SPAM_COUNTRIES,
    WorkerArchetype,
    WorkerPool,
    WorkerProfile,
    make_expert_worker,
    make_honest_worker,
    make_lookup_worker,
    make_spam_worker,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def judge_many(worker: WorkerProfile, question: Question, truth: bool, rng, n: int = 400):
    item = TaskItem(1)
    return [worker.judge(item, question, Answer.from_bool(truth), rng) for _ in range(n)]


class TestWorkerProfileValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            WorkerProfile(worker_id=1, archetype=WorkerArchetype.HONEST, accuracy=1.5)
        with pytest.raises(ValueError):
            WorkerProfile(worker_id=1, archetype=WorkerArchetype.HONEST, knowledge_prob=-0.1)

    def test_speed_bounds(self):
        with pytest.raises(ValueError):
            WorkerProfile(worker_id=1, archetype=WorkerArchetype.HONEST, minutes_per_hit=0)
        with pytest.raises(ValueError):
            WorkerProfile(worker_id=1, archetype=WorkerArchetype.HONEST, session_hits=0)

    def test_claimed_knowledge_defaults_to_knowledge(self):
        worker = WorkerProfile(worker_id=1, archetype=WorkerArchetype.HONEST, knowledge_prob=0.3)
        assert worker.claimed_knowledge_prob == pytest.approx(0.3)


class TestWorkerBehaviour:
    def test_honest_worker_often_says_dont_know(self, rng):
        worker = make_honest_worker(1, rng)
        question = Question("is_comedy", allow_dont_know=True)
        answers = judge_many(worker, question, True, rng)
        dont_know_rate = answers.count(Answer.DONT_KNOW) / len(answers)
        assert dont_know_rate > 0.5

    def test_spammer_rarely_says_dont_know(self, rng):
        worker = make_spam_worker(1, rng)
        question = Question("is_comedy", allow_dont_know=True)
        answers = judge_many(worker, question, True, rng)
        dont_know_rate = answers.count(Answer.DONT_KNOW) / len(answers)
        assert dont_know_rate < 0.15

    def test_spammer_answers_do_not_track_truth(self, rng):
        worker = make_spam_worker(1, rng)
        question = Question("is_comedy", allow_dont_know=True)
        positive_when_true = judge_many(worker, question, True, rng).count(Answer.POSITIVE)
        positive_when_false = judge_many(worker, question, False, rng).count(Answer.POSITIVE)
        assert abs(positive_when_true - positive_when_false) < 120

    def test_lookup_worker_is_accurate(self, rng):
        worker = make_lookup_worker(1, rng)
        question = Question("is_comedy", allow_dont_know=False, lookup_allowed=True)
        answers = judge_many(worker, question, True, rng)
        accuracy = answers.count(Answer.POSITIVE) / len(answers)
        assert accuracy > 0.85

    def test_expert_is_trusted_and_accurate(self, rng):
        worker = make_expert_worker(1, rng)
        assert worker.trusted
        question = Question("is_comedy", allow_dont_know=True)
        answers = judge_many(worker, question, False, rng)
        informative = [a for a in answers if a is not Answer.DONT_KNOW]
        accuracy = informative.count(Answer.NEGATIVE) / len(informative)
        assert accuracy > 0.85

    def test_no_dont_know_when_not_allowed(self, rng):
        worker = make_honest_worker(1, rng)
        question = Question("is_comedy", allow_dont_know=False, lookup_allowed=True)
        answers = judge_many(worker, question, True, rng, n=100)
        assert Answer.DONT_KNOW not in answers

    def test_durations_positive_and_scale_with_speed(self, rng):
        fast = WorkerProfile(worker_id=1, archetype=WorkerArchetype.SPAMMER, minutes_per_hit=0.5)
        slow = WorkerProfile(worker_id=2, archetype=WorkerArchetype.LOOKUP, minutes_per_hit=5.0)
        fast_mean = np.mean([fast.draw_hit_duration(rng) for _ in range(200)])
        slow_mean = np.mean([slow.draw_hit_duration(rng) for _ in range(200)])
        assert fast_mean > 0
        assert slow_mean > 3 * fast_mean

    def test_session_length_positive(self, rng):
        worker = make_honest_worker(1, rng)
        assert all(worker.draw_session_length(rng) >= 1 for _ in range(50))


class TestWorkerPool:
    def test_build_counts(self):
        pool = WorkerPool.build(n_honest=5, n_spammers=3, n_lookup=2, n_experts=1, seed=1)
        counts = Counter(worker.archetype for worker in pool)
        assert counts[WorkerArchetype.HONEST] == 5
        assert counts[WorkerArchetype.SPAMMER] == 3
        assert counts[WorkerArchetype.LOOKUP] == 2
        assert counts[WorkerArchetype.EXPERT] == 1
        assert len(pool) == 11

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_worker_ids_unique(self):
        pool = WorkerPool.build(n_honest=10, n_spammers=10, seed=2)
        ids = [worker.worker_id for worker in pool]
        assert len(set(ids)) == len(ids)

    def test_without_countries_removes_spam_countries(self):
        pool = WorkerPool.build(n_honest=10, n_spammers=10, seed=3)
        filtered = pool.without_countries(SPAM_COUNTRIES)
        assert all(worker.country not in SPAM_COUNTRIES for worker in filtered)
        assert len(filtered) < len(pool)

    def test_only_trusted(self):
        pool = WorkerPool.build(n_honest=5, n_experts=3, seed=4)
        trusted = pool.only_trusted()
        assert len(trusted) == 3
        assert all(worker.trusted for worker in trusted)

    def test_filter_that_removes_everyone_raises(self):
        pool = WorkerPool.build(n_honest=3, seed=5)
        with pytest.raises(ValueError):
            pool.filter(lambda worker: False)

    def test_arrival_order_is_permutation_and_deterministic(self):
        pool = WorkerPool.build(n_honest=8, seed=6)
        first = pool.arrival_order(seed=1)
        second = pool.arrival_order(seed=1)
        assert [w.worker_id for w in first] == [w.worker_id for w in second]
        assert sorted(w.worker_id for w in first) == sorted(w.worker_id for w in pool)

    def test_reproducible_build(self):
        first = WorkerPool.build(n_honest=5, n_spammers=5, seed=9)
        second = WorkerPool.build(n_honest=5, n_spammers=5, seed=9)
        assert [w.accuracy for w in first] == [w.accuracy for w in second]
