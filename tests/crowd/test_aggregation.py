"""Tests for judgment aggregation (majority vote, accuracy-weighted vote, scoring)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crowd.aggregation import (
    AccuracyWeightedVote,
    MajorityVote,
    group_judgments,
    score_against_truth,
)
from repro.crowd.hit import Answer, Judgment
from repro.crowd.worker_quality import WorkerQualityTracker


def judgment(item_id: int, worker_id: int, answer: Answer) -> Judgment:
    return Judgment(
        item_id=item_id,
        worker_id=worker_id,
        answer=answer,
        hit_id=1,
        timestamp_minutes=1.0,
    )


def votes(item_id: int, positives: int, negatives: int, dont_know: int = 0) -> list[Judgment]:
    result = []
    worker = 1
    for _ in range(positives):
        result.append(judgment(item_id, worker, Answer.POSITIVE))
        worker += 1
    for _ in range(negatives):
        result.append(judgment(item_id, worker, Answer.NEGATIVE))
        worker += 1
    for _ in range(dont_know):
        result.append(judgment(item_id, worker, Answer.DONT_KNOW))
        worker += 1
    return result


class TestMajorityVote:
    def test_clear_majorities(self):
        outcomes = MajorityVote().aggregate(votes(1, 6, 4) + votes(2, 1, 9))
        assert outcomes[1].label is True
        assert outcomes[2].label is False

    def test_tie_is_unclassified(self):
        outcome = MajorityVote().aggregate_item(1, votes(1, 5, 5))
        assert outcome.label is None
        assert not outcome.classified

    def test_dont_know_is_ignored(self):
        outcome = MajorityVote().aggregate_item(1, votes(1, 2, 1, dont_know=7))
        assert outcome.label is True
        assert outcome.dont_know_votes == 7

    def test_only_dont_know_is_unclassified(self):
        outcome = MajorityVote().aggregate_item(1, votes(1, 0, 0, dont_know=10))
        assert outcome.label is None

    def test_minimum_votes(self):
        aggregator = MajorityVote(minimum_votes=3)
        assert aggregator.aggregate_item(1, votes(1, 2, 0)).label is None
        assert aggregator.aggregate_item(1, votes(1, 3, 0)).label is True

    def test_minimum_votes_validation(self):
        with pytest.raises(ValueError):
            MajorityVote(minimum_votes=0)

    def test_quorum_counts_informative_votes_only(self):
        # Regression pin: a pile of "don't know" answers must never
        # satisfy the quorum — only positive/negative votes count toward
        # minimum_votes.
        aggregator = MajorityVote(minimum_votes=3)
        assert aggregator.aggregate_item(1, votes(1, 2, 0, dont_know=10)).label is None
        assert aggregator.aggregate_item(1, votes(1, 2, 1, dont_know=10)).label is True

    def test_labels_only_returns_classified(self):
        labels = MajorityVote().labels(votes(1, 3, 1) + votes(2, 2, 2))
        assert labels == {1: True}

    def test_group_judgments(self):
        grouped = group_judgments(votes(1, 1, 0) + votes(2, 0, 1))
        assert set(grouped) == {1, 2}


class TestAccuracyWeightedVote:
    def test_cold_start_matches_flat_majority(self):
        # With no per-worker knowledge every weight is equal, so the label
        # is exactly the flat majority label on any vote split.
        for positives, negatives, dont_know in [(3, 1, 0), (1, 3, 2), (2, 2, 1), (0, 0, 4)]:
            judgments = votes(1, positives, negatives, dont_know)
            weighted = AccuracyWeightedVote().aggregate_item(1, judgments)
            flat = MajorityVote().aggregate_item(1, judgments)
            assert weighted.label == flat.label

    def test_tracker_weights_can_flip_decision(self):
        tracker = WorkerQualityTracker()
        # Workers 1 and 2 (voting POSITIVE) are known-bad; worker 3
        # (voting NEGATIVE) is known-good.
        for _ in range(20):
            tracker.observe_gold(1, False)
            tracker.observe_gold(2, False)
            tracker.observe_gold(3, True)
        judgments = votes(1, 2, 1)
        assert MajorityVote().aggregate_item(1, judgments).label is True
        outcome = AccuracyWeightedVote(tracker).aggregate_item(1, judgments)
        assert outcome.label is False
        assert outcome.confidence > 0.5

    def test_confidence_grows_with_agreement(self):
        vote = AccuracyWeightedVote()
        few = vote.aggregate_item(1, votes(1, 2, 0))
        many = vote.aggregate_item(1, votes(1, 5, 0))
        assert many.confidence > few.confidence > 0.5

    def test_tie_has_half_confidence(self):
        outcome = AccuracyWeightedVote().aggregate_item(1, votes(1, 2, 2))
        assert outcome.label is None
        assert outcome.confidence == pytest.approx(0.5)

    def test_quorum_counts_informative_votes_only(self):
        # Same quorum semantics as MajorityVote: "don't know" answers do
        # not count toward minimum_votes, and a missed quorum reports
        # zero confidence.
        vote = AccuracyWeightedVote(minimum_votes=3)
        outcome = vote.aggregate_item(1, votes(1, 2, 0, dont_know=10))
        assert outcome.label is None
        assert outcome.confidence == 0.0
        assert vote.aggregate_item(1, votes(1, 2, 1, dont_know=10)).label is True

    def test_accuracy_sources(self):
        mapping = AccuracyWeightedVote({1: 0.95}, default_accuracy=0.6)
        assert mapping.accuracy_of(1) == pytest.approx(0.95)
        assert mapping.accuracy_of(2) == pytest.approx(0.6)
        fn = AccuracyWeightedVote(lambda worker_id: 0.8)
        assert fn.accuracy_of(7) == pytest.approx(0.8)
        with pytest.raises(TypeError):
            AccuracyWeightedVote(42)

    def test_extreme_estimates_are_clamped(self):
        vote = AccuracyWeightedVote({1: 1.0, 2: 0.0})
        assert 0.0 < vote.accuracy_of(1) < 1.0
        assert 0.0 < vote.accuracy_of(2) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyWeightedVote(minimum_votes=0)
        with pytest.raises(ValueError):
            AccuracyWeightedVote(default_accuracy=1.0)

    def test_labels_only_returns_classified(self):
        labels = AccuracyWeightedVote().labels(votes(1, 3, 1) + votes(2, 2, 2))
        assert labels == {1: True}

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_cold_start_equivalence_property(self, positives, negatives, dont_know):
        judgments = votes(1, positives, negatives, dont_know)
        weighted = AccuracyWeightedVote().aggregate_item(1, judgments)
        flat = MajorityVote().aggregate_item(1, judgments)
        assert weighted.label == flat.label
        assert 0.0 <= weighted.confidence <= 1.0


class TestScoring:
    def test_score_against_truth(self):
        outcomes = MajorityVote().aggregate(votes(1, 5, 1) + votes(2, 1, 5) + votes(3, 3, 3))
        truth = {1: True, 2: True, 3: False, 4: False}
        report = score_against_truth(outcomes, truth)
        assert report.n_items == 4
        assert report.n_classified == 2
        assert report.n_correct == 1
        assert report.coverage == pytest.approx(0.5)
        assert report.accuracy_on_classified == pytest.approx(0.5)

    def test_empty_truth(self):
        report = score_against_truth({}, {})
        assert report.coverage == 0.0
        assert report.accuracy_on_classified == 0.0


class TestMajorityVoteProperties:
    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_label_follows_strict_majority(self, positives, negatives, dont_know):
        outcome = MajorityVote().aggregate_item(1, votes(1, positives, negatives, dont_know))
        if positives > negatives:
            assert outcome.label is True
        elif negatives > positives:
            assert outcome.label is False
        else:
            assert outcome.label is None

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_vote_counts_preserved(self, positives, negatives):
        outcome = MajorityVote().aggregate_item(1, votes(1, positives, negatives))
        assert outcome.positive_votes == positives
        assert outcome.negative_votes == negatives
