"""Tests for HITs, HIT groups, questions and judgments."""

from __future__ import annotations

import pytest

from repro.crowd.hit import (
    HIT,
    Answer,
    HITGroup,
    Judgment,
    Question,
    TaskItem,
    make_task_items,
)
from repro.errors import HITConfigurationError


class TestAnswer:
    def test_from_bool(self):
        assert Answer.from_bool(True) is Answer.POSITIVE
        assert Answer.from_bool(False) is Answer.NEGATIVE


class TestHIT:
    def test_empty_hit_rejected(self):
        with pytest.raises(HITConfigurationError):
            HIT(hit_id=1, question=Question("x"), items=(), payment=0.02)

    def test_negative_payment_rejected(self):
        with pytest.raises(HITConfigurationError):
            HIT(hit_id=1, question=Question("x"), items=(TaskItem(1),), payment=-1)

    def test_len_and_gold_items(self):
        items = (
            TaskItem(1),
            TaskItem(2, is_gold=True, gold_answer=Answer.POSITIVE),
        )
        hit = HIT(hit_id=1, question=Question("x"), items=items, payment=0.02)
        assert len(hit) == 2
        assert [item.item_id for item in hit.items if item.is_gold] == [2]


class TestHITGroup:
    def make_group(self, n_items: int = 25, **kwargs) -> HITGroup:
        defaults = dict(judgments_per_item=3, items_per_hit=10, payment_per_hit=0.02)
        defaults.update(kwargs)
        return HITGroup(question=Question("is_comedy"), items=make_task_items(range(1, n_items + 1)), **defaults)

    def test_build_hits_partitions_items(self):
        hits = self.make_group(25).build_hits()
        assert [len(hit) for hit in hits] == [10, 10, 5]
        assert {item.item_id for hit in hits for item in hit.items} == set(range(1, 26))

    def test_hit_ids_are_unique(self):
        hits = self.make_group(30).build_hits()
        assert len({hit.hit_id for hit in hits}) == len(hits)

    def test_totals(self):
        group = self.make_group(25)
        assert group.total_assignments == 3 * 3
        assert group.total_judgments == 25 * 3
        assert group.max_cost == pytest.approx(9 * 0.02)

    def test_invalid_configuration(self):
        with pytest.raises(HITConfigurationError):
            self.make_group(judgments_per_item=0)
        with pytest.raises(HITConfigurationError):
            self.make_group(items_per_hit=0)
        with pytest.raises(HITConfigurationError):
            HITGroup(question=Question("x"), items=[])

    def test_make_task_items_with_gold(self):
        items = make_task_items([1, 2, 3], gold_answers={2: Answer.NEGATIVE})
        assert items[1].is_gold
        assert items[1].gold_answer is Answer.NEGATIVE
        assert not items[0].is_gold

    def test_make_task_items_with_payloads(self):
        items = make_task_items([1], payloads={1: {"name": "Rocky"}})
        assert items[0].payload == {"name": "Rocky"}


class TestJudgment:
    def test_informative(self):
        keep = Judgment(item_id=1, worker_id=2, answer=Answer.POSITIVE, hit_id=1, timestamp_minutes=1.0)
        skip = Judgment(item_id=1, worker_id=2, answer=Answer.DONT_KNOW, hit_id=1, timestamp_minutes=1.0)
        assert keep.informative
        assert not skip.informative
