"""Expansion policies: how missing attribute values are obtained.

Three strategies are modelled, matching the paper's evaluation:

* :class:`DirectCrowdPolicy` — the baseline: crowd-source a judgment for
  every tuple and majority-vote (Section 4.1).  Expensive, slow, and items
  nobody knows stay unclassified.
* :class:`PerceptualSpacePolicy` — the paper's approach: crowd-source a
  small gold sample, train the extractor on the perceptual space and fill
  every tuple from the model (Sections 3.4 / 4.2–4.3).
* :class:`HybridPolicy` — use the perceptual space where the item has
  coordinates and fall back to direct crowd-sourcing for items that are
  not covered by the rating corpus.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.extractor import PerceptualAttributeExtractor
from repro.core.gold_sample import GoldSampleCollector
from repro.crowd.aggregation import MajorityVote
from repro.crowd.hit import HITGroup, Question, make_task_items
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality_control import QualityControl
from repro.crowd.worker import WorkerPool
from repro.errors import ExpansionError
from repro.perceptual.space import PerceptualSpace


@dataclass
class PolicyResult:
    """Values produced by one expansion policy plus their cost accounting."""

    attribute: str
    values: dict[int, object]
    cost: float = 0.0
    minutes: float = 0.0
    judgments: int = 0
    details: dict[str, object] = field(default_factory=dict)

    @property
    def coverage_count(self) -> int:
        """Number of items for which a value was produced."""
        return len(self.values)


class ExpansionPolicy(abc.ABC):
    """Strategy interface for obtaining the values of a new attribute."""

    @abc.abstractmethod
    def expand(
        self,
        attribute: str,
        item_ids: Sequence[int],
        truth: Mapping[int, bool],
    ) -> PolicyResult:
        """Obtain boolean values of *attribute* for *item_ids*.

        *truth* drives the simulated crowd workers (it plays the role of the
        humans' actual knowledge); policies must not read it directly other
        than to pass it to the crowd simulator.
        """


class DirectCrowdPolicy(ExpansionPolicy):
    """Crowd-source every single value (the paper's baseline)."""

    def __init__(
        self,
        platform: CrowdPlatform,
        pool: WorkerPool,
        *,
        quality_control: QualityControl | None = None,
        judgments_per_item: int = 10,
        items_per_hit: int = 10,
        payment_per_hit: float = 0.02,
    ) -> None:
        self.platform = platform
        self.pool = pool
        self.quality_control = quality_control or QualityControl.none()
        self.judgments_per_item = judgments_per_item
        self.items_per_hit = items_per_hit
        self.payment_per_hit = payment_per_hit
        self.last_run = None

    def expand(
        self,
        attribute: str,
        item_ids: Sequence[int],
        truth: Mapping[int, bool],
    ) -> PolicyResult:
        """Dispatch one HIT group covering every item and majority-vote."""
        if not item_ids:
            raise ExpansionError("cannot expand an attribute for zero items")
        question = Question(
            attribute=attribute,
            prompt=f"Judge whether each item has the property {attribute!r}.",
        )
        group = HITGroup(
            question=question,
            items=make_task_items([int(i) for i in item_ids]),
            judgments_per_item=self.judgments_per_item,
            items_per_hit=self.items_per_hit,
            payment_per_hit=self.payment_per_hit,
        )
        run = self.platform.run_group(
            group, self.pool, quality_control=self.quality_control, truth=truth
        )
        self.last_run = run
        labels = MajorityVote().labels(run.judgments)
        return PolicyResult(
            attribute=attribute,
            values={int(item): bool(label) for item, label in labels.items()},
            cost=run.total_cost,
            minutes=run.completion_minutes,
            judgments=len(run.judgments),
            details={"n_workers": run.n_workers, "policy": "direct_crowd"},
        )


class PerceptualSpacePolicy(ExpansionPolicy):
    """Gold sample + perceptual-space extraction (the paper's approach)."""

    def __init__(
        self,
        space: PerceptualSpace,
        gold_collector: GoldSampleCollector,
        *,
        gold_sample_size: int = 100,
        extractor_C: float = 2.0,
    ) -> None:
        self.space = space
        self.gold_collector = gold_collector
        self.gold_sample_size = gold_sample_size
        self.extractor = PerceptualAttributeExtractor(space, C=extractor_C)
        self.last_gold_sample = None

    def expand(
        self,
        attribute: str,
        item_ids: Sequence[int],
        truth: Mapping[int, bool],
    ) -> PolicyResult:
        """Collect a gold sample, train the extractor and fill every item."""
        if not item_ids:
            raise ExpansionError("cannot expand an attribute for zero items")
        covered = [int(i) for i in item_ids if int(i) in self.space]
        if not covered:
            raise ExpansionError(
                "none of the items have perceptual-space coordinates; "
                "use DirectCrowdPolicy or HybridPolicy instead"
            )
        gold = self.gold_collector.collect_balanced(
            attribute, covered, truth, sample_size=self.gold_sample_size
        )
        self.last_gold_sample = gold
        if not gold.is_balanced():
            raise ExpansionError(
                f"gold sample for {attribute!r} is one-sided "
                f"({len(gold.positive_ids)} positive / {len(gold.negative_ids)} negative)"
            )
        extraction = self.extractor.extract_boolean(attribute, gold.labels, target_items=covered)
        return PolicyResult(
            attribute=attribute,
            values=dict(extraction.values),
            cost=gold.cost,
            minutes=gold.minutes,
            judgments=gold.judgments_used,
            details={
                "policy": "perceptual_space",
                "gold_sample_size": len(gold),
                "model": extraction.model_kind,
            },
        )


class HybridPolicy(ExpansionPolicy):
    """Perceptual-space extraction where possible, direct crowd elsewhere."""

    def __init__(
        self,
        space_policy: PerceptualSpacePolicy,
        crowd_policy: DirectCrowdPolicy,
    ) -> None:
        self.space_policy = space_policy
        self.crowd_policy = crowd_policy

    def expand(
        self,
        attribute: str,
        item_ids: Sequence[int],
        truth: Mapping[int, bool],
    ) -> PolicyResult:
        """Split items by space coverage and combine both policies' results."""
        ids = [int(i) for i in item_ids]
        covered = [i for i in ids if i in self.space_policy.space]
        uncovered = [i for i in ids if i not in self.space_policy.space]

        values: dict[int, object] = {}
        cost = minutes = 0.0
        judgments = 0
        details: dict[str, object] = {"policy": "hybrid", "covered": len(covered), "uncovered": len(uncovered)}

        if covered:
            space_result = self.space_policy.expand(attribute, covered, truth)
            values.update(space_result.values)
            cost += space_result.cost
            minutes += space_result.minutes
            judgments += space_result.judgments
        if uncovered:
            crowd_result = self.crowd_policy.expand(attribute, uncovered, truth)
            values.update(crowd_result.values)
            cost += crowd_result.cost
            # Crowd work for uncovered items proceeds in parallel with the
            # gold-sample collection, so wall-clock time is the maximum.
            minutes = max(minutes, crowd_result.minutes)
            judgments += crowd_result.judgments

        return PolicyResult(
            attribute=attribute,
            values=values,
            cost=cost,
            minutes=minutes,
            judgments=judgments,
            details=details,
        )
