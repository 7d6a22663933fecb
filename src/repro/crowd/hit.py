"""HITs (Human Intelligence Tasks), questions, answers and judgments.

Terminology follows the paper: a *HIT* is the smallest unit of
crowd-sourceable work (here: judge a batch of items on one question), many
similar HITs are organised into a *HIT group*, and each completed item
judgment by one worker is recorded as a :class:`Judgment`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import HITConfigurationError


class Answer(enum.Enum):
    """Possible answers to a binary perceptual classification question."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    DONT_KNOW = "dont_know"

    @classmethod
    def from_bool(cls, value: bool) -> "Answer":
        """Map a boolean ground-truth label to the corresponding answer."""
        return cls.POSITIVE if value else cls.NEGATIVE


@dataclass(frozen=True)
class Question:
    """The question asked in a HIT.

    Parameters
    ----------
    attribute:
        Name of the attribute being judged (e.g. ``is_comedy``).
    prompt:
        Instruction text shown to the worker.
    allow_dont_know:
        Whether the "I do not know this item" option is offered.  Removing
        it (as in the paper's Experiment 3) forces workers to answer, which
        only makes sense for lookup-style factual tasks.
    lookup_allowed:
        Whether workers are instructed to look up the answer on the Web.
    """

    attribute: str
    prompt: str = ""
    allow_dont_know: bool = True
    lookup_allowed: bool = False


@dataclass(frozen=True)
class TaskItem:
    """One item to be judged inside a HIT."""

    item_id: int
    payload: dict[str, Any] = field(default_factory=dict)
    is_gold: bool = False
    gold_answer: Answer | None = None


@dataclass
class HIT:
    """A batch of task items judged together by a single worker assignment."""

    hit_id: int
    question: Question
    items: tuple[TaskItem, ...]
    payment: float

    def __post_init__(self) -> None:
        if not self.items:
            raise HITConfigurationError(f"HIT {self.hit_id} contains no items")
        if self.payment < 0:
            raise HITConfigurationError(f"HIT {self.hit_id} has negative payment")

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Judgment:
    """One answer given by one worker to one item of a HIT assignment."""

    item_id: int
    worker_id: int
    answer: Answer
    hit_id: int
    timestamp_minutes: float
    is_gold: bool = False

    @property
    def informative(self) -> bool:
        """True unless the worker declined to judge the item."""
        return self.answer is not Answer.DONT_KNOW


@dataclass
class HITGroup:
    """A group of HITs covering a set of items with repeated judgments.

    The group asks *question* about every item in *items*; each item must be
    judged by ``judgments_per_item`` distinct workers, and items are bundled
    into HITs of ``items_per_hit``.
    """

    question: Question
    items: Sequence[TaskItem]
    judgments_per_item: int = 10
    items_per_hit: int = 10
    payment_per_hit: float = 0.02

    def __post_init__(self) -> None:
        if self.judgments_per_item <= 0:
            raise HITConfigurationError("judgments_per_item must be positive")
        if self.items_per_hit <= 0:
            raise HITConfigurationError("items_per_hit must be positive")
        if not self.items:
            raise HITConfigurationError("a HIT group needs at least one item")

    def build_hits(self) -> list[HIT]:
        """Partition the items into HITs of ``items_per_hit`` each."""
        hits: list[HIT] = []
        counter = itertools.count(1)
        batch: list[TaskItem] = []
        for item in self.items:
            batch.append(item)
            if len(batch) == self.items_per_hit:
                hits.append(
                    HIT(
                        hit_id=next(counter),
                        question=self.question,
                        items=tuple(batch),
                        payment=self.payment_per_hit,
                    )
                )
                batch = []
        if batch:
            hits.append(
                HIT(
                    hit_id=next(counter),
                    question=self.question,
                    items=tuple(batch),
                    payment=self.payment_per_hit,
                )
            )
        return hits

    @property
    def total_assignments(self) -> int:
        """Number of HIT assignments needed to satisfy ``judgments_per_item``."""
        return len(self.build_hits()) * self.judgments_per_item

    @property
    def total_judgments(self) -> int:
        """Number of individual item judgments the group will produce."""
        return len(self.items) * self.judgments_per_item

    @property
    def max_cost(self) -> float:
        """Cost of completing every assignment (before service fees)."""
        return self.total_assignments * self.payment_per_hit


def make_task_items(
    item_ids: Iterable[int],
    *,
    payloads: dict[int, dict[str, Any]] | None = None,
    gold_answers: dict[int, Answer] | None = None,
) -> list[TaskItem]:
    """Convenience constructor for a list of :class:`TaskItem` objects."""
    payloads = payloads or {}
    gold_answers = gold_answers or {}
    items = []
    for item_id in item_ids:
        gold = gold_answers.get(item_id)
        items.append(
            TaskItem(
                item_id=item_id,
                payload=payloads.get(item_id, {}),
                is_gold=gold is not None,
                gold_answer=gold,
            )
        )
    return items
