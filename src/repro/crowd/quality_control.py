"""Quality-control policies applied by the simulated crowd platform.

Three mechanisms from the paper are modelled:

* **Country exclusion** (Experiment 2): requesters exclude the few countries
  almost all malicious workers originated from.
* **Trusted-worker pools**: only workers who have proven their honesty and
  knowledge receive the HITs (used for gold-sample collection).
* **Gold questions** (Experiment 3): items with known answers are mixed into
  the HITs; workers who repeatedly answer them incorrectly are excluded
  during execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.crowd.hit import Answer, Judgment, TaskItem
from repro.crowd.worker import WorkerPool, WorkerProfile


class QualityPolicy:
    """Base class for quality-control policies (no-op by default)."""

    def filter_pool(self, pool: WorkerPool) -> WorkerPool:
        """Restrict which workers may receive HITs."""
        return pool

    def on_judgment(self, worker: WorkerProfile, item: TaskItem, judgment: Judgment) -> None:
        """Observe a submitted judgment (gold checking etc.)."""

    def is_banned(self, worker_id: int) -> bool:
        """True if the worker must not receive further assignments."""
        return False


@dataclass
class CountryFilter(QualityPolicy):
    """Exclude workers from the given countries upfront."""

    excluded_countries: tuple[str, ...]

    def __init__(self, excluded_countries: Iterable[str]) -> None:
        self.excluded_countries = tuple(c.upper() for c in excluded_countries)

    def filter_pool(self, pool: WorkerPool) -> WorkerPool:
        """Remove all workers whose country is excluded."""
        return pool.without_countries(self.excluded_countries)


@dataclass
class GoldQuestionPolicy(QualityPolicy):
    """Ban workers who repeatedly fail items with known answers."""

    max_gold_errors: int = 2
    _errors: dict[int, int] = field(default_factory=dict)
    _banned: set[int] = field(default_factory=set)

    def on_judgment(self, worker: WorkerProfile, item: TaskItem, judgment: Judgment) -> None:
        """Check gold items and ban the worker when the error budget is spent."""
        if not item.is_gold or item.gold_answer is None:
            return
        if judgment.answer is Answer.DONT_KNOW:
            return
        if judgment.answer is not item.gold_answer:
            errors = self._errors.get(worker.worker_id, 0) + 1
            self._errors[worker.worker_id] = errors
            if errors >= self.max_gold_errors:
                self._banned.add(worker.worker_id)

    def is_banned(self, worker_id: int) -> bool:
        """True once the worker exceeded the allowed number of gold errors."""
        return worker_id in self._banned

    @property
    def banned_workers(self) -> frozenset[int]:
        """Identifiers of all banned workers."""
        return frozenset(self._banned)


class QualityControl:
    """Composite of quality policies applied together."""

    def __init__(self, policies: Iterable[QualityPolicy] = ()) -> None:
        self._policies = list(policies)

    @classmethod
    def none(cls) -> "QualityControl":
        """A quality control that does nothing (Experiment 1)."""
        return cls()

    def add(self, policy: QualityPolicy) -> "QualityControl":
        """Add *policy* and return self for chaining."""
        self._policies.append(policy)
        return self

    @property
    def policies(self) -> tuple[QualityPolicy, ...]:
        """All registered policies."""
        return tuple(self._policies)

    def filter_pool(self, pool: WorkerPool) -> WorkerPool:
        """Apply every policy's pool filter in order."""
        for policy in self._policies:
            pool = policy.filter_pool(pool)
        return pool

    def on_judgment(self, worker: WorkerProfile, item: TaskItem, judgment: Judgment) -> None:
        """Forward a submitted judgment to every policy."""
        for policy in self._policies:
            policy.on_judgment(worker, item, judgment)

    def is_banned(self, worker_id: int) -> bool:
        """True if any policy has banned the worker."""
        return any(policy.is_banned(worker_id) for policy in self._policies)
