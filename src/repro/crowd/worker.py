"""Simulated crowd workers.

The paper's Experiment 1 analysis identifies two clearly separated worker
groups: spammers "who supposedly knew nearly every movie (94 %) and judged
them as being comedies in 56 % of all cases", and honest workers "who knew
only roughly 26 % of all movies" and whose judgments reflect the true class
ratio.  Experiment 3 adds a third behaviour: workers who look the answer up
on the Web (slow, but ~95 % accurate).  The worker models here are
parameterised directly from those observations.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.crowd.hit import Answer, Question, TaskItem
from repro.utils.rng import RandomState, ensure_rng, spawn_rng


class WorkerArchetype(enum.Enum):
    """Behavioural classes of simulated workers."""

    HONEST = "honest"
    SPAMMER = "spammer"
    LOOKUP = "lookup"
    EXPERT = "expert"


@dataclass
class WorkerProfile:
    """Behavioural parameters of one simulated worker.

    Parameters
    ----------
    worker_id:
        Unique identifier.
    archetype:
        Behavioural class (used for reporting; behaviour itself is fully
        described by the remaining parameters).
    country:
        ISO-style country code; quality control may exclude countries.
    knowledge_prob:
        Probability the worker actually knows a given item.
    claimed_knowledge_prob:
        Probability the worker *claims* to know an item (spammers claim to
        know nearly everything).
    accuracy:
        Probability of judging an item they know correctly.
    positive_bias:
        Probability of answering POSITIVE when guessing blindly.
    minutes_per_hit:
        Mean time to complete one HIT assignment.
    session_hits:
        Mean number of HIT assignments the worker completes before leaving.
    trusted:
        Whether the worker belongs to the requester's trusted pool.
    """

    worker_id: int
    archetype: WorkerArchetype
    country: str = "US"
    knowledge_prob: float = 0.26
    claimed_knowledge_prob: float | None = None
    accuracy: float = 0.85
    positive_bias: float = 0.5
    minutes_per_hit: float = 1.0
    session_hits: int = 20
    trusted: bool = False

    def __post_init__(self) -> None:
        if self.claimed_knowledge_prob is None:
            self.claimed_knowledge_prob = self.knowledge_prob
        for name in ("knowledge_prob", "claimed_knowledge_prob", "accuracy", "positive_bias"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.minutes_per_hit <= 0:
            raise ValueError("minutes_per_hit must be positive")
        if self.session_hits <= 0:
            raise ValueError("session_hits must be positive")

    # -- behaviour --------------------------------------------------------------

    def judge(
        self,
        item: TaskItem,
        question: Question,
        true_answer: Answer,
        rng: np.random.Generator,
    ) -> Answer:
        """Produce this worker's answer for *item* given the ground truth.

        The ground truth is only used to *simulate* the worker's cognition;
        a real platform obviously does not know it.
        """
        if question.lookup_allowed:
            # Worker looks the answer up on the Web: accurate but not perfect
            # (source disagreement, sloppiness).
            if rng.random() < self.accuracy:
                return true_answer
            return self._flip(true_answer)

        claims_to_know = rng.random() < float(self.claimed_knowledge_prob)
        actually_knows = rng.random() < self.knowledge_prob

        if not claims_to_know and question.allow_dont_know:
            return Answer.DONT_KNOW

        if actually_knows:
            if rng.random() < self.accuracy:
                return true_answer
            return self._flip(true_answer)

        # Claims to know but does not: guess with the worker's positive bias.
        if rng.random() < self.positive_bias:
            return Answer.POSITIVE
        return Answer.NEGATIVE

    @staticmethod
    def _flip(answer: Answer) -> Answer:
        return Answer.NEGATIVE if answer is Answer.POSITIVE else Answer.POSITIVE

    def draw_hit_duration(self, rng: np.random.Generator) -> float:
        """Sample the time (simulated minutes) to complete one HIT."""
        # Log-normal noise around the worker's mean speed keeps durations
        # positive and right-skewed, like real completion times.
        noise = rng.lognormal(mean=0.0, sigma=0.35)
        return float(self.minutes_per_hit * noise)

    def draw_session_length(self, rng: np.random.Generator) -> int:
        """Sample how many HIT assignments the worker completes before leaving."""
        return int(max(1, rng.geometric(1.0 / self.session_hits)))


# ---------------------------------------------------------------------------
# Worker factory helpers (parameterised from the paper's observations)
# ---------------------------------------------------------------------------


#: Countries the paper's Experiment 2 heuristic would exclude.  The names are
#: synthetic placeholders — what matters is that spammers concentrate there.
SPAM_COUNTRIES = ("XX", "YY", "ZZ")
HONEST_COUNTRIES = ("US", "GB", "DE", "CA", "FR", "IN", "AU", "NL")


def make_spam_worker(worker_id: int, rng: np.random.Generator) -> WorkerProfile:
    """A worker who claims to know ~94 % of items and answers arbitrarily."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype=WorkerArchetype.SPAMMER,
        country=str(rng.choice(SPAM_COUNTRIES)),
        knowledge_prob=0.10,
        claimed_knowledge_prob=0.94,
        accuracy=0.60,
        positive_bias=0.56,
        minutes_per_hit=float(rng.uniform(0.3, 0.8)),
        session_hits=40,
    )


def make_honest_worker(worker_id: int, rng: np.random.Generator) -> WorkerProfile:
    """A worker who only judges items they know and does so fairly well."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype=WorkerArchetype.HONEST,
        country=str(rng.choice(HONEST_COUNTRIES)),
        knowledge_prob=float(rng.uniform(0.18, 0.34)),
        claimed_knowledge_prob=None,
        accuracy=float(rng.uniform(0.82, 0.92)),
        positive_bias=0.32,
        minutes_per_hit=float(rng.uniform(0.8, 1.6)),
        session_hits=25,
    )


def make_lookup_worker(worker_id: int, rng: np.random.Generator) -> WorkerProfile:
    """A worker who looks answers up on the Web: accurate but slow."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype=WorkerArchetype.LOOKUP,
        country=str(rng.choice(HONEST_COUNTRIES + SPAM_COUNTRIES)),
        knowledge_prob=0.26,
        claimed_knowledge_prob=1.0,
        accuracy=float(rng.uniform(0.92, 0.97)),
        positive_bias=0.40,
        minutes_per_hit=float(rng.uniform(3.0, 6.0)),
        session_hits=30,
    )


def make_expert_worker(worker_id: int, rng: np.random.Generator) -> WorkerProfile:
    """A trusted domain expert used for gold-sample collection."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype=WorkerArchetype.EXPERT,
        country=str(rng.choice(HONEST_COUNTRIES)),
        knowledge_prob=0.95,
        claimed_knowledge_prob=0.95,
        accuracy=0.97,
        positive_bias=0.30,
        minutes_per_hit=float(rng.uniform(1.0, 2.0)),
        session_hits=50,
        trusted=True,
    )


class WorkerPool:
    """A population of simulated workers with a given archetype mix.

    The pool size models the paper's observation that "each requester in a
    crowd-sourcing platform can only utilize a relatively small human worker
    pool": experiments draw arriving workers from this finite population.
    """

    def __init__(self, workers: Sequence[WorkerProfile]) -> None:
        if not workers:
            raise ValueError("worker pool must not be empty")
        self._workers = list(workers)

    @classmethod
    def build(
        cls,
        *,
        n_honest: int = 0,
        n_spammers: int = 0,
        n_lookup: int = 0,
        n_experts: int = 0,
        seed: RandomState = None,
    ) -> "WorkerPool":
        """Construct a pool with the given archetype counts."""
        rng = ensure_rng(seed)
        counter = itertools.count(1)
        workers: list[WorkerProfile] = []
        for _ in range(n_honest):
            workers.append(make_honest_worker(next(counter), rng))
        for _ in range(n_spammers):
            workers.append(make_spam_worker(next(counter), rng))
        for _ in range(n_lookup):
            workers.append(make_lookup_worker(next(counter), rng))
        for _ in range(n_experts):
            workers.append(make_expert_worker(next(counter), rng))
        return cls(workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self):
        return iter(self._workers)

    @property
    def workers(self) -> tuple[WorkerProfile, ...]:
        """All workers in the pool."""
        return tuple(self._workers)

    def filter(self, predicate) -> "WorkerPool":
        """Return a new pool with only the workers satisfying *predicate*."""
        selected = [worker for worker in self._workers if predicate(worker)]
        if not selected:
            raise ValueError("filter removed every worker from the pool")
        return WorkerPool(selected)

    def without_countries(self, countries: Iterable[str]) -> "WorkerPool":
        """Return a pool excluding workers from the given countries."""
        excluded = {country.upper() for country in countries}
        return self.filter(lambda worker: worker.country.upper() not in excluded)

    def only_trusted(self) -> "WorkerPool":
        """Return a pool with only trusted workers."""
        return self.filter(lambda worker: worker.trusted)

    def arrival_order(self, seed: RandomState = None) -> list[WorkerProfile]:
        """Return the workers in a randomised arrival order."""
        rng = spawn_rng(seed, "worker-arrival")
        order = rng.permutation(len(self._workers))
        return [self._workers[i] for i in order]
