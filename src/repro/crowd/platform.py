"""Discrete-event simulation of a crowd-sourcing platform.

:class:`CrowdPlatform` dispatches a :class:`~repro.crowd.hit.HITGroup` to a
:class:`~repro.crowd.worker.WorkerPool` and simulates workers arriving,
picking up HIT assignments, spending time on them and submitting judgments.
The simulation produces the quantities the paper reports for its
experiments: the judgment stream with timestamps, total wall-clock
completion time, number of distinct workers, and money spent over time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.crowd.aggregation import MajorityVote, VoteOutcome
from repro.crowd.cost import CostModel, SpendingLedger
from repro.crowd.hit import HIT, Answer, HITGroup, Judgment
from repro.crowd.quality_control import QualityControl
from repro.crowd.worker import WorkerPool, WorkerProfile
from repro.errors import NoWorkersAvailableError
from repro.utils.rng import RandomState, spawn_rng


@dataclass
class CrowdRunResult:
    """Everything produced by dispatching one HIT group."""

    group: HITGroup
    judgments: list[Judgment]
    completion_minutes: float
    total_cost: float
    ledger: SpendingLedger
    n_workers: int
    assignments_completed: int
    assignments_requested: int
    banned_workers: frozenset[int] = frozenset()

    # -- stream accessors -------------------------------------------------------

    def judgments_until(self, minutes: float) -> list[Judgment]:
        """All judgments submitted up to simulated time *minutes*."""
        return [j for j in self.judgments if j.timestamp_minutes <= minutes]

    def cost_until(self, minutes: float) -> float:
        """Money spent up to simulated time *minutes*."""
        return self.ledger.spent_by(minutes)

    # -- aggregation shortcuts ----------------------------------------------------

    def majority_outcomes(self, *, until_minutes: float | None = None) -> dict[int, VoteOutcome]:
        """Majority-vote outcomes, optionally restricted to a time prefix."""
        judgments = (
            self.judgments if until_minutes is None else self.judgments_until(until_minutes)
        )
        return MajorityVote().aggregate(judgments)

    def majority_labels(self, *, until_minutes: float | None = None) -> dict[int, bool]:
        """Majority-vote labels for all items with a clear majority."""
        return {
            item_id: outcome.label
            for item_id, outcome in self.majority_outcomes(until_minutes=until_minutes).items()
            if outcome.label is not None
        }


@dataclass(order=True)
class _Event:
    """A worker becoming available at a point in simulated time."""

    time: float
    sequence: int
    worker: WorkerProfile = field(compare=False)


class CrowdPlatform:
    """Simulates dispatching HIT groups to a worker pool.

    Parameters
    ----------
    cost_model:
        Pricing applied to completed assignments.
    worker_interarrival_minutes:
        Mean time between two workers discovering the HIT group.
    seed:
        Seed for all stochastic choices of the simulation.
    """

    def __init__(
        self,
        *,
        cost_model: CostModel | None = None,
        worker_interarrival_minutes: float = 1.0,
        seed: RandomState = None,
    ) -> None:
        if worker_interarrival_minutes <= 0:
            raise ValueError("worker_interarrival_minutes must be positive")
        self.cost_model = cost_model or CostModel()
        self.worker_interarrival_minutes = worker_interarrival_minutes
        self._seed = seed
        # Guards rng derivation when the platform seed is a shared
        # numpy Generator: concurrent run_group calls would otherwise race
        # on its internal state.  Callers wanting *determinism* (not just
        # safety) under concurrency must pass an explicit per-dispatch
        # seed derived from request identity — see
        # :class:`~repro.crowd.sources.SimulatedCrowdValueSource`.
        self._seed_lock = threading.Lock()

    # -- public API ------------------------------------------------------------------

    def run_group(
        self,
        group: HITGroup,
        pool: WorkerPool,
        *,
        quality_control: QualityControl | None = None,
        truth: Mapping[int, bool] | None = None,
        max_minutes: float = 24 * 60.0,
        seed: RandomState = None,
    ) -> CrowdRunResult:
        """Dispatch *group* to *pool* and simulate until completion.

        *truth* maps item ids to their true boolean label; it drives the
        simulated worker cognition (a real platform would not know it).
        Items missing from *truth* are treated as negatives.

        An explicit *seed* overrides the platform's own seed for this one
        dispatch; callers issuing many dispatches (e.g. the batched value
        source) derive an independent child seed per call so repeated runs
        are deterministic and batches are not correlated.  Because the
        override is an integer derived from the *request* (not from shared
        mutable rng state), concurrent ``run_group`` calls with explicit
        seeds produce identical answers regardless of scheduling — the
        property the concurrent acquisition runtime's determinism test
        pins down.
        """
        quality_control = quality_control or QualityControl.none()
        run_seed = seed if seed is not None else self._seed
        with self._seed_lock:
            rng = spawn_rng(run_seed, "platform", group.question.attribute, len(pool))
        truth = dict(truth or {})

        try:
            working_pool = quality_control.filter_pool(pool)
        except ValueError as exc:
            raise NoWorkersAvailableError("no workers left after quality filtering") from exc
        if len(working_pool) == 0:
            raise NoWorkersAvailableError("no workers left after quality filtering")

        hits = group.build_hits()
        needed: dict[int, int] = {hit.hit_id: group.judgments_per_item for hit in hits}
        done_by: dict[int, set[int]] = {hit.hit_id: set() for hit in hits}

        ledger = SpendingLedger(cost_model=self.cost_model)
        cost_model_payment = self.cost_model.payment_per_hit
        if abs(cost_model_payment - group.payment_per_hit) > 1e-12:
            ledger = SpendingLedger(
                cost_model=CostModel(
                    payment_per_hit=group.payment_per_hit,
                    service_fee_rate=self.cost_model.service_fee_rate,
                    budget=self.cost_model.budget,
                )
            )

        judgments: list[Judgment] = []
        participants: set[int] = set()
        assignments_completed = 0
        sequence = itertools.count()

        # Workers discover the HIT group over time (exponential inter-arrivals).
        events: list[_Event] = []
        arrival_time = 0.0
        for worker in working_pool.arrival_order(rng.integers(0, 2**31 - 1)):
            arrival_time += float(rng.exponential(self.worker_interarrival_minutes))
            heapq.heappush(events, _Event(arrival_time, next(sequence), worker))

        session_budget: dict[int, int] = {}
        last_time = 0.0

        while events:
            event = heapq.heappop(events)
            now = event.time
            if now > max_minutes:
                break
            worker = event.worker

            if quality_control.is_banned(worker.worker_id):
                continue

            if worker.worker_id not in session_budget:
                session_budget[worker.worker_id] = worker.draw_session_length(rng)
            if session_budget[worker.worker_id] <= 0:
                continue

            hit = self._next_hit_for(worker, hits, needed, done_by)
            if hit is None:
                continue

            duration = worker.draw_hit_duration(rng)
            finish_time = now + duration
            if finish_time > max_minutes:
                continue

            # Submit the assignment.
            needed[hit.hit_id] -= 1
            done_by[hit.hit_id].add(worker.worker_id)
            session_budget[worker.worker_id] -= 1
            participants.add(worker.worker_id)
            assignments_completed += 1
            ledger.charge_assignment(finish_time)
            last_time = max(last_time, finish_time)

            for item in hit.items:
                true_answer = Answer.from_bool(bool(truth.get(item.item_id, False)))
                if item.is_gold and item.gold_answer is not None:
                    true_answer = item.gold_answer
                answer = worker.judge(item, hit.question, true_answer, rng)
                judgment = Judgment(
                    item_id=item.item_id,
                    worker_id=worker.worker_id,
                    answer=answer,
                    hit_id=hit.hit_id,
                    timestamp_minutes=finish_time,
                    is_gold=item.is_gold,
                )
                judgments.append(judgment)
                quality_control.on_judgment(worker, item, judgment)

            # The worker comes back for another assignment after finishing.
            if (
                session_budget[worker.worker_id] > 0
                and not quality_control.is_banned(worker.worker_id)
            ):
                heapq.heappush(events, _Event(finish_time, next(sequence), worker))

            if all(count <= 0 for count in needed.values()):
                break

        judgments.sort(key=lambda j: j.timestamp_minutes)
        banned = frozenset(
            worker_id
            for worker_id in participants
            if quality_control.is_banned(worker_id)
        )
        requested = len(hits) * group.judgments_per_item

        return CrowdRunResult(
            group=group,
            judgments=judgments,
            completion_minutes=last_time,
            total_cost=ledger.total_spent,
            ledger=ledger,
            n_workers=len(participants),
            assignments_completed=assignments_completed,
            assignments_requested=requested,
            banned_workers=banned,
        )

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _next_hit_for(
        worker: WorkerProfile,
        hits: Sequence[HIT],
        needed: Mapping[int, int],
        done_by: Mapping[int, set[int]],
    ) -> HIT | None:
        """Pick the most-needed HIT the worker has not done yet."""
        best: HIT | None = None
        best_need = 0
        for hit in hits:
            remaining = needed[hit.hit_id]
            if remaining <= 0:
                continue
            if worker.worker_id in done_by[hit.hit_id]:
                continue
            if remaining > best_need:
                best = hit
                best_need = remaining
        return best
