"""Batched value sources bridging the crowd platform to the query engine.

The query engine's ``CrowdFill`` operator acquires MISSING attribute values
through the narrow :class:`~repro.db.acquisition.ValueSource` protocol: one
``request_values_with_quality(attribute, items, *, policy, tracker)`` call
per coalesced batch, returning a typed
:class:`~repro.db.acquisition.Dispatch`.  This
module provides the production-shaped implementation of that protocol on
top of the simulated crowd platform: every batch becomes exactly one
:class:`~repro.crowd.hit.HITGroup` dispatched to a
:class:`~repro.crowd.platform.CrowdPlatform`, with the answers aggregated
by majority vote.  Set-oriented acquisition — one HIT group per batch per
attribute instead of one crowd round-trip per row — is what makes crowd
latency and cost tractable at query time.

The source is **thread-safe**: the
:class:`~repro.crowd.runtime.AcquisitionRuntime` dispatches batches for
different attributes concurrently, so all mutable statistics are guarded by
a lock, and the per-dispatch child seeds are derived from *request
identity* (attribute + item ids), never from dispatch order — the same
workload produces the same answers at any concurrency level.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import replace
from typing import Any, Mapping, Sequence

from repro.crowd.aggregation import AccuracyWeightedVote, group_judgments
from repro.crowd.estimation import enumeration_predicate
from repro.crowd.hit import Answer, HITGroup, Question, make_task_items
from repro.crowd.platform import CrowdPlatform, CrowdRunResult
from repro.crowd.quality_control import QualityControl
from repro.crowd.worker import WorkerPool
from repro.crowd.worker_quality import WorkerQualityTracker
from repro.db.acquisition import AcquisitionPolicy, Dispatch
from repro.db.types import is_missing
from repro.utils.rng import RandomState, derive_seed, ensure_rng

__all__ = ["SimulatedCrowdValueSource"]


class SimulatedCrowdValueSource:
    """A batch ValueSource that dispatches one HIT group per request.

    Parameters
    ----------
    platform:
        The (simulated) crowd platform to dispatch HIT groups on.
    pool:
        Worker pool answering the HITs.
    truth:
        ``attribute -> {item_id: bool}`` ground truth driving the simulated
        workers (a live platform would not have this).
    key_column:
        Row column mapping database rows to platform item ids.
    judgments_per_item, items_per_hit, payment_per_hit:
        HIT group shape; forwarded to :class:`~repro.crowd.hit.HITGroup`.
    quality_control:
        Optional quality-control policy applied to every dispatch.
    allow_dont_know:
        Whether workers may answer "I do not know this item" (forwarded to
        the :class:`~repro.crowd.hit.Question` of every dispatch).
        Disabling it forces an answer — the paper's Experiment 3 setting —
        so an odd ``judgments_per_item`` always yields a majority and no
        cell stays unanswered.
    seed:
        Optional explicit seed for the simulated platform runs.  Each
        dispatch derives an independent child seed from the *identity of
        the request* — the attribute and the sorted item ids — so a seeded
        source is fully deterministic regardless of the order in which
        concurrent dispatches execute, while batches over different items
        stay uncorrelated.  (Re-asking the exact same batch deterministically
        reproduces the same answers; that is the property the concurrent
        runtime's determinism guarantee rests on.)  A generator seed is
        frozen to an integer at construction time so later draws cannot
        depend on thread scheduling.  Without a seed the platform's own
        seed governs, which reuses one stream per attribute.
    latency_seconds:
        Simulated platform round-trip latency: every dispatch sleeps this
        many *wall-clock* seconds before returning, standing in for the
        HTTP/queueing latency of a live platform (the simulated
        ``completion_minutes`` clock is separate).  This is what the
        concurrent-acquisition ablation overlaps: with a latency-simulating
        source, dispatching four attributes concurrently costs one
        round-trip instead of four.

    Statistics
    ----------
    ``dispatches`` counts platform calls (one per CrowdFill batch per
    attribute — the quantity the batching contract bounds), ``total_cost``
    and ``total_judgments`` accumulate over all dispatches, and ``runs``
    keeps every :class:`~repro.crowd.platform.CrowdRunResult` for
    inspection.  All statistics are updated atomically under an internal
    lock so concurrent dispatches never lose counts.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        pool: WorkerPool,
        *,
        truth: Mapping[str, Mapping[int, bool]],
        key_column: str = "item_id",
        judgments_per_item: int = 3,
        items_per_hit: int = 10,
        payment_per_hit: float = 0.02,
        quality_control: QualityControl | None = None,
        allow_dont_know: bool = True,
        prompt: str = "",
        seed: RandomState = None,
        latency_seconds: float = 0.0,
        universe: Mapping[str, Sequence[Any]] | None = None,
        answers_per_batch: int | None = None,
        worker_error_rates: Mapping[int, float] | None = None,
        gold_answers: Mapping[str, Mapping[int, bool]] | None = None,
        quality: bool | None = None,
    ) -> None:
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if worker_error_rates:
            for worker_id, rate in worker_error_rates.items():
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(
                        f"worker error rate must be in [0, 1], got {rate} "
                        f"for worker {worker_id}"
                    )
            # Mixed-reliability pools for the quality ablation: a listed
            # worker always answers and flips the true label with exactly
            # their error rate (knowledge/claim gating off), keyed by
            # worker identity so seeded pools stay reproducible.
            pool = WorkerPool(
                [
                    replace(
                        worker,
                        accuracy=1.0 - worker_error_rates[worker.worker_id],
                        knowledge_prob=1.0,
                        claimed_knowledge_prob=1.0,
                    )
                    if worker.worker_id in worker_error_rates
                    else worker
                    for worker in pool
                ]
            )
        self._platform = platform
        self._pool = pool
        # Freeze generator seeds immediately: drawing from a shared
        # generator at dispatch time would make child seeds depend on the
        # order concurrent dispatches happen to run in.
        self._seed = derive_seed(seed, "value-source") if seed is not None else None
        self._truth = {attr: dict(values) for attr, values in truth.items()}
        self.key_column = key_column
        self.judgments_per_item = judgments_per_item
        self.items_per_hit = items_per_hit
        self.payment_per_hit = payment_per_hit
        self._quality_control = quality_control
        self.allow_dont_know = allow_dont_know
        self._prompt = prompt
        self.latency_seconds = latency_seconds
        if answers_per_batch is not None and answers_per_batch <= 0:
            raise ValueError("answers_per_batch must be positive")
        self._universe = (
            {predicate: list(items) for predicate, items in universe.items()}
            if universe is not None
            else {}
        )
        self.answers_per_batch = answers_per_batch
        self._gold = (
            {attr: dict(labels) for attr, labels in gold_answers.items()}
            if gold_answers is not None
            else {}
        )
        #: Whether dispatches run the quality-tracked path (accuracy-
        #: weighted aggregation + adaptive assignment sizing) instead of
        #: one flat HIT group.  Defaults on when gold answers or
        #: per-worker error rates were configured.
        self.quality_enabled = (
            bool(self._gold or worker_error_rates) if quality is None else bool(quality)
        )
        self._stats_lock = threading.Lock()
        self.dispatches = 0
        self.total_cost = 0.0
        self.total_judgments = 0
        #: Billable platform assignments completed (the unit adaptive
        #: sizing saves; one dispatch completes many assignments).
        self.total_assignments = 0
        self.runs: list[CrowdRunResult] = []

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: AcquisitionPolicy | None = None,
        tracker: WorkerQualityTracker | None = None,
    ) -> Dispatch:
        """Answer one batch of ``(rowid, row)`` items for *attribute*.

        Rows whose *key_column* is NULL/MISSING cannot be mapped to a
        platform item and stay unanswered; items without a clear majority
        are likewise omitted, leaving their cells MISSING.  Enumeration
        attributes (``__enumerate__:<predicate>``) answer open-world
        batches instead (see :meth:`_enumerate_batch`).

        With ``quality_enabled`` the batch runs adaptive assignment sizing
        against *tracker* under *policy*'s knobs (see
        :meth:`_quality_batch`); otherwise it is one flat HIT group at the
        source's ``judgments_per_item``, and *policy* and *tracker* are
        unused.
        """
        predicate = enumeration_predicate(attribute)
        if predicate is not None:
            return self._enumerate_batch(predicate, items)
        if self.quality_enabled:
            return self._quality_batch(attribute, items, policy, tracker)
        return self._flat_batch(attribute, items)

    def _item_ids(self, items: Sequence[tuple[int, dict[str, Any]]]) -> dict[int, int]:
        """``rowid -> platform item id`` for the rows carrying a key."""
        rowid_to_item: dict[int, int] = {}
        for rowid, row in items:
            key = row.get(self.key_column)
            if key is None or is_missing(key):
                continue
            rowid_to_item[rowid] = int(key)
        return rowid_to_item

    def _flat_batch(self, attribute: str, items: Sequence[tuple[int, dict[str, Any]]]) -> Dispatch:
        """One HIT group at ``judgments_per_item``, majority-voted."""
        rowid_to_item = self._item_ids(items)
        if not rowid_to_item:
            return Dispatch({})

        item_ids = sorted(set(rowid_to_item.values()))
        group = HITGroup(
            question=Question(
                attribute=attribute,
                prompt=self._prompt,
                allow_dont_know=self.allow_dont_know,
            ),
            items=make_task_items(item_ids),
            judgments_per_item=self.judgments_per_item,
            items_per_hit=self.items_per_hit,
            payment_per_hit=self.payment_per_hit,
        )
        # Child seeds hash the request identity (attribute + item ids), so
        # the answers for a batch are a pure function of the batch — the
        # dispatch order under a concurrent runtime cannot change them.
        dispatch_seed = (
            derive_seed(self._seed, attribute, tuple(item_ids))
            if self._seed is not None
            else None
        )
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        result = self._platform.run_group(
            group,
            self._pool,
            quality_control=self._quality_control,
            truth=self._truth.get(attribute, {}),
            seed=dispatch_seed,
        )
        with self._stats_lock:
            self.dispatches += 1
            self.total_cost += result.total_cost
            self.total_judgments += len(result.judgments)
            self.total_assignments += result.assignments_completed
            self.runs.append(result)

        labels = result.majority_labels()
        values = {
            rowid: labels[item_id]
            for rowid, item_id in rowid_to_item.items()
            if item_id in labels
        }
        return Dispatch(values, result.total_cost)

    def _quality_batch(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        policy: AcquisitionPolicy | None,
        tracker: WorkerQualityTracker | None,
    ) -> Dispatch:
        """Quality-tracked batch: adaptive sizing + accuracy-weighted votes.

        Instead of one dispatch at a fixed ``judgments_per_item``, the
        batch runs in *rounds*: every item starts with the policy's
        ``min_assignments`` judgments, accumulated judgments are
        aggregated with :class:`~repro.crowd.aggregation.AccuracyWeightedVote`
        (weights from *tracker*), and items whose posterior confidence
        reaches ``target_cell_confidence`` settle immediately — only the
        unconfident remainder buys further judgments, up to
        ``max_assignments``.  Each round is padded with seeded gold items
        (``gold_fraction``) whose known answers feed the tracker; settled
        labels feed it agreement evidence.

        The returned :class:`~repro.db.acquisition.Dispatch`'s ``quality``
        carries the per-rowid posterior ``confidences``, the billable
        ``assignments`` completed, ``assignments_saved`` versus paying
        ``max_assignments`` for every item, the ``rounds`` dispatched,
        ``gold_injected`` and the ``mean_worker_accuracy`` over the workers
        seen.
        """
        if policy is None:
            policy = AcquisitionPolicy()
        rowid_to_item = self._item_ids(items)
        if not rowid_to_item:
            return Dispatch({})

        item_ids = sorted(set(rowid_to_item.values()))
        truth = self._truth.get(attribute, {})
        # Gold items must be disjoint from the batch: an item cannot both
        # be asked for real and grade the workers answering it.
        gold_pool = {
            item_id: bool(label)
            for item_id, label in self._gold.get(attribute, {}).items()
            if item_id not in set(item_ids)
        }
        min_a = policy.min_assignments
        max_a = policy.max_assignments
        target = policy.target_cell_confidence

        pending = list(item_ids)
        accumulated: list[Any] = []  # non-gold judgments across rounds
        labels: dict[int, bool] = {}
        confidences: dict[int, float] = {}
        settled_at: dict[int, int] = {}
        worker_ids: set[int] = set()
        cost = 0.0
        assignments = 0
        gold_injected = 0
        given = 0
        rounds = 0
        while pending:
            step = min_a if given == 0 else min(2, max_a - given)
            gold_ids: list[int] = []
            if gold_pool and policy.gold_fraction > 0:
                n_gold = min(len(gold_pool), math.ceil(policy.gold_fraction * len(pending)))
                ordered = sorted(gold_pool)
                # Rotate through the gold pool round-by-round so repeated
                # rounds grade workers on fresh gold items.
                offset = (rounds * n_gold) % len(ordered)
                gold_ids = [ordered[(offset + i) % len(ordered)] for i in range(n_gold)]
            group = HITGroup(
                question=Question(
                    attribute=attribute,
                    prompt=self._prompt,
                    allow_dont_know=self.allow_dont_know,
                ),
                items=make_task_items(
                    sorted(pending) + gold_ids,
                    gold_answers={
                        gold_id: Answer.from_bool(gold_pool[gold_id])
                        for gold_id in gold_ids
                    },
                ),
                judgments_per_item=step,
                items_per_hit=self.items_per_hit,
                payment_per_hit=self.payment_per_hit,
            )
            # Like the flat path, the child seed hashes request identity —
            # here including the round's judgment offset, so escalation
            # rounds draw fresh answers while staying order-independent.
            dispatch_seed = (
                derive_seed(self._seed, "quality", attribute, tuple(pending), given)
                if self._seed is not None
                else None
            )
            if self.latency_seconds:
                time.sleep(self.latency_seconds)
            result = self._platform.run_group(
                group,
                self._pool,
                quality_control=self._quality_control,
                truth=truth,
                seed=dispatch_seed,
            )
            rounds += 1
            given += step
            cost += result.total_cost
            assignments += result.assignments_completed
            gold_injected += len(gold_ids)
            with self._stats_lock:
                self.dispatches += 1
                self.total_cost += result.total_cost
                self.total_judgments += len(result.judgments)
                self.total_assignments += result.assignments_completed
                self.runs.append(result)

            gold_truth = {gold_id: gold_pool[gold_id] for gold_id in gold_ids}
            for judgment in result.judgments:
                worker_ids.add(judgment.worker_id)
                if judgment.is_gold:
                    expected = gold_truth.get(judgment.item_id)
                    if tracker is not None and expected is not None and judgment.informative:
                        tracker.observe_gold(
                            judgment.worker_id,
                            (judgment.answer is Answer.POSITIVE) == expected,
                        )
                else:
                    accumulated.append(judgment)

            vote = AccuracyWeightedVote(tracker) if tracker is not None else AccuracyWeightedVote()
            by_item = group_judgments(accumulated)
            final_round = given >= max_a
            still_pending: list[int] = []
            for item_id in pending:
                outcome = vote.aggregate_item(item_id, by_item.get(item_id, []))
                if outcome.classified and (outcome.confidence >= target or final_round):
                    labels[item_id] = bool(outcome.label)
                    confidences[item_id] = outcome.confidence
                    settled_at[item_id] = given
                    if tracker is not None:
                        for judgment in by_item.get(item_id, []):
                            if judgment.informative:
                                tracker.observe_agreement(
                                    judgment.worker_id,
                                    (judgment.answer is Answer.POSITIVE) == outcome.label,
                                )
                elif final_round:
                    # No informative quorum / dead tie at the cap: the cell
                    # stays MISSING, but its (low) confidence is reported so
                    # re-acquisition can pick it up later.
                    confidences[item_id] = outcome.confidence
                else:
                    still_pending.append(item_id)
            pending = [] if final_round else still_pending

        saved = sum(max_a - settled for settled in settled_at.values())
        values = {
            rowid: labels[item_id]
            for rowid, item_id in rowid_to_item.items()
            if item_id in labels
        }
        stats: dict[str, Any] = {
            "confidences": {
                rowid: confidences[item_id]
                for rowid, item_id in rowid_to_item.items()
                if item_id in confidences
            },
            "assignments": assignments,
            "assignments_saved": saved,
            "rounds": rounds,
            "gold_injected": gold_injected,
            "mean_worker_accuracy": (
                tracker.mean_accuracy(worker_ids)
                if tracker is not None and worker_ids
                else None
            ),
        }
        return Dispatch(values, cost, stats)

    # -- enumeration mode ----------------------------------------------------

    def _enumerate_batch(
        self, predicate: str, items: Sequence[tuple[int, dict[str, Any]]]
    ) -> Dispatch:
        """Answer one open-world enumeration HIT batch for *predicate*.

        Each item id is a *batch index*, not a rowid; the answer for a
        batch is the **list** of worker answers in that batch.  Workers
        sample from the predicate's configured ``universe`` with a
        popularity skew (weight proportional to ``1/(rank+1)`` over the
        universe's listed order, Zipf-like as in the enumeration
        experiments of Trushkowsky et al.), *with replacement* — popular
        species recur across batches, which is exactly the duplicate
        signal species estimators need.

        Answers are a pure function of ``(seed, predicate, batch_index)``:
        like fill mode, the child seed hashes the request identity, never
        the dispatch order, so a seeded source enumerates the same
        sequences at any ``max_concurrent_batches``.  A predicate without
        a configured universe yields empty batches (the engine's dry-batch
        rule then stops the enumeration).
        """
        universe = self._universe.get(predicate)
        if universe is None:
            lowered = predicate.casefold()
            for name, candidate in self._universe.items():
                if name.casefold() == lowered:
                    universe = candidate
                    break
        if not universe:
            return Dispatch({batch_index: [] for batch_index, _row in items})

        count = self.answers_per_batch or self.items_per_hit
        weights = [1.0 / (rank + 1) for rank in range(len(universe))]
        total_weight = sum(weights)
        probabilities = [weight / total_weight for weight in weights]
        if self.latency_seconds:
            time.sleep(self.latency_seconds)

        values: dict[int, Any] = {}
        cost = 0.0
        for batch_index, _row in items:
            rng = ensure_rng(derive_seed(self._seed, "enumerate", predicate, batch_index))
            chosen = rng.choice(len(universe), size=count, replace=True, p=probabilities)
            values[batch_index] = [universe[int(index)] for index in chosen]
            cost += self.payment_per_hit
        with self._stats_lock:
            self.dispatches += len(items)
            self.total_cost += cost
        return Dispatch(values, cost)
