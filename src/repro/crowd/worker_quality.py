"""Per-worker accuracy tracking for accuracy-weighted aggregation.

The paper's pipeline treats every worker as equally reliable; the
schema-matching crowdsourcing literature (see PAPERS.md) shows that
estimating a per-worker *accuracy rate* and weighting votes by it shrinks
both platform cost and answer error.  This module holds the estimator:

* :class:`WorkerQualityTracker` — a thread-safe Beta-posterior estimator
  over per-worker ``(correct, incorrect)`` observations.  Evidence comes
  from two channels: **seeded gold questions** (items with a known answer
  injected into HIT batches at the policy's ``gold_fraction``; a value
  source supplies them, e.g. the ``gold_answers`` of
  :class:`~repro.crowd.sources.SimulatedCrowdValueSource`) and **answer
  agreement** (whether a worker's judgment matched
  the settled weighted label of an item, down-weighted because the settled
  label is itself only an estimate).
* :func:`estimate_accuracy` — the pure counts→estimate function, shared
  with ``PRAGMA worker_stats`` so the SQL surface reports exactly what the
  aggregator weighs with.

The prior is deliberately *optimistic* (mean ``7/(7+3) = 0.7``): a
cold-start worker nobody knows anything about gets the same non-trivial
weight as every other cold-start worker, so accuracy-weighted voting over
an unknown pool degenerates to exactly the flat majority vote the engine
used before — quality knowledge sharpens aggregation, it never disables it.

Durability: the tracker journals *absolute* per-worker totals through an
injectable ``journal`` callback (the catalog runtime's tracker is
hooked to :meth:`~repro.db.catalog.Catalog.record_worker_stats`, which
appends a ``worker_stats`` WAL record).  Absolute totals make replay
idempotent — last record wins — and :meth:`load_totals` warm-starts a
tracker from recovered state.  The callback is always invoked *outside*
the tracker's lock so a journal that takes the catalog lock (and fsyncs)
can never participate in a lock-order cycle.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_PRIOR_CORRECT",
    "DEFAULT_PRIOR_INCORRECT",
    "WorkerQualityTracker",
    "estimate_accuracy",
]

#: Beta prior pseudo-counts.  Mean 0.7 (> 0.5): an unknown worker votes
#: with the same positive weight as every other unknown worker, which
#: makes the cold-start weighted vote identical to flat majority voting.
DEFAULT_PRIOR_CORRECT = 7.0
DEFAULT_PRIOR_INCORRECT = 3.0

#: Accuracy estimates are clamped into this open interval before use as
#: log-odds weights: a "perfect" worker must not get an infinite weight.
ACCURACY_FLOOR = 0.01
ACCURACY_CEILING = 0.99


def estimate_accuracy(
    correct: float,
    incorrect: float,
    *,
    prior_correct: float = DEFAULT_PRIOR_CORRECT,
    prior_incorrect: float = DEFAULT_PRIOR_INCORRECT,
) -> float:
    """Posterior-mean accuracy for the given observation counts.

    ``(prior_correct + correct) / (prior_correct + prior_incorrect +
    correct + incorrect)`` — strictly inside ``(0, 1)`` for any
    non-negative observations because the prior pseudo-counts are positive.
    """
    if correct < 0 or incorrect < 0:
        raise ValueError("observation counts must be non-negative")
    numerator = prior_correct + correct
    denominator = prior_correct + prior_incorrect + correct + incorrect
    estimate = numerator / denominator
    return min(ACCURACY_CEILING, max(ACCURACY_FLOOR, estimate))


class WorkerQualityTracker:
    """Thread-safe Beta-posterior accuracy estimates for crowd workers.

    Parameters
    ----------
    prior_correct, prior_incorrect:
        Beta prior pseudo-counts shared by every worker.  The defaults
        give a cold-start mean of 0.7 — see the module docstring for why
        the prior mean must exceed 0.5.
    agreement_weight:
        Fractional weight of one agreement observation relative to one
        gold observation.  Agreement with a settled label is weaker
        evidence than a known-answer gold check, so it moves the posterior
        more slowly.
    journal:
        Optional callback receiving ``{worker_id: (correct, incorrect)}``
        *absolute* totals for the workers touched since the last
        :meth:`flush`.  Invoked outside the tracker's lock.
    """

    def __init__(
        self,
        *,
        prior_correct: float = DEFAULT_PRIOR_CORRECT,
        prior_incorrect: float = DEFAULT_PRIOR_INCORRECT,
        agreement_weight: float = 0.5,
        journal: Callable[[Mapping[int, tuple[float, float]]], None] | None = None,
    ) -> None:
        if prior_correct <= 0 or prior_incorrect <= 0:
            raise ValueError("prior pseudo-counts must be positive")
        if not 0.0 < agreement_weight <= 1.0:
            raise ValueError("agreement_weight must be in (0, 1]")
        self.prior_correct = float(prior_correct)
        self.prior_incorrect = float(prior_incorrect)
        self.agreement_weight = float(agreement_weight)
        self.journal = journal
        self._lock = threading.Lock()
        #: worker_id -> [correct, incorrect] observed pseudo-counts
        #: (excluding the prior, which is shared and never persisted).
        self._counts: dict[int, list[float]] = {}
        #: Workers touched since the last :meth:`flush`.
        self._dirty: set[int] = set()

    # -- observations -------------------------------------------------------

    def observe_gold(self, worker_id: int, correct: bool, *, weight: float = 1.0) -> None:
        """Record one gold-question outcome for *worker_id*."""
        if weight <= 0:
            raise ValueError("observation weight must be positive")
        with self._lock:
            counts = self._counts.setdefault(int(worker_id), [0.0, 0.0])
            counts[0 if correct else 1] += weight
            self._dirty.add(int(worker_id))

    def observe_agreement(self, worker_id: int, agreed: bool) -> None:
        """Record whether *worker_id* matched an item's settled label.

        Down-weighted by ``agreement_weight``: the settled label is itself
        an estimate, so agreement is softer evidence than a gold check.
        """
        self.observe_gold(worker_id, agreed, weight=self.agreement_weight)

    # -- estimates ----------------------------------------------------------

    def accuracy_of(self, worker_id: int) -> float:
        """Posterior-mean accuracy of *worker_id* (prior mean when unseen)."""
        with self._lock:
            counts = self._counts.get(int(worker_id))
            correct, incorrect = counts if counts is not None else (0.0, 0.0)
        return estimate_accuracy(
            correct,
            incorrect,
            prior_correct=self.prior_correct,
            prior_incorrect=self.prior_incorrect,
        )

    def mean_accuracy(self, worker_ids: Iterable[int] | None = None) -> float:
        """Mean accuracy estimate over *worker_ids* (or every known worker)."""
        if worker_ids is None:
            with self._lock:
                ids = list(self._counts)
        else:
            ids = list(dict.fromkeys(int(worker_id) for worker_id in worker_ids))
        if not ids:
            return estimate_accuracy(
                0.0,
                0.0,
                prior_correct=self.prior_correct,
                prior_incorrect=self.prior_incorrect,
            )
        return sum(self.accuracy_of(worker_id) for worker_id in ids) / len(ids)

    @property
    def n_workers(self) -> int:
        """Number of workers with at least one observation."""
        with self._lock:
            return len(self._counts)

    # -- durability ---------------------------------------------------------

    def totals(self) -> dict[int, tuple[float, float]]:
        """Absolute ``(correct, incorrect)`` totals for every known worker."""
        with self._lock:
            return {
                worker_id: (counts[0], counts[1])
                for worker_id, counts in self._counts.items()
            }

    def load_totals(self, totals: Mapping[int, tuple[float, float]]) -> None:
        """Warm-start from recovered absolute totals (last write wins)."""
        with self._lock:
            for worker_id, (correct, incorrect) in totals.items():
                if correct < 0 or incorrect < 0:
                    raise ValueError("observation counts must be non-negative")
                self._counts[int(worker_id)] = [float(correct), float(incorrect)]

    def flush(self) -> None:
        """Journal the absolute totals of every worker touched since the
        last flush.  The callback runs outside the tracker's lock (it may
        take the catalog lock and fsync a WAL record)."""
        journal = self.journal
        if journal is None:
            return
        with self._lock:
            if not self._dirty:
                return
            touched = {
                worker_id: (self._counts[worker_id][0], self._counts[worker_id][1])
                for worker_id in self._dirty
            }
            self._dirty.clear()
        journal(touched)

    def __repr__(self) -> str:
        return f"WorkerQualityTracker(n_workers={self.n_workers})"
