"""Hybrid crowd+predict acquisition: cost model and sampling policy.

The paper's headline result is that query-driven schema expansion becomes
affordable only when the crowd provides a *small sample* of attribute
values and a perceptual-space model predicts the rest.  This module holds
the planner-side machinery for that trade-off:

* :class:`AcquisitionPolicy` — the session knobs (sample fraction, minimum
  confidence for keeping predicted values, predict-vs-crowd cost ratio);
* :func:`plan_sample` — given the MISSING cells of one attribute, decide
  how many (and which) rows the crowd should answer and how many the
  predictor fills, respecting the session budget (a *cost-based* choice:
  when predicting is not cheaper than asking, the plan degenerates to
  crowd-only);
* the :class:`ValueSource` protocol (one batch in, one typed
  :class:`Dispatch` out) and its twin :class:`AttributePredictor`, which
  decouple the query engine from the concrete crowd platform and
  perceptual-space models (see
  :class:`repro.crowd.sources.SimulatedCrowdValueSource` and
  :class:`repro.core.prediction.PerceptualPredictor`).

Everything here is deterministic: the coverage-driven sample is chosen by
evenly spacing picks over the ordered candidate rowids, so the same table
state always produces the same acquisition plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crowd.worker_quality import WorkerQualityTracker

#: Provenance tags recorded for acquired cells.
PROVENANCE_STORED = "stored"
PROVENANCE_CROWD = "crowd"
PROVENANCE_PREDICTED = "predicted"


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcquisitionPolicy:
    """The single typed bundle of all session acquisition knobs.

    Covers the hybrid crowd+predict sampling policy, the session budget,
    crowd batching, worker quality and the open-world enumeration knobs.
    The acquisition runtime's knobs (worker pool, answer cache) belong to
    the catalog: see :meth:`~repro.db.catalog.Catalog.set_acquisition_runtime`.
    Accepted by ``repro.connect(policy=...)`` and
    ``Connection.set_policy()``, readable/settable per knob via ``PRAGMA
    acquisition_<knob>``.

    Parameters
    ----------
    sample_fraction:
        Fraction of acquisition candidates the crowd should answer; the
        predictor fills the rest.
    min_sample:
        Lower bound on the crowd sample (a predictor cannot train on two
        rows).  Attributes with at most this many candidates are acquired
        entirely from the crowd — hybrid acquisition never pays off there.
    max_sample:
        Optional upper bound on the crowd sample per attribute per query.
    min_confidence:
        Predicted cells stored with a confidence below this threshold are
        treated as acquisition candidates again by later queries (the
        crowd re-answers them).  0 disables re-acquisition.
    cost_ratio:
        Marginal cost of one predicted value relative to one crowd-sourced
        value (CPU vs. payment).  When the ratio reaches 1 the cost model
        concludes predicting saves nothing and plans crowd-only
        acquisition.
    crowd_cost_per_value:
        Estimated platform cost of one crowd-sourced value, used to cap
        the sample by the session's remaining budget.
    max_cost:
        Session budget in dollars (None = unlimited).  Once accumulated
        acquisition cost reaches it, no further batch is dispatched.
    crowd_batch_size:
        Missing rows coalesced into one platform call by ``CrowdFill``.
    crowd_write_back:
        Whether acquired values are persisted to storage.
    completeness_target:
        Default Chao92 coverage target for open-world enumerations that do
        not carry their own ``WITH COMPLETENESS >= x`` clause (None = run
        until exhaustion/budget).
    enum_dry_batches:
        Consecutive no-new-species batches after which an enumeration is
        considered exhausted.
    max_enum_batches:
        Hard cap on HIT batches per enumeration (backstop).
    gold_fraction:
        Fraction of each quality-tracked HIT batch padded with seeded
        *gold* items (known answers) used to estimate per-worker accuracy
        (see :mod:`repro.crowd.worker_quality`).  0 disables gold
        injection; agreement evidence still accrues.
    target_cell_confidence:
        Adaptive assignment sizing stops buying judgments for an item once
        its accuracy-weighted posterior confidence reaches this threshold.
    min_assignments, max_assignments:
        Judgments-per-item bounds of adaptive sizing: every item starts
        with ``min_assignments`` judgments, and unconfident items buy more
        in later rounds up to ``max_assignments``.  Only quality-tracking
        value sources consult these; flat sources keep their configured
        ``judgments_per_item``.
    """

    sample_fraction: float = 0.25
    min_sample: int = 10
    max_sample: int | None = None
    min_confidence: float = 0.0
    cost_ratio: float = 0.05
    crowd_cost_per_value: float = 0.01
    max_cost: float | None = None
    crowd_batch_size: int = 50
    crowd_write_back: bool = True
    completeness_target: float | None = None
    enum_dry_batches: int = 3
    max_enum_batches: int = 256
    gold_fraction: float = 0.1
    target_cell_confidence: float = 0.9
    min_assignments: int = 3
    max_assignments: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ExecutionError("sample_fraction must be in (0, 1]")
        if self.min_sample < 1:
            raise ExecutionError("min_sample must be at least 1")
        if self.max_sample is not None and self.max_sample < self.min_sample:
            raise ExecutionError("max_sample must be >= min_sample")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ExecutionError("min_confidence must be in [0, 1]")
        if self.cost_ratio < 0.0:
            raise ExecutionError("cost_ratio must be non-negative")
        if self.crowd_cost_per_value <= 0.0:
            raise ExecutionError("crowd_cost_per_value must be positive")
        if self.max_cost is not None and self.max_cost < 0.0:
            raise ExecutionError("max_cost must be non-negative")
        if self.crowd_batch_size <= 0:
            raise ExecutionError("crowd_batch_size must be positive")
        if self.completeness_target is not None and not 0.0 <= self.completeness_target <= 1.0:
            raise ExecutionError("completeness_target must be in [0, 1]")
        if self.enum_dry_batches <= 0:
            raise ExecutionError("enum_dry_batches must be positive")
        if self.max_enum_batches <= 0:
            raise ExecutionError("max_enum_batches must be positive")
        if not 0.0 <= self.gold_fraction <= 1.0:
            raise ExecutionError("gold_fraction must be in [0, 1]")
        if not 0.0 <= self.target_cell_confidence <= 1.0:
            raise ExecutionError("target_cell_confidence must be in [0, 1]")
        if self.min_assignments < 1:
            raise ExecutionError("min_assignments must be at least 1")
        if self.max_assignments < self.min_assignments:
            raise ExecutionError("max_assignments must be >= min_assignments")

    def with_overrides(self, **changes: Any) -> "AcquisitionPolicy":
        """Return a copy of the policy with the given fields replaced."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Sample plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """The planner's acquisition decision for one attribute of one query.

    ``candidate_rowids`` are the cells that need a value (MISSING plus any
    low-confidence predicted cells up for re-acquisition);
    ``sample_rowids`` is the subset the crowd answers.  Whatever the crowd
    does not cover is left to the predictor.
    """

    attribute: str
    candidate_rowids: tuple[int, ...]
    sample_rowids: frozenset[int] = field(default_factory=frozenset)

    @property
    def n_candidates(self) -> int:
        """Number of cells that need a value."""
        return len(self.candidate_rowids)

    @property
    def sample_size(self) -> int:
        """Number of cells the crowd answers."""
        return len(self.sample_rowids)

    @property
    def predicted_count(self) -> int:
        """Number of cells left to the predictor."""
        return self.n_candidates - self.sample_size

    def crowd_calls_saved(self, batch_size: int) -> int:
        """Platform calls a crowd-only plan would have needed extra.

        Crowd-only acquisition dispatches ``ceil(candidates / batch_size)``
        platform calls for this attribute; the hybrid plan dispatches only
        ``ceil(sample / batch_size)``.
        """
        if batch_size <= 0:
            raise ExecutionError(f"batch_size must be positive, got {batch_size}")
        all_calls = math.ceil(self.n_candidates / batch_size)
        sampled_calls = math.ceil(self.sample_size / batch_size)
        return max(0, all_calls - sampled_calls)

    def estimated_cost(self, policy: AcquisitionPolicy) -> float:
        """Estimated acquisition cost of this plan under *policy*."""
        crowd = self.sample_size * policy.crowd_cost_per_value
        predicted = self.predicted_count * policy.crowd_cost_per_value * policy.cost_ratio
        return crowd + predicted


def choose_sample_size(
    n_candidates: int,
    policy: AcquisitionPolicy,
    *,
    budget: float | None = None,
) -> int:
    """Pick how many of *n_candidates* cells the crowd should answer.

    The choice is cost-based: the fraction-derived sample (clamped to
    ``[min_sample, max_sample]``) is compared against crowd-only
    acquisition under the policy's cost model, and the cheaper plan wins.
    A remaining session *budget* (dollars) caps the sample from above;
    coverage is monotone in the budget.
    """
    if n_candidates <= 0:
        return 0
    if n_candidates <= policy.min_sample:
        size = n_candidates
    else:
        size = max(policy.min_sample, math.ceil(policy.sample_fraction * n_candidates))
        if policy.max_sample is not None:
            size = min(size, policy.max_sample)
        size = min(size, n_candidates)
        if size < n_candidates:
            hybrid = SamplePlan(
                "", tuple(range(n_candidates)), frozenset(range(size))
            ).estimated_cost(policy)
            crowd_only = n_candidates * policy.crowd_cost_per_value
            if hybrid >= crowd_only:
                # Predicting is not cheaper than asking: crowd-only.
                size = n_candidates
    if budget is not None:
        size = min(size, affordable_values(budget, policy))
    return size


def affordable_values(budget: float, policy: AcquisitionPolicy) -> int:
    """Crowd values a remaining *budget* buys at the policy's estimated price."""
    return int(max(0.0, budget) // policy.crowd_cost_per_value)


def select_sample(candidate_rowids: Iterable[int], size: int) -> frozenset[int]:
    """Deterministic, coverage-driven pick of *size* candidate rowids.

    Picks are evenly spaced over the *sorted* candidates, so the sample
    spreads across the whole table (insertion order usually correlates
    with data locality) instead of clustering at the start of the scan.
    The same candidates and size always yield the same sample.
    """
    ordered = sorted(set(candidate_rowids))
    if size <= 0:
        return frozenset()
    if size >= len(ordered):
        return frozenset(ordered)
    step = len(ordered) / size
    picks = {ordered[min(len(ordered) - 1, int(i * step + step / 2))] for i in range(size)}
    for rowid in ordered:  # top up if rounding ever collides
        if len(picks) >= size:
            break
        picks.add(rowid)
    return frozenset(picks)


def plan_sample(
    attribute: str,
    candidate_rowids: Iterable[int],
    policy: AcquisitionPolicy,
    *,
    budget: float | None = None,
    can_acquire: bool = True,
) -> SamplePlan:
    """Build the :class:`SamplePlan` for one attribute.

    With ``can_acquire=False`` (no crowd value source configured) the plan
    leaves everything to the predictor.
    """
    candidates = tuple(sorted(set(candidate_rowids)))
    if not can_acquire:
        return SamplePlan(attribute, candidates, frozenset())
    size = choose_sample_size(len(candidates), policy, budget=budget)
    return SamplePlan(attribute, candidates, select_sample(candidates, size))


# ---------------------------------------------------------------------------
# Value-source protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dispatch:
    """What a :class:`ValueSource` returns for one batch.

    ``values`` maps rowids to answers (unanswered rows are simply absent),
    ``cost`` is the dollars this one dispatch spent — the runtime charges
    it to the session exactly once — and ``quality`` optionally carries
    quality-tracked statistics: per-rowid posterior ``confidences``,
    ``assignments_saved`` and ``mean_worker_accuracy``.

    A cost that is negative or not finite is rejected at construction: it
    would let a source defeat the session budget cap.
    """

    values: dict[int, Any]
    cost: float = 0.0
    quality: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost) or self.cost < 0:
            raise ValueError(f"dispatch cost must be finite and non-negative, got {self.cost!r}")


class ValueSource(Protocol):
    """Anything that can answer a batch of MISSING cells of one attribute.

    Implementations live outside :mod:`repro.db` (the simulated crowd
    platform bridge is :class:`repro.crowd.sources.SimulatedCrowdValueSource`);
    the :class:`~repro.crowd.runtime.AcquisitionRuntime` is the only caller.
    """

    def request_values_with_quality(
        self,
        attribute: str,
        items: Sequence[tuple[int, dict[str, Any]]],
        *,
        policy: AcquisitionPolicy | None,
        tracker: WorkerQualityTracker,
    ) -> Dispatch:
        """Answer one batch of ``(rowid, row)`` items for *attribute*.

        *policy* is the dispatching session's policy (None outside a
        session) and *tracker* the runtime's catalog-wide worker-accuracy
        tracker; sources without quality tracking ignore both.  A source may
        answer fewer items than requested (e.g. workers did not know the
        item); those cells stay MISSING.
        """
        ...  # pragma: no cover - protocol definition


# ---------------------------------------------------------------------------
# Predictor protocol
# ---------------------------------------------------------------------------


@dataclass
class PredictionBatch:
    """What an :class:`AttributePredictor` returns for one attribute.

    ``values`` maps rowids to predicted values, ``confidences`` to a
    per-value confidence in ``[0, 1]`` (used for re-acquisition), ``rmse``
    is the model's training error (root-mean-square; boolean labels are
    scored as 0/1), and ``model_kind`` names the model that produced the
    predictions (``svr-rbf``, ``svc-rbf``, ``tsvm-rbf`` …).
    """

    values: dict[int, Any] = field(default_factory=dict)
    confidences: dict[int, float] = field(default_factory=dict)
    model_kind: str = "none"
    rmse: float | None = None
    training_size: int = 0

    def confidence_for(self, rowid: int, default: float = 0.5) -> float:
        """Confidence recorded for *rowid* (``default`` when absent)."""
        return float(self.confidences.get(rowid, default))


class AttributePredictor(Protocol):
    """Anything that can learn an attribute from examples and predict it.

    Implementations live outside :mod:`repro.db` (the perceptual-space
    predictor is :class:`repro.core.prediction.PerceptualPredictor`); the
    engine only relies on this narrow protocol.
    """

    def fit_predict(
        self,
        attribute: str,
        train: Sequence[tuple[int, dict[str, Any], Any]],
        targets: Sequence[tuple[int, dict[str, Any]]],
    ) -> PredictionBatch:
        """Train on ``(rowid, row, value)`` examples, predict for *targets*.

        May return fewer predictions than targets (e.g. rows whose item is
        unknown to the perceptual space) — uncovered cells stay MISSING.
        An implementation that cannot train (too few examples, one class
        only) should return an empty batch rather than raise.
        """
        ...  # pragma: no cover - protocol definition
