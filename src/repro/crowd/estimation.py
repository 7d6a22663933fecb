"""Species estimation over streaming crowd answers (open-world enumeration).

When the crowd *enumerates* an open-ended result set ("list all ice cream
flavors") instead of labelling known rows, the engine has to decide when to
stop paying for more HITs.  "Getting It All from the Crowd" (Trushkowsky
et al., ICDE 2013) frames this as a species-estimation problem: the stream
of worker answers is a sample from an unknown population of distinct items,
and sample-coverage estimators predict how much of the population the
sample has already seen.

:class:`Chao92Estimator` implements the estimator this module is named
after (Chao & Lee 1992, sample-coverage based) in streaming form:

* the **sample coverage** ``C_hat = 1 - f1/n`` (``f1`` = singletons, ``n``
  = total observations) estimates the probability mass of the species seen
  so far;
* the **population estimate** is ``N_hat = D / C_hat`` (``D`` = distinct
  species observed);
* when every observation is a singleton (``f1 == n``, the degenerate
  small-sample case where ``C_hat == 0`` would divide by zero), the
  estimator falls back to the bias-corrected Chao1 form
  ``N_hat = D + f1*(f1-1) / (2*(f2+1))``, which is finite even with no
  doubletons (``f2 == 0``).

The two forms agree exactly on the boundary (an all-singleton sample of
size ``D`` yields ``D*(D+1)/2`` either way), which gives the estimator the
monotonicity properties the stopping rule relies on — observing a
duplicate can never *raise* ``est_total`` (see
``tests/crowd/test_estimation.py`` for the property suite).

No coefficient-of-variation correction term is applied: the homogeneous
form keeps the estimator deterministic and provably monotone under
duplicate-only batches, which is what makes the stopping rule safe to gate
in CI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Chao92Estimator",
    "ENUMERATION_PREFIX",
    "ENUMERATION_TABLE",
    "EnumerationStats",
    "enumeration_attribute",
    "enumeration_predicate",
    "normalize_entity",
]

_WHITESPACE = re.compile(r"\s+")

#: Synthetic attribute-name prefix enumeration batches are requested under.
#: Value sources recognise it to switch from fill mode (answer one cell per
#: row) to enumeration mode (answer one *list* of items per batch index).
ENUMERATION_PREFIX = "__enum__:"

#: Synthetic table name open-world enumerations use for answer-cache keys
#: (one cache cell per (predicate, batch index)).  Shared between the
#: ``CrowdEnumerate`` operator and the durability layer, which journals
#: dispatched batches and warm-starts recovered answers under this key.
ENUMERATION_TABLE = "__crowd__"


def enumeration_attribute(predicate: str) -> str:
    """The synthetic attribute name enumeration batches use for *predicate*."""
    return ENUMERATION_PREFIX + predicate


def enumeration_predicate(attribute: str) -> Optional[str]:
    """The predicate of an enumeration attribute, or None for fill attributes."""
    if attribute.startswith(ENUMERATION_PREFIX):
        return attribute[len(ENUMERATION_PREFIX):]
    return None


def normalize_entity(value: Any) -> str:
    """Canonical dedup key for one enumerated answer.

    Entity resolution for open-world answers is deliberately simple and
    deterministic: case folding plus whitespace collapsing, so "Rocky
    Road", "rocky road" and "ROCKY  ROAD" resolve to one species while
    genuinely different answers stay distinct.
    """
    return _WHITESPACE.sub(" ", str(value).strip()).casefold()


class Chao92Estimator:
    """Streaming Chao92 sample-coverage estimator over answer keys.

    Feed every raw crowd answer through :meth:`observe` (already-normalized
    keys); the estimator maintains the frequency-of-frequencies counters
    (``f1``/``f2``) incrementally, so each observation is O(1) and the
    stopping rule can be evaluated after every HIT batch.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._n = 0
        self._f1 = 0
        self._f2 = 0

    # -- stream input --------------------------------------------------------

    def observe(self, key: str) -> bool:
        """Record one observation of *key*; True if it is new to the sample."""
        self._n += 1
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count == 1:
            self._f1 += 1
        elif count == 2:
            self._f1 -= 1
            self._f2 += 1
        elif count == 3:
            self._f2 -= 1
        return count == 1

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    # -- counters ------------------------------------------------------------

    @property
    def sample_size(self) -> int:
        """``n``: total observations (with duplicates)."""
        return self._n

    @property
    def unique_seen(self) -> int:
        """``D``: distinct species observed so far."""
        return len(self._counts)

    @property
    def singletons(self) -> int:
        """``f1``: species observed exactly once."""
        return self._f1

    @property
    def doubletons(self) -> int:
        """``f2``: species observed exactly twice."""
        return self._f2

    # -- estimates -----------------------------------------------------------

    def coverage(self) -> float:
        """Sample coverage ``C_hat = 1 - f1/n``, clamped into [0, 1]."""
        if self._n == 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.singletons / self._n))

    def est_total(self) -> float:
        """Estimated number of distinct species in the population.

        ``D / C_hat`` when the sample coverage is positive; the
        bias-corrected Chao1 fallback ``D + f1*(f1-1)/(2*(f2+1))`` when the
        sample is too small to carry a coverage estimate (all singletons).
        """
        distinct = self.unique_seen
        if distinct == 0:
            return 0.0
        coverage = self.coverage()
        if coverage > 0.0:
            return distinct / coverage
        f1 = self.singletons
        return distinct + (f1 * (f1 - 1)) / (2.0 * (self.doubletons + 1))

    def est_coverage(self) -> float:
        """Estimated fraction of the population already seen (``D / N_hat``)."""
        total = self.est_total()
        if total <= 0.0:
            return 0.0
        return min(1.0, max(0.0, self.unique_seen / total))


@dataclass
class EnumerationStats:
    """Counters of one open-world enumeration, as surfaced everywhere.

    The same object backs the ``CrowdEnumerate`` operator's EXPLAIN ANALYZE
    line, the :class:`~repro.db.sql.executor.QueryResult.enumeration` field
    of ``INSERT ... FROM CROWD``, and the ``enumeration`` response field of
    the wire protocol — one shape, three surfaces.
    """

    predicate: str = ""
    rows_enumerated: int = 0
    unique_seen: int = 0
    est_total: float = 0.0
    est_coverage: float = 0.0
    stopped_on: Optional[str] = None
    batches: int = 0
    sample_size: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    cost: float = 0.0
    completeness_target: Optional[float] = None
    budget: Optional[float] = None
    _extra: dict[str, Any] = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dict for the wire protocol and client surfaces."""
        return {
            "predicate": self.predicate,
            "rows_enumerated": self.rows_enumerated,
            "unique_seen": self.unique_seen,
            "est_total": round(self.est_total, 4),
            "est_coverage": round(self.est_coverage, 4),
            "stopped_on": self.stopped_on,
            "batches": self.batches,
            "sample_size": self.sample_size,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "cost": round(self.cost, 6),
            "completeness_target": self.completeness_target,
            "budget": self.budget,
        }
