"""Ordered secondary indexes: sorted runs over :func:`~repro.db.types.sort_rank`.

One index kind serves every access path: equality lookups (the classic
``IndexLookup``), range predicates (``IndexRangeScan``) and sort
elimination (an ordered walk replaces the Sort operator).  Entries are
``(sort_rank(value), rowid)`` pairs kept in one sorted run — binary
search for probes, ``insort`` for maintenance, and a single bulk sort for
backfills (``CREATE INDEX`` on an existing table).

Ranking through :func:`~repro.db.types.sort_rank` — the same function the
Sort operator compares with — is load-bearing twice over:

* equality probes conflate ``1``, ``1.0`` and ``True`` exactly like the
  dict-keyed hash index they replace (their ranks compare equal), and
* an index-backed ORDER BY yields precisely the Sort operator's order,
  including NULLS LAST and ties in ascending-rowid order for *both*
  directions (a stable ``reverse=True`` sort keeps equal keys in their
  original — rowid — order, and so does the grouped descending walk
  here).

NULL and MISSING cells are tracked in a side set, not the sorted run:
they are unknowns, never returned by equality or range probes, and
appended last by ordered walks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterable, Iterator

from repro.db.types import is_absent, sort_rank

__all__ = ["OrderedIndex"]


class OrderedIndex:
    """Ordered index over one column: a sorted run of ``(rank, rowid)``."""

    __slots__ = ("column", "_entries", "_unknown")

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[tuple[Any, ...], int]] = []
        self._unknown: set[int] = set()

    # -- maintenance ------------------------------------------------------------

    def add(self, rowid: int, value: Any) -> None:
        """Index *rowid* under *value* (NULL/MISSING go to the unknown set)."""
        if is_absent(value):
            self._unknown.add(rowid)
            return
        insort(self._entries, (sort_rank(value), rowid))

    def remove(self, rowid: int, value: Any) -> None:
        """Remove *rowid*'s entry for *value* if present."""
        if is_absent(value):
            self._unknown.discard(rowid)
            return
        key = (sort_rank(value), rowid)
        i = bisect_left(self._entries, key)
        if i < len(self._entries) and self._entries[i] == key:
            del self._entries[i]

    def build(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Bulk-load from ``(rowid, value)`` pairs (one sort, not n insorts)."""
        entries = self._entries
        for rowid, value in pairs:
            if is_absent(value):
                self._unknown.add(rowid)
            else:
                entries.append((sort_rank(value), rowid))
        entries.sort()

    # -- probes -----------------------------------------------------------------

    def lookup(self, value: Any) -> frozenset[int]:
        """Rowids whose indexed value equals *value* (empty for unknowns)."""
        if is_absent(value):
            return frozenset()
        rank = sort_rank(value)
        lo = bisect_left(self._entries, (rank,))
        hi = bisect_right(self._entries, (rank, _MAX_ROWID))
        return frozenset(rowid for _rank, rowid in self._entries[lo:hi])

    def range_pairs(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[tuple[tuple[Any, ...], int]]:
        """Entries with ``low <op> value <op> high``, in index order.

        ``None`` bounds are open ends (*not* SQL NULL — a NULL bound makes
        the predicate unknown and is the planner's job to reject).
        Unknown cells are never inside any range.
        """
        entries = self._entries
        lo = 0
        if low is not None:
            rank = sort_rank(low)
            lo = bisect_left(entries, (rank,)) if low_inclusive else bisect_right(
                entries, (rank, _MAX_ROWID)
            )
        hi = len(entries)
        if high is not None:
            rank = sort_rank(high)
            hi = bisect_right(entries, (rank, _MAX_ROWID)) if high_inclusive else bisect_left(
                entries, (rank,)
            )
        return entries[lo:hi]

    def range_rowids(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Rowids matching the range, ordered by (value, rowid)."""
        return [
            rowid
            for _rank, rowid in self.range_pairs(
                low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
            )
        ]

    # -- ordered walks ----------------------------------------------------------

    def ordered_rowids(self, *, descending: bool = False) -> Iterator[int]:
        """All rowids in index order; unknowns last in both directions.

        Ascending is the run order.  Descending walks rank groups in
        reverse but keeps rowids *ascending inside each group*, matching
        a stable ``reverse=True`` sort (equal keys keep original order).
        """
        entries = self._entries
        if not descending:
            for _rank, rowid in entries:
                yield rowid
        else:
            hi = len(entries)
            while hi > 0:
                rank = entries[hi - 1][0]
                lo = bisect_left(entries, (rank,), 0, hi)
                for _rank, rowid in entries[lo:hi]:
                    yield rowid
                hi = lo
        yield from sorted(self._unknown)

    def __len__(self) -> int:
        """Number of *indexed* entries (unknown cells are not indexed)."""
        return len(self._entries)


#: Sentinel above every real rowid (rowids are positive ints).
_MAX_ROWID = float("inf")
