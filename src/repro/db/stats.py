"""Per-table statistics feeding the cost-based planner.

Every table maintains lightweight statistics on the write path — row
count, per-column non-null counts, numeric min/max and a KMV (k minimum
values) distinct-count sketch — and ``ANALYZE`` (``PRAGMA analyze``)
additionally builds equi-width histograms from a full scan.  The planner
turns these into cardinality estimates when choosing between SeqScan,
IndexLookup and IndexRangeScan; ``EXPLAIN ANALYZE`` reports the estimate
next to the actual row count so mis-estimates are visible.

Statistics ride the snapshot (:func:`TableStats.to_state`), so a
recovered database plans with the same numbers it had before the restart;
write-path maintenance is append-only (deletes do not shrink NDV or
min/max — they are estimates, corrected by the next ``ANALYZE``).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Iterable
from zlib import crc32

from repro.db.types import MISSING, is_absent

__all__ = ["ColumnStats", "TableStats", "KMV_K", "HISTOGRAM_BUCKETS"]

#: Size of the k-minimum-values sketch (error ~ 1/sqrt(k) ≈ 9%).
KMV_K = 128

#: Bucket count of the equi-width histograms built by ANALYZE.
HISTOGRAM_BUCKETS = 16

#: Hash space of the KMV sketch (crc32 is deterministic across runs,
#: unlike ``hash()`` under PYTHONHASHSEED).
_HASH_SPACE = float(2**32)


class ColumnStats:
    """Write-maintained statistics of one column."""

    __slots__ = ("non_null", "min_numeric", "max_numeric", "_kmv", "histogram")

    def __init__(self) -> None:
        self.non_null = 0
        self.min_numeric: float | None = None
        self.max_numeric: float | None = None
        #: Sorted k smallest hashes seen (the KMV distinct-count sketch).
        self._kmv: list[int] = []
        #: Equi-width bucket counts over [min, max], built by ANALYZE.
        self.histogram: list[int] | None = None

    def observe(self, value: Any) -> None:
        """Fold one written value into the statistics."""
        if value is None or value is MISSING:
            return
        self.non_null += 1
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            numeric = float(value)
            if self.min_numeric is None or numeric < self.min_numeric:
                self.min_numeric = numeric
            if self.max_numeric is None or numeric > self.max_numeric:
                self.max_numeric = numeric
        # KMV hash: crc32 of the repr (see _HASH_SPACE).
        digest = crc32(repr(value).encode("utf-8"))
        kmv = self._kmv
        if len(kmv) < KMV_K or digest < kmv[-1]:
            if digest not in kmv:
                insort(kmv, digest)
                if len(kmv) > KMV_K:
                    kmv.pop()

    @property
    def ndv(self) -> int:
        """Estimated number of distinct values (KMV estimator)."""
        kmv = self._kmv
        if not kmv:
            return 0
        if len(kmv) < KMV_K:
            return len(kmv)
        return max(len(kmv), int((KMV_K - 1) * _HASH_SPACE / float(kmv[-1] or 1)))

    def build_histogram(self, values: Iterable[Any]) -> None:
        """Build the equi-width histogram from a full column scan."""
        low, high = self.min_numeric, self.max_numeric
        if low is None or high is None or high <= low:
            self.histogram = None
            return
        width = (high - low) / HISTOGRAM_BUCKETS
        buckets = [0] * HISTOGRAM_BUCKETS
        for value in values:
            if is_absent(value) or not isinstance(value, (int, float)):
                continue
            bucket = int((float(value) - low) / width)
            buckets[min(max(bucket, 0), HISTOGRAM_BUCKETS - 1)] += 1
        self.histogram = buckets

    # -- estimation ---------------------------------------------------------------

    def range_fraction(
        self,
        low: float | None,
        high: float | None,
    ) -> float | None:
        """Estimated fraction of non-null values inside ``[low, high]``.

        Histogram-based when available, linear interpolation over
        ``[min, max]`` otherwise; None when the column has no numeric
        statistics (the planner falls back to a default selectivity).
        """
        col_low, col_high = self.min_numeric, self.max_numeric
        if col_low is None or col_high is None:
            return None
        low = col_low if low is None else max(low, col_low)
        high = col_high if high is None else min(high, col_high)
        if high < low:
            return 0.0
        if col_high <= col_low:
            return 1.0
        if self.histogram:
            total = sum(self.histogram) or 1
            width = (col_high - col_low) / len(self.histogram)
            covered = 0.0
            for i, count in enumerate(self.histogram):
                b_low = col_low + i * width
                b_high = b_low + width
                overlap = min(high, b_high) - max(low, b_low)
                if overlap > 0:
                    covered += count * min(overlap / width, 1.0)
                elif overlap == 0 and low == high and b_low <= low <= b_high:
                    covered += count / max(total, 1)
            return min(covered / total, 1.0)
        return min((high - low) / (col_high - col_low), 1.0)

    # -- serialization -------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """JSON-safe dict for the snapshot."""
        return {
            "non_null": self.non_null,
            "min": self.min_numeric,
            "max": self.max_numeric,
            "kmv": list(self._kmv),
            "histogram": self.histogram,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "ColumnStats":
        """Inverse of :meth:`to_state`."""
        stats = cls()
        stats.non_null = int(state.get("non_null", 0))
        stats.min_numeric = state.get("min")
        stats.max_numeric = state.get("max")
        stats._kmv = sorted(int(digest) for digest in state.get("kmv", []))[:KMV_K]
        histogram = state.get("histogram")
        stats.histogram = [int(count) for count in histogram] if histogram else None
        return stats


class TableStats:
    """Statistics of one table: per-column stats plus the row count.

    The row count is read live from the storage (it is exact there); the
    per-column structures are maintained by the storage's write path and
    rebuilt wholesale by :meth:`analyze`.
    """

    #: Selectivity assumed for a range whose bounds cannot be estimated.
    DEFAULT_RANGE_SELECTIVITY = 0.25

    def __init__(self) -> None:
        self._columns: dict[str, ColumnStats] = {}
        #: Set by the storage layer; kept current via observe/forget.
        self.row_count = 0

    def column(self, name: str) -> ColumnStats:
        """The (lazily created) statistics of column *name*."""
        stats = self._columns.get(name)
        if stats is None:
            stats = self._columns[name] = ColumnStats()
        return stats

    def observe_row(self, row: dict[str, Any]) -> None:
        """Fold one inserted/restored row into the statistics."""
        self.row_count += 1
        columns = self._columns
        for name, value in row.items():
            stats = columns.get(name)
            if stats is None:
                stats = columns[name] = ColumnStats()
            stats.observe(value)

    def observe_value(self, column: str, value: Any) -> None:
        """Fold one updated cell into the statistics."""
        self.column(column).observe(value)

    def forget_row(self) -> None:
        """Account a deleted row (sketches are not shrunk — estimates)."""
        if self.row_count > 0:
            self.row_count -= 1

    def analyze(self, rows: Iterable[dict[str, Any]]) -> None:
        """Rebuild all statistics (including histograms) from a full scan."""
        materialized = [dict(row) for row in rows]
        self._columns = {}
        self.row_count = 0
        for row in materialized:
            self.observe_row(row)
        for name, stats in self._columns.items():
            stats.build_histogram(row.get(name) for row in materialized)

    def column_summaries(self) -> dict[str, dict[str, Any]]:
        """Per-column summary rows for ``PRAGMA table_stats`` (ndv estimated)."""
        return {
            name: {
                "non_null": stats.non_null,
                "ndv": stats.ndv,
                "min": stats.min_numeric,
                "max": stats.max_numeric,
                "histogram_buckets": len(stats.histogram) if stats.histogram else 0,
            }
            for name, stats in self._columns.items()
        }

    # -- estimation ---------------------------------------------------------------

    def estimate_equality(self, column: str, rows: int) -> int:
        """Estimated matches of ``column = literal`` over *rows* rows."""
        ndv = self.column(column).ndv
        if ndv <= 0:
            return max(rows, 0)
        return max(1, round(rows / ndv))

    def estimate_range(
        self,
        column: str,
        rows: int,
        low: float | None,
        high: float | None,
    ) -> int:
        """Estimated matches of a range predicate over *rows* rows."""
        fraction = self.column(column).range_fraction(low, high)
        if fraction is None:
            fraction = self.DEFAULT_RANGE_SELECTIVITY
        return max(1, round(rows * fraction)) if rows > 0 else 0

    # -- serialization -------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """JSON-safe dict for the snapshot (row count rides along)."""
        return {
            "row_count": self.row_count,
            "columns": {name: stats.to_state() for name, stats in self._columns.items()},
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`to_state`."""
        self.row_count = int(state.get("row_count", 0))
        self._columns = {
            name: ColumnStats.from_state(column)
            for name, column in state.get("columns", {}).items()
        }
