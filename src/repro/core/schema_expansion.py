"""The schema expander: wiring expansion policies into the crowd database.

:class:`SchemaExpander` registers itself as the expansion handler of a
:class:`~repro.db.connection.Connection`.  When a query references a
perceptual attribute that does not exist, the expander

1. adds the column (MISSING everywhere),
2. maps the table's rows to perceptual-space item ids via a key column,
3. asks its :class:`~repro.core.policies.ExpansionPolicy` for the values,
4. writes them back, records cost/time in the ledger and charges the
   session budget, and
5. signals the connection to re-run the query.

Expansion can also be invoked explicitly via :meth:`expand_attribute`, which
is what the experiment harness does.

New code should configure expansion through the fluent
:class:`ExpansionPipeline` builder instead of the constructor-kwargs sprawl::

    conn.expansion() \
        .with_policy(policy) \
        .with_key("movie_id") \
        .with_truth({"cult_film": truth}) \
        .allow("cult_film") \
        .attach()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.ledger import ExpansionLedger
from repro.core.policies import ExpansionPolicy, PolicyResult
from repro.db.acquisition import PROVENANCE_CROWD
from repro.db.types import ColumnType, is_missing
from repro.errors import ExpansionError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.db.connection import Connection, SessionContext

#: What the expander operates on.  Kept as an alias from the era of the
#: removed ``CrowdDatabase`` shim; today it is always a Connection.
DatabaseLike = "Connection"


@dataclass
class ExpansionReport:
    """Summary of one attribute expansion."""

    table: str
    attribute: str
    rows_total: int
    rows_filled: int
    cost: float
    minutes: float
    judgments: int
    policy_details: dict[str, object] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of rows that received a value."""
        if self.rows_total == 0:
            return 1.0
        return self.rows_filled / self.rows_total


class SchemaExpander:
    """Performs query-driven schema expansion on one database table.

    Parameters
    ----------
    database:
        The connection to operate on.
    policy:
        The strategy used to obtain missing values.
    key_column:
        Column mapping rows to perceptual-space / ground-truth item ids
        (e.g. ``movie_id``).
    truth:
        ``attribute -> {item_id: bool}`` ground truth used to drive the
        simulated crowd workers.  In a live deployment this would not
        exist; it is the simulation's stand-in for the crowd's knowledge.
    allowed_attributes:
        Optional whitelist of attributes the expander may create; queries
        referencing other unknown columns fail as usual.  Purely factual
        attributes (e.g. email addresses) should not be listed — the paper
        notes they cannot be derived from rating behaviour.
    ledger:
        Cost ledger; defaults to the session's ledger so several expanders
        attached to one connection share the same accounting.
    """

    def __init__(
        self,
        database: DatabaseLike,
        policy: ExpansionPolicy,
        *,
        key_column: str = "item_id",
        truth: Mapping[str, Mapping[int, bool]] | None = None,
        allowed_attributes: set[str] | None = None,
        column_type: ColumnType = ColumnType.BOOLEAN,
        ledger: ExpansionLedger | None = None,
    ) -> None:
        self.database = database
        self.policy = policy
        self.key_column = key_column
        self.truth = {k: dict(v) for k, v in (truth or {}).items()}
        self.allowed_attributes = (
            {a.lower() for a in allowed_attributes} if allowed_attributes is not None else None
        )
        self.column_type = column_type
        if ledger is not None:
            self.ledger = ledger
        else:
            session = self._session
            self.ledger = session.ledger if session is not None else ExpansionLedger()
        self.reports: list[ExpansionReport] = []

    @property
    def _session(self) -> "SessionContext | None":
        return getattr(self.database, "session", None)

    def _catalog_lock(self):
        """The shared catalog's lock (guards storage reads and writes)."""
        return self.database.catalog.lock

    # -- database hook --------------------------------------------------------------

    def attach(self) -> "SchemaExpander":
        """Register this expander as the session's expansion handler."""
        self.database.set_expansion_handler(self.handle_unknown_column)
        return self

    def handle_unknown_column(self, table: str, column: str) -> bool:
        """Expansion-handler callback: expand *column* of *table* if allowed."""
        attribute = column.lower()
        if self.allowed_attributes is not None and attribute not in self.allowed_attributes:
            return False
        session = self._session
        if session is not None and session.budget_exhausted:
            return False
        try:
            self.expand_attribute(table, attribute)
        except ExpansionError:
            return False
        return True

    # -- explicit expansion -----------------------------------------------------------

    def expand_attribute(self, table: str, attribute: str) -> ExpansionReport:
        """Add *attribute* to *table* and fill it via the expansion policy.

        Schema changes, the row scan and the write-back run under the
        catalog lock; the (potentially slow) policy call that obtains the
        values from the crowd does not, so other connections sharing the
        catalog are never serialized behind crowd-sourcing.

        Concurrent expansions of the same attribute from several
        connections are coalesced through the catalog's in-flight registry:
        exactly one connection pays the crowd cost, the others wait for its
        result and reuse the filled column.
        """
        attribute = attribute.lower()
        catalog = self.database.catalog
        while True:
            event, owner = catalog.begin_expansion(table, attribute)
            if owner:
                break
            event.wait()
            try:
                return self._report_existing(table, attribute)
            except ExpansionError:
                # The owning session's expansion failed (no column was
                # produced); loop back and try to run our own policy.
                continue
        try:
            with self._catalog_lock():
                storage = self.database.table(table)
                if attribute in storage.schema and not storage.missing_rowids(attribute):
                    # Already fully expanded (e.g. by an earlier session).
                    return self._report_existing(table, attribute)
                rowid_to_item = self._rowid_to_item_map(table)
            item_ids = sorted(set(rowid_to_item.values()))
            if not item_ids:
                raise ExpansionError(
                    f"table {table!r} has no usable {self.key_column!r} values to expand on"
                )

            truth = self.truth.get(attribute, {})
            result = self.policy.expand(attribute, item_ids, truth)
            with self._catalog_lock():
                # The column only becomes visible together with its values:
                # concurrent sessions either see the finished expansion or
                # an unknown column (and then wait on the registry), never a
                # half-filled column.
                storage = self.database.table(table)
                if attribute not in storage.schema:
                    self.database.add_perceptual_column(table, attribute, self.column_type)
                rows_filled = self._write_back(table, attribute, rowid_to_item, result)
        finally:
            catalog.end_expansion(table, attribute)

        report = ExpansionReport(
            table=table,
            attribute=attribute,
            rows_total=len(rowid_to_item),
            rows_filled=rows_filled,
            cost=result.cost,
            minutes=result.minutes,
            judgments=result.judgments,
            policy_details=dict(result.details),
        )
        self.reports.append(report)
        self.ledger.record(
            step=str(result.details.get("policy", type(self.policy).__name__)),
            attribute=attribute,
            cost=result.cost,
            minutes=result.minutes,
            judgments=result.judgments,
            values_obtained=rows_filled,
        )
        session = self._session
        if session is not None:
            session.record_cost(result.cost)
        return report

    # -- helpers ---------------------------------------------------------------------------

    def _rowid_to_item_map(self, table: str) -> dict[int, int]:
        storage = self.database.table(table)
        key = storage.schema.column(self.key_column).name
        mapping: dict[int, int] = {}
        for rowid, row in storage.scan():
            value = row.get(key)
            if value is None or is_missing(value):
                continue
            mapping[rowid] = int(value)
        return mapping

    def _report_existing(self, table: str, attribute: str) -> ExpansionReport:
        """Zero-cost report for an attribute another session already expanded."""
        with self._catalog_lock():
            storage = self.database.table(table)
            if attribute not in storage.schema:
                raise ExpansionError(
                    f"concurrent expansion of {table}.{attribute} did not produce the column"
                )
            rows_total = len(storage)
            rows_missing = len(storage.missing_rowids(attribute))
        report = ExpansionReport(
            table=table,
            attribute=attribute,
            rows_total=rows_total,
            rows_filled=rows_total - rows_missing,
            cost=0.0,
            minutes=0.0,
            judgments=0,
            policy_details={"policy": "already-expanded"},
        )
        self.reports.append(report)
        return report

    def _write_back(
        self,
        table: str,
        attribute: str,
        rowid_to_item: Mapping[int, int],
        result: PolicyResult,
    ) -> int:
        storage = self.database.table(table)
        updates = {
            rowid: result.values[item_id]
            for rowid, item_id in rowid_to_item.items()
            if item_id in result.values
        }
        # skip_deleted: a concurrent session may have removed rows between
        # the scan and the (unlocked) policy call; their values are dropped.
        return storage.fill_values(
            attribute, updates, skip_deleted=True, provenance=PROVENANCE_CROWD
        )


class ExpansionPipeline:
    """Fluent builder configuring query-driven schema expansion.

    Obtained from :meth:`repro.db.connection.Connection.expansion`; every
    ``with_*``/``allow`` call returns the builder so the configuration reads
    as one chain, and :meth:`attach` finally registers the built
    :class:`SchemaExpander` as the connection's session-scoped handler::

        expander = (
            conn.expansion()
            .with_policy(policy)
            .with_key("movie_id")
            .with_truth({"cult_film": truth})
            .allow("cult_film")
            .attach()
        )

    The session budget is an acquisition knob like every other: set
    ``AcquisitionPolicy.max_cost`` through
    :meth:`~repro.db.connection.Connection.set_policy`.
    """

    def __init__(self, database: DatabaseLike) -> None:
        self._database = database
        self._policy: ExpansionPolicy | None = None
        self._key_column = "item_id"
        self._truth: dict[str, Mapping[int, bool]] = {}
        self._allowed: set[str] | None = None
        self._column_type = ColumnType.BOOLEAN
        self._ledger: ExpansionLedger | None = None
        self._value_source: object | None = None
        self._value_source_set = False

    def with_policy(self, policy: ExpansionPolicy) -> "ExpansionPipeline":
        """Use *policy* to obtain values for expanded attributes."""
        self._policy = policy
        return self

    def with_key(self, key_column: str) -> "ExpansionPipeline":
        """Map rows to item ids through *key_column* (default ``item_id``)."""
        self._key_column = key_column
        return self

    def with_truth(
        self, truth: Mapping[str, Mapping[int, bool]]
    ) -> "ExpansionPipeline":
        """Provide simulated ground truth per attribute (merged on repeat calls)."""
        self._truth.update(truth)
        return self

    def allow(self, *attributes: str) -> "ExpansionPipeline":
        """Whitelist *attributes* for expansion (default: everything allowed)."""
        if self._allowed is None:
            self._allowed = set()
        self._allowed.update(a.lower() for a in attributes)
        return self

    def with_column_type(self, column_type: ColumnType) -> "ExpansionPipeline":
        """Storage type of newly expanded columns (default BOOLEAN)."""
        self._column_type = column_type
        return self

    def with_ledger(self, ledger: ExpansionLedger) -> "ExpansionPipeline":
        """Record cost/time into *ledger* instead of the session's ledger."""
        self._ledger = ledger
        return self

    def with_value_source(self, source: object) -> "ExpansionPipeline":
        """Install a batch ValueSource for query-time ``CrowdFill`` batching.

        Once attached, queries touching crowd-sourced columns with MISSING
        values dispatch them to *source* in coalesced batches (one platform
        call per attribute per ``AcquisitionPolicy.crowd_batch_size``
        missing rows).
        """
        if getattr(self._database, "session", None) is None:
            raise ExpansionError("with_value_source requires a connection with a session")
        self._value_source = source
        self._value_source_set = True
        return self

    def build(self) -> SchemaExpander:
        """Construct the :class:`SchemaExpander` without attaching it."""
        if self._policy is None:
            raise ExpansionError("ExpansionPipeline needs a policy; call with_policy(...)")
        if self._value_source_set:
            self._database.session.value_source = self._value_source
        return SchemaExpander(
            self._database,
            self._policy,
            key_column=self._key_column,
            truth=self._truth,
            allowed_attributes=self._allowed,
            column_type=self._column_type,
            ledger=self._ledger,
        )

    def attach(self) -> SchemaExpander:
        """Build the expander and register it as the session's handler."""
        return self.build().attach()
