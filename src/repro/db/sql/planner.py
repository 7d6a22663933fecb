"""Query planner: turns parsed SELECT statements into executable plans.

The planner is deliberately small but real: it expands ``*`` projections,
resolves and validates every column reference against the catalog (this is
where an unknown perceptual attribute surfaces as
:class:`~repro.errors.UnknownColumnError`, the trigger for query-driven
schema expansion) and detects aggregation.

Access paths are chosen in one place, :meth:`Planner.choose_scan_path`,
at lowering time (physical, per execution, under the catalog lock); the
logical plan :meth:`Planner.plan_select` caches per schema version carries
none.  A top-level ``col = literal`` (or ``col = ?``) over an indexed
column is a point probe — the classic ``IndexLookup`` — and wins outright.
Otherwise a small cost model over the table's
:class:`~repro.db.stats.TableStats` weighs range predicates (``<``,
``<=``, ``>``, ``>=``, ``BETWEEN``) over an indexed column against a full
scan, and serves a single-column ORDER BY over an indexed column by an
ordered index walk with the Sort operator eliminated.  Every index path
lowers to an :class:`~repro.db.sql.operators.IndexRangeScan`.  Only
single-table scans are considered.  Range and ordered paths are taken only
when the session acquires nothing (no value source, no predictor), and a
point probe on a perceptual column only then: an index never returns a
MISSING cell, which CrowdFill and PredictFill must see to fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind
from repro.db.sql import ast
from repro.db.sql.expressions import NO_TABLES, Params, RowLayout, evaluate, expression_label
from repro.db.types import is_absent
from repro.errors import PlanningError, UnknownColumnError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import SessionContext

# ---------------------------------------------------------------------------
# Plan data structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPlan:
    """One table a plan reads and the alias it is bound to."""

    table: str
    alias: str


# Not frozen: one is built per execution, and a frozen dataclass's
# __init__ costs about a microsecond more.
@dataclass
class AccessPath:
    """Index access verdict for the driving scan of a single-table plan.

    Produced by :meth:`Planner.choose_scan_path` and consumed by
    :func:`~repro.db.sql.operators.lower_select_plan`, which lowers it to
    an :class:`~repro.db.sql.operators.IndexRangeScan`.  Bounds are kept
    as expressions (literals or ``?`` placeholders) and resolved at operator
    ``open()`` time; ``None`` bounds are open ends.  A point probe
    (``col = v``) shares one key expression as both bounds.  With
    ``ordered`` set the scan walks the whole index in order and the Sort
    operator is eliminated from the lowered tree.
    """

    column: str
    low: Optional[ast.Expression] = None
    high: Optional[ast.Expression] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    #: Scan emits rows in index order (value asc/desc, unknowns last), so
    #: the lowering skips the Sort operator.
    ordered: bool = False
    descending: bool = False
    #: Cost-model row estimate for the scan's output (EXPLAIN ANALYZE
    #: renders it as ``est=N`` next to the actual row count).
    est_rows: int = 0


#: Cost-model constant (unitless, relative to one sequentially scanned row).
#: An index probe fetches rows point-wise through the buffer pool, which the
#: model prices at a multiple of a sequential read; the comparison-based Sort
#: pays ``log2`` per row.
COST_INDEX_FETCH = 2.0


@dataclass(frozen=True)
class JoinPlan:
    """One join step applied to the accumulated row set."""

    scan: ScanPlan
    condition: Optional[ast.Expression]
    kind: str


@dataclass(frozen=True)
class OutputColumn:
    """One output column of the final projection."""

    expression: ast.Expression
    name: str
    aggregate: bool


@dataclass(frozen=True)
class AggregatePlan:
    """Grouping/aggregation specification."""

    group_by: tuple[ast.Expression, ...]
    having: Optional[ast.Expression]


@dataclass(frozen=True)
class SelectPlan:
    """Fully resolved plan for a SELECT statement."""

    scan: Optional[ScanPlan]
    joins: tuple[JoinPlan, ...]
    where: Optional[ast.Expression]
    output: tuple[OutputColumn, ...]
    aggregate: Optional[AggregatePlan]
    order_by: tuple[ast.OrderItem, ...]
    limit: Optional[int]
    offset: Optional[int]
    distinct: bool
    #: Every column reference as ``(alias_lowercase_or_None, name)`` pairs.
    #: The table qualifier is kept, so lowering can decide per scanned
    #: table which columns a query actually reads (the CrowdFill operator
    #: must never spend crowd money on a same-named column of a table the
    #: query does not touch).
    referenced_refs: tuple[tuple[Optional[str], str], ...] = field(default=())
    #: Set for ``SELECT ... FROM CROWD`` open-world queries; ``scan`` is
    #: None and lowering routes to the CrowdEnumerate operator.
    from_crowd: Optional[ast.CrowdRelation] = None
    #: The slot of each FROM/JOIN table in a pipeline row, in plan order;
    #: every operator compiles its expressions against it.
    layout: RowLayout = NO_TABLES


#: The one slot of a ``FROM CROWD`` pipeline row: the relation's ``value``.
_CROWD_LAYOUT = RowLayout((("crowd", frozenset({"value"})),))


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class Planner:
    """Builds :class:`SelectPlan` objects for a given catalog.

    Planning is split in two phases: :meth:`plan_select` produces the
    *logical* plan (validated, catalog-independent of runtime state, safe
    to cache per schema version), and :meth:`lower` turns a logical plan
    into the *physical* operator tree that actually executes — access
    paths, join strategies and crowd-fill batching are chosen there.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # -- public API -----------------------------------------------------------

    def lower(
        self,
        plan: SelectPlan,
        *,
        params: Params = (),
        session: SessionContext | None = None,
        hash_joins: bool = True,
    ):
        """Lower a logical plan into a physical operator tree.

        Thin façade over
        :func:`repro.db.sql.operators.lower_select_plan`; see there for
        the runtime-parameter semantics.  Must run under the catalog lock
        when the catalog is shared.

        Acquisition strategy is chosen here, per lowering, from the
        *session*: with only a value source every MISSING crowd-sourced
        cell a query touches is dispatched to the platform; adding a
        predictor switches to hybrid acquisition, where the sample-size
        choice
        (:func:`repro.db.acquisition.choose_sample_size`) weighs the
        crowd's per-value cost against the predictor's and caps the crowd
        sample by the session's remaining budget.

        The access path is chosen here too, by :meth:`choose_scan_path`
        (statistics and the session are runtime state, so the choice must
        not be cached with the logical plan).  The first lowering by a
        session that can acquire creates the catalog's acquisition runtime.

        *params* is the execution's ``?`` tuple: the cost model sizes
        range bounds from its values and the operators read its slots.
        """
        from repro.db.sql.operators import lower_select_plan

        acquiring = session is not None and (
            session.value_source is not None or session.predictor is not None
        )
        if acquiring:
            self._catalog.acquisition_runtime()
        return lower_select_plan(
            plan,
            self._catalog,
            session=session,
            hash_joins=hash_joins,
            access_path=self.choose_scan_path(plan, params, acquiring=acquiring),
            params=params,
        )

    def choose_scan_path(
        self, plan: SelectPlan, params: Params = (), *, acquiring: bool = False
    ) -> Optional[AccessPath]:
        """Choose the index access path of *plan*'s driving scan.

        The one place an access path is chosen.  Returns None to keep the
        sequential scan, otherwise an :class:`AccessPath`.  Only a
        single-table scan is considered.  *acquiring* says the session
        has a value source or predictor, whose CrowdFill/PredictFill must see
        every MISSING cell the query touches — and no index returns one:

        * a top-level ``col = literal`` (or ``col = ?``) over an indexed
          column is a point probe and wins outright, without evaluating
          its key (so EXPLAIN without parameters still shows
          ``IndexLookup``) — unless *acquiring* and ``col`` is perceptual;
        * otherwise, when *acquiring*, the sequential scan is kept;
        * a range predicate over an indexed column wins when
          ``log2(N) + est * COST_INDEX_FETCH < N`` with *est* from the
          table's statistics (histogram or min/max interpolation);
        * a single-column ORDER BY over an indexed column wins when the
          ordered walk (``N * COST_INDEX_FETCH``) beats scan-plus-sort
          (``N * (1 + log2 N)``), i.e. for every table of more than one
          row — the walk also composes with an ascending range on the
          same column.

        The full WHERE clause is always kept as a residual filter, so a
        chosen index path only ever has to produce a *superset* of the
        matching rows (it produces exactly the matching ones, but
        correctness does not depend on it).
        """
        if plan.scan is None or plan.joins:
            return None
        storage = self._catalog.table(plan.scan.table)
        alias = plan.scan.alias
        table_rows = len(storage)

        point = self._point_predicate(plan.where, alias)
        if point is not None and storage.index_on(point[0]) is not None:
            column, key = point
            if not acquiring or storage.schema.column(column).kind is not AttributeKind.PERCEPTUAL:
                return AccessPath(
                    column=column,
                    low=key,
                    high=key,
                    est_rows=storage.stats.estimate_equality(column, table_rows),
                )
        if acquiring:
            return None

        best: Optional[AccessPath] = None
        best_cost = float(max(table_rows, 1))  # cost of the sequential scan
        for column, bounds in self._range_candidates(plan.where, alias).items():
            if storage.index_on(column) is None:
                continue
            resolved = self._resolve_bounds(bounds, params)
            if resolved is None:
                continue
            low_value, high_value = resolved
            est = self._estimate_range_rows(
                storage, column, table_rows, low_value, high_value
            )
            cost = math.log2(table_rows + 1) + est * COST_INDEX_FETCH
            if cost < best_cost:
                best_cost = cost
                low_expr, high_expr, low_inc, high_inc = bounds
                best = AccessPath(
                    column=column,
                    low=low_expr,
                    high=high_expr,
                    low_inclusive=low_inc,
                    high_inclusive=high_inc,
                    est_rows=est,
                )

        order = self._order_elimination_target(plan, alias, storage)
        if order is not None:
            column, ascending = order
            if best is not None:
                # An index range emits rows in (value, rowid) ascending
                # order already; a matching ascending ORDER BY rides along
                # for free.  Anything else keeps the explicit Sort.
                if column == best.column and ascending:
                    best = AccessPath(
                        column=best.column,
                        low=best.low,
                        high=best.high,
                        low_inclusive=best.low_inclusive,
                        high_inclusive=best.high_inclusive,
                        ordered=True,
                        est_rows=best.est_rows,
                    )
            else:
                walk_cost = table_rows * COST_INDEX_FETCH
                sort_cost = table_rows * (1.0 + math.log2(table_rows + 1))
                if walk_cost < sort_cost:
                    best = AccessPath(
                        column=column,
                        ordered=True,
                        descending=not ascending,
                        est_rows=table_rows,
                    )
        return best

    # -- cost-model helpers ----------------------------------------------------

    @staticmethod
    def _conjuncts(expr: Optional[ast.Expression]) -> list[ast.Expression]:
        """Flatten the top-level AND chain of a WHERE clause."""
        if expr is None:
            return []
        if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
            return Planner._conjuncts(expr.left) + Planner._conjuncts(expr.right)
        return [expr]

    @staticmethod
    def _point_predicate(
        where: Optional[ast.Expression], alias: str
    ) -> Optional[tuple[str, ast.Expression]]:
        """``(column, key)`` of a top-level ``col = literal`` / ``col = ?``."""
        if not isinstance(where, ast.BinaryOp) or where.op != "=":
            return None
        left, right = where.left, where.right
        if isinstance(left, (ast.Literal, ast.Parameter)) and isinstance(right, ast.ColumnRef):
            left, right = right, left
        if not isinstance(left, ast.ColumnRef) or not isinstance(
            right, (ast.Literal, ast.Parameter)
        ):
            return None
        if left.table is not None and left.table.lower() != alias.lower():
            return None
        return left.name, right

    @staticmethod
    def _range_candidates(
        where: Optional[ast.Expression], alias: str
    ) -> dict[str, tuple[
        Optional[ast.Expression], Optional[ast.Expression], bool, bool
    ]]:
        """Per-column ``(low, high, low_inclusive, high_inclusive)`` bounds.

        Collected from top-level conjuncts of the forms ``col <op> bound``,
        ``bound <op> col`` (op one of ``< <= > >=``) and ``col BETWEEN low
        AND high``, where *bound* is a literal or parameter.  The first
        bound seen per side wins; tighter duplicates are left to the
        residual filter.
        """
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        alias = alias.lower()
        candidates: dict[
            str,
            tuple[Optional[ast.Expression], Optional[ast.Expression], bool, bool],
        ] = {}

        def column_of(expr: ast.Expression) -> Optional[str]:
            if not isinstance(expr, ast.ColumnRef):
                return None
            if expr.table is not None and expr.table.lower() != alias:
                return None
            return expr.name

        def merge(
            column: str,
            low: Optional[ast.Expression],
            high: Optional[ast.Expression],
            low_inc: bool,
            high_inc: bool,
        ) -> None:
            c_low, c_high, c_low_inc, c_high_inc = candidates.get(
                column, (None, None, True, True)
            )
            if low is not None and c_low is None:
                c_low, c_low_inc = low, low_inc
            if high is not None and c_high is None:
                c_high, c_high_inc = high, high_inc
            candidates[column] = (c_low, c_high, c_low_inc, c_high_inc)

        for conjunct in Planner._conjuncts(where):
            if isinstance(conjunct, ast.Between) and not conjunct.negated:
                column = column_of(conjunct.operand)
                if column is not None and all(
                    isinstance(b, (ast.Literal, ast.Parameter))
                    for b in (conjunct.low, conjunct.high)
                ):
                    merge(column, conjunct.low, conjunct.high, True, True)
                continue
            if not isinstance(conjunct, ast.BinaryOp):
                continue
            op = conjunct.op
            if op not in flipped:
                continue
            left, right = conjunct.left, conjunct.right
            if isinstance(left, (ast.Literal, ast.Parameter)):
                left, right, op = right, left, flipped[op]
            column = column_of(left)
            if column is None or not isinstance(
                right, (ast.Literal, ast.Parameter)
            ):
                continue
            if op in ("<", "<="):
                merge(column, None, right, True, op == "<=")
            else:
                merge(column, right, None, op == ">=", True)
        return candidates

    @staticmethod
    def _resolve_bounds(
        bounds: tuple[
            Optional[ast.Expression], Optional[ast.Expression], bool, bool
        ],
        params: Params,
    ) -> Optional[tuple[Any, Any]]:
        """Evaluate bound expressions to values; None rejects the candidate.

        A NULL/MISSING bound makes the comparison unknown for every row
        (the residual filter drops everything), so the index path is not
        worth choosing — and must not be mistaken for an open end.
        """
        low_expr, high_expr, _low_inc, _high_inc = bounds
        values: list[Any] = []
        for expr in (low_expr, high_expr):
            if expr is None:
                values.append(None)
                continue
            try:
                value = evaluate(expr, params)
            except Exception:
                return None
            if is_absent(value):
                return None
            values.append(value)
        return values[0], values[1]

    @staticmethod
    def _estimate_range_rows(
        storage, column: str, table_rows: int, low: Any, high: Any
    ) -> int:
        """Statistics-backed match estimate for a range over *column*."""

        def numeric(value: Any) -> Optional[float]:
            if value is None or not isinstance(value, (int, float)):
                return None
            return float(value)

        low_num, high_num = numeric(low), numeric(high)
        if (low is not None and low_num is None) or (
            high is not None and high_num is None
        ):
            # Non-numeric bounds: no histogram support, flat default.
            from repro.db.stats import TableStats

            fraction = TableStats.DEFAULT_RANGE_SELECTIVITY
            return max(1, round(table_rows * fraction)) if table_rows else 0
        return storage.stats.estimate_range(column, table_rows, low_num, high_num)

    def _order_elimination_target(
        self, plan: SelectPlan, alias: str, storage
    ) -> Optional[tuple[str, bool]]:
        """The ``(column, ascending)`` an ordered index walk could serve.

        Requires a plain single-key ORDER BY over an indexed base-table
        column.  Aggregates and DISTINCT keep the Sort: both change which
        row context carries a given output row, so index order is not
        guaranteed to match what Sort would compute.  An output alias
        shadowing the column name also keeps the Sort (Sort resolves the
        alias, the index would resolve the column).
        """
        if plan.aggregate is not None or plan.distinct:
            return None
        if len(plan.order_by) != 1:
            return None
        item = plan.order_by[0]
        expr = item.expression
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None and expr.table.lower() != alias.lower():
            return None
        column = expr.name
        if storage.index_on(column) is None:
            return None
        for output in plan.output:
            if output.name != column:
                continue
            out_expr = output.expression
            if not (
                isinstance(out_expr, ast.ColumnRef)
                and out_expr.name == column
                and (out_expr.table is None or out_expr.table.lower() == alias.lower())
            ):
                return None
        return column, item.ascending

    def plan_select(self, statement: ast.SelectStatement) -> SelectPlan:
        """Validate *statement* against the catalog and produce a plan."""
        if statement.from_crowd is not None:
            return self._plan_crowd_select(statement)
        alias_tables = self._collect_sources(statement)
        self._validate_columns(statement, alias_tables)

        scan = None
        joins: list[JoinPlan] = []
        if statement.from_table is not None:
            scan = ScanPlan(
                table=alias_tables[statement.from_table.effective_alias.lower()],
                alias=statement.from_table.effective_alias,
            )
            for join in statement.joins:
                join_scan = ScanPlan(
                    table=join.right.name, alias=join.right.effective_alias
                )
                joins.append(JoinPlan(scan=join_scan, condition=join.condition, kind=join.kind))

        output = self._resolve_output(statement, alias_tables)
        aggregate = self._resolve_aggregate(statement, output)
        referenced = self._referenced_column_refs(statement)

        return SelectPlan(
            scan=scan,
            joins=tuple(joins),
            where=statement.where,
            output=tuple(output),
            aggregate=aggregate,
            order_by=statement.order_by,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
            referenced_refs=tuple(
                sorted(referenced, key=lambda ref: (ref[0] or "", ref[1]))
            ),
            layout=RowLayout(
                tuple(
                    (alias, frozenset(self._catalog.table(table).schema.column_names))
                    for alias, table in alias_tables.items()
                )
            ),
        )

    def _plan_crowd_select(self, statement: ast.SelectStatement) -> SelectPlan:
        """Plan a ``SELECT ... FROM CROWD '<predicate>'`` open-world query.

        The crowd relation exposes exactly one column named ``value``.  Any
        other reference is a :class:`PlanningError` — deliberately *not*
        :class:`UnknownColumnError`, so an open-world query never triggers
        closed-world schema expansion.
        """
        expressions: list[ast.Expression] = []
        for item in statement.items:
            if not isinstance(item.expression, ast.Star):
                expressions.append(item.expression)
        if statement.where is not None:
            expressions.append(statement.where)
        expressions.extend(statement.group_by)
        if statement.having is not None:
            expressions.append(statement.having)
        output_aliases = {item.alias for item in statement.items if item.alias}
        for order_item in statement.order_by:
            expr = order_item.expression
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in output_aliases
            ):
                continue
            expressions.append(expr)
        for expression in expressions:
            for ref in ast.referenced_columns(expression):
                if ref.name != "value" or (
                    ref.table is not None and ref.table.lower() != "crowd"
                ):
                    raise PlanningError(
                        "the CROWD relation exposes a single column 'value'; "
                        f"unknown column {ref.key()!r}"
                    )

        output: list[OutputColumn] = []
        used_names: dict[str, int] = {}

        def unique_name(name: str) -> str:
            if name not in used_names:
                used_names[name] = 1
                return name
            used_names[name] += 1
            return f"{name}_{used_names[name]}"

        for item in statement.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                if expr.table is not None and expr.table.lower() != "crowd":
                    raise PlanningError(
                        f"unknown table alias {expr.table!r} in '*' projection"
                    )
                output.append(
                    OutputColumn(
                        expression=ast.ColumnRef(name="value"),
                        name=unique_name("value"),
                        aggregate=False,
                    )
                )
                continue
            name = item.alias or expression_label(expr)
            output.append(
                OutputColumn(
                    expression=expr,
                    name=unique_name(name),
                    aggregate=ast.is_aggregate(expr),
                )
            )
        if not output:
            raise PlanningError("SELECT list is empty")
        aggregate = self._resolve_aggregate(statement, output)
        referenced = self._referenced_column_refs(statement)
        return SelectPlan(
            scan=None,
            joins=(),
            where=statement.where,
            output=tuple(output),
            aggregate=aggregate,
            order_by=statement.order_by,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
            referenced_refs=tuple(
                sorted(referenced, key=lambda ref: (ref[0] or "", ref[1]))
            ),
            from_crowd=statement.from_crowd,
            layout=_CROWD_LAYOUT,
        )

    # -- helpers ---------------------------------------------------------------

    def _collect_sources(self, statement: ast.SelectStatement) -> dict[str, str]:
        """Map alias -> table name for every table in the FROM clause."""
        sources: dict[str, str] = {}
        if statement.from_table is None:
            return sources
        refs = [statement.from_table] + [join.right for join in statement.joins]
        for ref in refs:
            table = self._catalog.table(ref.name)  # raises UnknownTableError
            alias = ref.effective_alias.lower()
            if alias in sources:
                raise PlanningError(f"duplicate table alias {alias!r}")
            sources[alias] = table.schema.name
        return sources

    def _validate_columns(
        self, statement: ast.SelectStatement, alias_tables: dict[str, str]
    ) -> None:
        """Check that every referenced column exists in some source table."""
        expressions: list[ast.Expression] = []
        for item in statement.items:
            if not isinstance(item.expression, ast.Star):
                expressions.append(item.expression)
        for join in statement.joins:
            if join.condition is not None:
                expressions.append(join.condition)
        if statement.where is not None:
            expressions.append(statement.where)
        expressions.extend(statement.group_by)
        if statement.having is not None:
            expressions.append(statement.having)

        output_aliases = {item.alias for item in statement.items if item.alias}
        for order_item in statement.order_by:
            expr = order_item.expression
            if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name in output_aliases:
                continue
            expressions.append(expr)

        for expression in expressions:
            for ref in ast.referenced_columns(expression):
                self._validate_column_ref(ref, alias_tables)

    def _validate_column_ref(self, ref: ast.ColumnRef, alias_tables: dict[str, str]) -> None:
        if not alias_tables:
            raise UnknownColumnError(ref.name, ref.table)
        if ref.table is not None:
            alias = ref.table.lower()
            if alias not in alias_tables:
                raise PlanningError(f"unknown table alias {ref.table!r}")
            schema = self._catalog.table(alias_tables[alias]).schema
            if ref.name not in schema:
                raise UnknownColumnError(ref.name, schema.name)
            return
        matches = [
            table_name
            for table_name in alias_tables.values()
            if ref.name in self._catalog.table(table_name).schema
        ]
        if not matches:
            # attribute unknown to every source table: expansion trigger
            raise UnknownColumnError(ref.name, next(iter(alias_tables.values())))
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column reference {ref.name!r}")

    def _resolve_output(
        self, statement: ast.SelectStatement, alias_tables: dict[str, str]
    ) -> list[OutputColumn]:
        output: list[OutputColumn] = []
        used_names: dict[str, int] = {}

        def unique_name(name: str) -> str:
            if name not in used_names:
                used_names[name] = 1
                return name
            used_names[name] += 1
            return f"{name}_{used_names[name]}"

        for item in statement.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                for alias, table_name in alias_tables.items():
                    if expr.table is not None and expr.table.lower() != alias:
                        continue
                    schema = self._catalog.table(table_name).schema
                    for column in schema.column_names:
                        ref = ast.ColumnRef(name=column, table=alias if len(alias_tables) > 1 else None)
                        output.append(
                            OutputColumn(
                                expression=ref,
                                name=unique_name(column),
                                aggregate=False,
                            )
                        )
                if expr.table is not None and expr.table.lower() not in alias_tables:
                    raise PlanningError(f"unknown table alias {expr.table!r} in '*' projection")
                continue
            name = item.alias or expression_label(expr)
            output.append(
                OutputColumn(
                    expression=expr,
                    name=unique_name(name),
                    aggregate=ast.is_aggregate(expr),
                )
            )
        if not output:
            raise PlanningError("SELECT list is empty")
        return output

    @staticmethod
    def _resolve_aggregate(
        statement: ast.SelectStatement, output: list[OutputColumn]
    ) -> Optional[AggregatePlan]:
        has_aggregate = any(column.aggregate for column in output)
        if statement.having is not None and not statement.group_by and not has_aggregate:
            raise PlanningError("HAVING requires GROUP BY or aggregate functions")
        if not statement.group_by and not has_aggregate:
            return None
        if statement.group_by:
            group_keys = {expression_label(e) for e in statement.group_by}
            for column in output:
                if column.aggregate:
                    continue
                if expression_label(column.expression) not in group_keys:
                    raise PlanningError(
                        f"column {column.name!r} must appear in GROUP BY or an aggregate"
                    )
        else:
            for column in output:
                if not column.aggregate:
                    raise PlanningError(
                        f"column {column.name!r} must be aggregated when no GROUP BY is given"
                    )
        return AggregatePlan(group_by=statement.group_by, having=statement.having)

    @staticmethod
    def _referenced_column_refs(
        statement: ast.SelectStatement,
    ) -> set[tuple[Optional[str], str]]:
        refs: set[tuple[Optional[str], str]] = set()
        expressions: list[ast.Expression] = []
        if statement.where is not None:
            expressions.append(statement.where)
        for item in statement.items:
            if not isinstance(item.expression, ast.Star):
                expressions.append(item.expression)
        expressions.extend(statement.group_by)
        if statement.having is not None:
            expressions.append(statement.having)
        for order_item in statement.order_by:
            expressions.append(order_item.expression)
        for expression in expressions:
            for ref in ast.referenced_columns(expression):
                refs.add((ref.table.lower() if ref.table else None, ref.name))
        return refs
