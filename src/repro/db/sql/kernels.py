"""Per-batch kernels: the hot operators' expressions, generated once per plan.

A *kernel* is a Python function generated from a plan's expressions that
runs one operator over a whole batch of pipeline rows in a single
comprehension (for ``Aggregate``, a single loop) instead of calling a
closure tree per row: query compilation (Neumann, "Efficiently Compiling
Efficient Query Plans for Modern Hardware", VLDB 2011) scaled down to
Python.  :func:`plan_kernels` builds every kernel of a
:class:`~repro.db.sql.planner.SelectPlan` when the plan is built, so a
cached plan generates and compiles its kernels once.  Each execution
passes its ``?`` values in as the argument ``p``, read once per batch.

Four operators run kernels: ``Filter`` (batch -> kept rows), ``Project``
(batch -> ``(row_tuple, pipeline_row)`` pairs), the probe of ``HashJoin``
(batch -> joined rows) and ``Aggregate`` (the group key and the aggregate
arguments of each row, folded into running accumulators; then HAVING and
the outputs over the groups).  Column reads, literals, parameters, the six
comparisons, AND/OR/NOT and IS [NOT] NULL/MISSING are inline; any other
node calls the value-level helper the closures use
(:func:`~repro.db.sql.expressions.binary_operator`,
:func:`~repro.db.sql.expressions.in_values`, ...) on inline operands.

The closures of :func:`~repro.db.sql.expressions.compile_expression` stay
the one definition of the semantics.  A kernel evaluates exactly the
sub-expressions the closures evaluate, so it raises where they would;
when it raises, its result for the batch is discarded and the batch
re-runs through the closures, compiled at that point, which return the
result or raise the error they define.

The generated source holds only names made here, slot integers and
operator tokens: every column name, literal, parameter value and helper
reaches a kernel as a constant of the namespace it runs in, never as
source text.  Source is compiled once per distinct text, so statements of
one shape share the code.  This is the only module that calls ``compile``
or ``exec`` (reprolint's ``codegen-chokepoint`` rule).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.db.sql import ast
from repro.db.sql.expressions import (
    MISSING_KEY,
    Params,
    PipelineRow,
    RowLayout,
    between_values,
    binary_operator,
    compile_expression,
    compile_predicate,
    hashable_key,
    in_values,
    scalar_function,
    to_truth,
    unary_operator,
)
from repro.db.types import MISSING
from repro.errors import ExecutionError, UnknownColumnError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.sql.planner import SelectPlan

#: A batch function bound to one execution: ``run(batch, *extra)``.
BatchFunction = Callable[..., Any]

#: Distinct kernel sources whose compiled code is kept.
CODE_CACHE_SIZE = 256

_COMPARISON_TOKENS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: The state of a MIN/MAX accumulator that has seen no value yet.
_EMPTY = object()


class _Stopped(Exception):
    """An aggregate kernel stopped after folding ``rows`` rows of its batch."""

    def __init__(self, rows: int) -> None:
        super().__init__(rows)
        self.rows = rows


def _not_inline() -> Any:
    """Stand-in for a node the closures fail on: the batch re-runs through them."""
    raise ExecutionError("evaluated by the reference closures")


def _keep(value: Any) -> bool:
    """A WHERE verdict on a value other than TRUE, FALSE and NULL."""
    return bool(to_truth(value))


def _truthy(value: Any) -> bool:
    """A HAVING verdict: unknown drops the group, anything else by truthiness."""
    if value is None or value is MISSING:
        return False
    return bool(value)


def _group_key(keys: Sequence[Callable[[PipelineRow], Any]]) -> Callable[[PipelineRow], Any]:
    """The reference form of a kernel's group key (same shape as the kernel's)."""
    if not keys:
        return lambda _row: ()
    if len(keys) == 1:
        (key,) = keys
        return lambda row: hashable_key(key(row))
    return lambda row: tuple([hashable_key(key(row)) for key in keys])


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


class _Source:
    """The Python source of one kernel's expressions and its namespace.

    Every generated expression reads the pipeline row ``r``; ``?`` slot
    ``i`` is hoisted into a local once per batch.
    """

    def __init__(self, layout: RowLayout) -> None:
        self.layout = layout
        self.namespace: dict[str, Any] = {
            "_M": MISSING,
            "_MK": MISSING_KEY,
            "_E": _EMPTY,
            "_Stopped": _Stopped,
            "_fail": _not_inline,
            "_keep": _keep,
            "_truth": to_truth,
            "_in": in_values,
            "_between": between_values,
        }
        self.params: dict[int, str] = {}
        self._count = 0

    def name(self, prefix: str) -> str:
        """A fresh generator-made name."""
        self._count += 1
        return f"{prefix}{self._count}"

    def constant(self, value: Any) -> str:
        """A namespace name bound to *value*."""
        name = self.name("_k")
        self.namespace[name] = value
        return name

    def hoisted(self) -> list[str]:
        """The lines reading each ``?`` this kernel uses, once per batch."""
        return [f"    {name} = p[{index}]" for index, name in self.params.items()]

    # -- values ----------------------------------------------------------------

    def value(self, expr: ast.Expression) -> str:
        """Source evaluating *expr* against ``r`` as the closures do."""
        method = _GENERATORS.get(type(expr))
        if method is None:
            return "_fail()"
        return method(self, expr)

    def truth(self, code: str) -> str:
        """Source mapping the value of *code* into three-valued logic."""
        t = self.name("_t")
        return f"({t} if ({t} := {code}) is True or {t} is False or {t} is None else _truth({t}))"

    def keep(self, code: str) -> str:
        """Source true when the WHERE predicate *code* is TRUE."""
        v = self.name("_v")
        return f"(({v} := {code}) is True or {v} is not False and {v} is not None and _keep({v}))"

    def having(self, code: str) -> str:
        """Source true when the HAVING condition *code* keeps its group."""
        v = self.name("_v")
        return f"(({v} := {code}) is not None and {v} is not _M and {v})"

    def _literal(self, expr: ast.Literal) -> str:
        return self.constant(expr.value)

    def _parameter(self, expr: ast.Parameter) -> str:
        name = self.params.get(expr.index)
        if name is None:
            name = self.params[expr.index] = self.name("_p")
        return name

    def _column(self, ref: ast.ColumnRef) -> str:
        try:
            slot, key = self.layout.slot_of(ref.name, ref.table)
        except (UnknownColumnError, ExecutionError):
            return "_fail()"
        return f"r[{slot}][{self.constant(key)}]"

    def _unary(self, expr: ast.UnaryOp) -> str:
        operand = self.value(expr.operand)
        if expr.op == "not":
            t = self.name("_t")
            return f"(None if ({t} := {self.truth(operand)}) is None else not {t})"
        return f"{self.constant(unary_operator(expr.op))}({operand})"

    def _binary(self, expr: ast.BinaryOp) -> str:
        op = expr.op
        left = self.value(expr.left)
        right = self.value(expr.right)
        a, b = self.name("_t"), self.name("_t")
        if op == "and":  # FALSE AND x never evaluates x
            return (
                f"(False if ({a} := {self.truth(left)}) is False else "
                f"False if ({b} := {self.truth(right)}) is False else "
                f"None if {a} is None or {b} is None else True)"
            )
        if op == "or":  # TRUE OR x never evaluates x
            return (
                f"(True if ({a} := {self.truth(left)}) is True else "
                f"True if ({b} := {self.truth(right)}) is True else "
                f"None if {a} is None or {b} is None else False)"
            )
        token = _COMPARISON_TOKENS.get(op)
        if token is None:
            return f"{self.constant(binary_operator(op))}({left}, {right})"
        if isinstance(expr.right, (ast.Literal, ast.Parameter)):
            # Reading a constant cannot fail: an unknown left may skip it.
            unknown = f"({a} := {left}) is None or {a} is _M or {right} is None or {right} is _M"
            return f"(None if {unknown} else {a} {token} {right})"
        # Both sides are evaluated whatever the left one holds (``|``).
        unknown = (
            f"(({a} := {left}) is None or {a} is _M) | (({b} := {right}) is None or {b} is _M)"
        )
        return f"(None if {unknown} else {a} {token} {b})"

    def _is_null(self, expr: ast.IsNull) -> str:
        operand = self.value(expr.operand)
        if expr.missing:
            test = f"({operand} is _M)"
        else:
            t = self.name("_t")
            test = f"(({t} := {operand}) is None or {t} is _M)"
        return f"(not {test})" if expr.negated else test

    def _in_list(self, expr: ast.InList) -> str:
        operand = self.value(expr.operand)
        items = [self.value(item) for item in expr.items]
        if all(isinstance(item, (ast.Literal, ast.Parameter)) for item in expr.items):
            candidates = "(" + "".join(f"{item}, " for item in items) + ")"
        else:
            # Lazy: an item is evaluated only while no earlier one matched.
            i = self.name("_i")
            chain = " else ".join(f"{item} if {i} == {n}" for n, item in enumerate(items))
            candidates = f"({chain} else None for {i} in range({len(items)}))"
        return f"_in({operand}, {candidates}, {bool(expr.negated)})"

    def _between(self, expr: ast.Between) -> str:
        operand, low, high = (self.value(e) for e in (expr.operand, expr.low, expr.high))
        return f"_between({operand}, {low}, {high}, {bool(expr.negated)})"

    def _function(self, expr: ast.FunctionCall) -> str:
        name = expr.name.lower()
        if name in ast.AGGREGATE_FUNCTIONS:
            computed = self.layout.aggregate_slot(expr)
            if computed is None:
                return "_fail()"
            slot, index = computed
            return f"r[{slot}][{index}]"
        if name == "coalesce":  # the first known argument; later ones unevaluated
            code = "None"
            for arg in reversed([self.value(arg) for arg in expr.args]):
                t = self.name("_t")
                code = f"({t} if ({t} := {arg}) is not None and {t} is not _M else {code})"
            return code
        handler = scalar_function(name)
        if handler is None:
            return "_fail()"
        args = ", ".join(self.value(arg) for arg in expr.args)
        return f"{self.constant(handler)}({args})"

    def _case(self, expr: ast.CaseExpression) -> str:
        parts = [
            f"{self.value(value)} if _truth({self.value(condition)}) else"
            for condition, value in expr.branches
        ]
        default = self.value(expr.default) if expr.default is not None else "None"
        return "(" + " ".join([*parts, default]) + ")"


_GENERATORS: dict[type, Callable[[_Source, Any], str]] = {
    ast.Literal: _Source._literal,
    ast.Parameter: _Source._parameter,
    ast.ColumnRef: _Source._column,
    ast.UnaryOp: _Source._unary,
    ast.BinaryOp: _Source._binary,
    ast.IsNull: _Source._is_null,
    ast.InList: _Source._in_list,
    ast.Between: _Source._between,
    ast.FunctionCall: _Source._function,
    ast.CaseExpression: _Source._case,
}


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(text: str) -> CodeType:
    return compile(text, "<kernel>", "exec")


def _define(source: _Source, lines: Iterable[str]) -> Optional[dict[str, Any]]:
    """Run the function definitions *lines* in *source*'s namespace.

    Returns the namespace, or None when Python cannot compile the source
    (an expression nested deeper than its parser allows): the operator
    then runs on the closures alone.
    """
    try:
        exec(_code("\n".join(lines) + "\n"), source.namespace)
    except (SyntaxError, RecursionError, MemoryError):
        return None
    return source.namespace


def _generate(layout: RowLayout, build: Callable[[_Source], list[str]]) -> Optional[Any]:
    """Generate a kernel over *layout*: *build* returns its source lines."""
    source = _Source(layout)
    try:
        lines = build(source)
    except RecursionError:
        return None
    namespace = _define(source, lines)
    return namespace["kernel"] if namespace is not None else None


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class Kernel:
    """A generated batch function and the closures it falls back to.

    *generated* is ``generated(batch, params, *extra)``, or None when the
    source could not be compiled; *reference* builds, from one execution's
    parameters, the closure form ``reference(batch, *extra)`` with the
    same result.
    """

    __slots__ = ("generated", "_reference")

    def __init__(
        self,
        generated: Optional[Callable[..., Any]],
        reference: Callable[[Params], BatchFunction],
    ) -> None:
        self.generated = generated
        self._reference = reference

    def bind(self, params: Params) -> BatchFunction:
        """This kernel for one execution's *params*: ``run(batch, *extra)``."""
        generated = self.generated
        build = self._reference
        reference: Optional[BatchFunction] = None

        def run(batch: list[Any], *extra: Any) -> Any:
            nonlocal reference
            if generated is not None:
                try:
                    return generated(batch, params, *extra)
                except Exception:
                    pass  # the closures below return the result or raise
            if reference is None:
                reference = build(params)
            return reference(batch, *extra)

        return run


def filter_kernel(predicate: ast.Expression, layout: RowLayout) -> Kernel:
    """Batch -> the rows whose *predicate* is TRUE."""

    def build(source: _Source) -> list[str]:
        keep = source.keep(source.value(predicate))
        return [
            "def kernel(batch, p):",
            *source.hoisted(),
            f"    return [r for r in batch if {keep}]",
        ]

    def reference(params: Params) -> BatchFunction:
        matches = compile_predicate(predicate, params, layout)
        return lambda batch: list(filter(matches, batch))

    return Kernel(_generate(layout, build), reference)


def project_kernel(
    outputs: Sequence[ast.Expression],
    layout: RowLayout,
    having: Optional[ast.Expression] = None,
) -> Kernel:
    """Batch -> ``(row_tuple, pipeline_row)`` pairs of *outputs*.

    With *having* (an ``Aggregate``'s groups), only the rows it keeps,
    HAVING evaluated before the outputs.
    """

    def build(source: _Source) -> list[str]:
        condition = f" if {source.having(source.value(having))}" if having is not None else ""
        row = "(" + "".join(f"{source.value(e)}, " for e in outputs) + ")"
        return [
            "def kernel(batch, p):",
            *source.hoisted(),
            f"    return [({row}, r) for r in batch{condition}]",
        ]

    def reference(params: Params) -> BatchFunction:
        columns = [compile_expression(e, params, layout) for e in outputs]
        keeps = compile_expression(having, params, layout) if having is not None else None
        return lambda batch: [
            (tuple([column(r) for column in columns]), r)
            for r in batch
            if keeps is None or _truthy(keeps(r))
        ]

    return Kernel(_generate(layout, build), reference)


def probe_kernel(left_key: ast.ColumnRef, layout: RowLayout) -> Kernel:
    """A hash join's probe: ``(batch, lookup, pad)`` -> joined rows.

    *lookup* maps a key to its bucket of right rows (None when absent);
    *pad* is what an unmatched left row joins: ``()`` drops it, a LEFT
    JOIN passes its one null row.
    """

    def build(source: _Source) -> list[str]:
        key = source.value(left_key)
        return [
            "def kernel(batch, p, lookup, pad):",
            *source.hoisted(),
            f"    return [r + (m,) for r in batch for m in (lookup({key}) or pad)]",
        ]

    def reference(params: Params) -> BatchFunction:
        key = compile_expression(left_key, params, layout)
        return lambda batch, lookup, pad: [r + (m,) for r in batch for m in (lookup(key(r)) or pad)]

    return Kernel(_generate(layout, build), reference)


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class _Accumulator:
    """Source fragments of one aggregate call's running state."""

    init: list[str]
    update: list[str]
    final: str


def _accumulator(call: ast.FunctionCall, argument: str, slot: int, source: _Source) -> _Accumulator:
    """The state slots from *slot* on of *call*, whose argument value is *argument*.

    ``count`` keeps a count; ``min``/``max`` a running value replaced when
    ``v < cur`` / ``v > cur`` (the comparisons ``min()``/``max()`` make);
    ``sum``/``avg`` the known values, reduced by ``sum()`` when the group
    is emitted (bit-identical to reducing the group's member list).
    DISTINCT keeps a seen-set in the next slot, added to after the update
    so an update that raises leaves the state as it was.
    """
    name = call.name.lower()
    state = f"_g[{slot}]"
    if call.star and name == "count":
        return _Accumulator(["0"], [f"{state} += 1"], state)
    if call.star or len(call.args) != 1:
        message = (
            f"{name.upper()}(*) is not a valid aggregate"
            if call.star
            else f"aggregate {name.upper()} takes exactly one argument"
        )
        fail = source.constant(_failing(message))
        return _Accumulator([], [], f"{fail}()")
    if name == "count":
        init, update, final = "0", [f"{state} += 1"], state
    elif name in ("sum", "avg"):
        init, update = "[]", [f"{state}.append({argument})"]
        total = f"sum({state}) / len({state})" if name == "avg" else f"sum({state})"
        final = f"({total} if {state} else None)"
    else:
        token = "<" if name == "min" else ">"
        init = "_E"
        update = [
            f"_c = {state}",
            f"if _c is _E or {argument} {token} _c:",
            f"    {state} = {argument}",
        ]
        final = f"(None if {state} is _E else {state})"
    if call.distinct:
        seen = f"_g[{slot + 1}]"
        update = [
            f"if {argument} not in {seen}:",
            *(f"    {line}" for line in update),
            f"    {seen}.add({argument})",
        ]
        return _Accumulator([init, "set()"], update, final)
    return _Accumulator([init], update, final)


def _failing(message: str) -> Callable[[], Any]:
    def fail() -> Any:
        raise ExecutionError(message)

    return fail


class AggregateKernel:
    """GROUP BY with running accumulators, folded a batch at a time.

    The groups are a dict from group key to state ``[representative,
    accumulator slots...]``, filled in first-seen order.  ``bind`` gives
    one execution ``(run, start, finish)``: ``run(batch, groups)`` folds a
    batch in, ``start(row)`` makes the state of a group whose
    representative is *row* (an empty global aggregate's all-NULL row) and
    ``finish(state)`` the group's pipeline row, ``representative +
    (accumulators,)`` when there are aggregate calls.

    The generated fold evaluates a row's key and arguments before it
    updates any state, and on an exception reports how many rows it
    folded; the rest of the batch re-runs through the closures, row by row
    into the same update code, which raises the error the closures define.
    """

    def __init__(
        self,
        group_by: Sequence[ast.Expression],
        calls: Sequence[ast.FunctionCall],
        layout: RowLayout,
    ) -> None:
        self._group_by = tuple(group_by)
        self._arguments = [
            call.args[0] if len(call.args) == 1 and not call.star else None for call in calls
        ]
        self._layout = layout
        source = _Source(layout)
        update, fold = self._fold_lines(source, calls)
        namespace = _define(source, fold)
        assert namespace is not None  # the fold holds no expression
        self._apply = namespace["apply"]
        self._start = namespace["start"]
        self._finish = namespace["finish"]
        # An argument nested deeper than Python compiles leaves no
        # ``accumulate``: every batch then folds through the closures.
        try:
            accumulate = self._accumulate_lines(source, update)
        except RecursionError:
            accumulate = None
        if accumulate is not None and _define(source, accumulate) is not None:
            self._accumulate = namespace["accumulate"]
        else:
            self._accumulate = None

    def _fold_lines(
        self, source: _Source, calls: Sequence[ast.FunctionCall]
    ) -> tuple[list[str], list[str]]:
        """The update of one row's state, and ``start``/``finish``/``apply``.

        The update reads the row ``r``, its group key ``_key`` and the
        value ``_a<j>`` of the argument of aggregate call *j*.
        """
        accumulators = []
        slot = 1
        for j, call in enumerate(calls):
            accumulator = _accumulator(call, f"_a{j}", slot, source)
            accumulators.append(accumulator)
            slot += len(accumulator.init)
        init = ", ".join(["r", *(part for acc in accumulators for part in acc.init)])
        update = ["_g = _get(_key)", "if _g is None:", "    _g = groups[_key] = start(r)"]
        for j, (call, accumulator) in enumerate(zip(calls, accumulators)):
            if not accumulator.update:
                continue
            if call.star:
                update.extend(accumulator.update)
            else:
                update.append(f"if _a{j} is not None and _a{j} is not _M:")
                update.extend(f"    {line}" for line in accumulator.update)
        finals = "".join(f"{acc.final}, " for acc in accumulators)
        finished = f"_g[0] + (({finals}),)" if calls else "_g[0]"
        targets = ", ".join(["r", "_key", *(f"_a{j}" for j in self._evaluated())])
        fold = [
            "def start(r):",
            f"    return [{init}]",
            "def finish(_g):",
            f"    return {finished}",
            "def apply(rows, groups):",
            "    _get = groups.get",
            f"    for {targets} in rows:",
            *(f"        {line}" for line in update),
        ]
        return update, fold

    def _accumulate_lines(self, source: _Source, update: list[str]) -> list[str]:
        """``accumulate``: each row's key and arguments inline, then *update*."""
        hashed = []
        for expr in self._group_by:
            t = source.name("_t")
            hashed.append(f"(_MK if ({t} := {source.value(expr)}) is _M else {t})")
        if not hashed:
            group_key = "()"
        elif len(hashed) == 1:
            group_key = hashed[0]
        else:
            group_key = "(" + "".join(f"{key}, " for key in hashed) + ")"
        arguments = [f"_a{j} = {source.value(self._arguments[j])}" for j in self._evaluated()]
        return [
            "def accumulate(batch, p, groups):",
            "    _get = groups.get",
            "    _n = 0",
            "    try:",
            *(f"    {line}" for line in source.hoisted()),
            "        for r in batch:",
            f"            _key = {group_key}",
            *(f"            {line}" for line in arguments),
            *(f"            {line}" for line in update),
            "            _n += 1",
            "    except Exception as error:",
            "        raise _Stopped(_n) from error",
        ]

    def _evaluated(self) -> list[int]:
        """The calls whose one argument each row evaluates."""
        return [j for j, argument in enumerate(self._arguments) if argument is not None]

    def _reference_rows(
        self, params: Params
    ) -> Callable[[list[PipelineRow]], Iterator[tuple[Any, ...]]]:
        """The closure form of the fold's inputs: ``(row, key, arguments...)``."""
        layout = self._layout
        key = _group_key([compile_expression(e, params, layout) for e in self._group_by])
        arguments = [
            compile_expression(a, params, layout) for a in self._arguments if a is not None
        ]

        def rows(batch: list[PipelineRow]) -> Iterator[tuple[Any, ...]]:
            for r in batch:
                yield (r, key(r), *[argument(r) for argument in arguments])

        return rows

    def bind(self, params: Params) -> tuple[BatchFunction, BatchFunction, BatchFunction]:
        """``(run, start, finish)`` for one execution's *params*."""
        accumulate, apply = self._accumulate, self._apply
        reference: Optional[Callable[[list[PipelineRow]], Iterator[tuple[Any, ...]]]] = None

        def run(batch: list[PipelineRow], groups: dict[Any, list[Any]]) -> None:
            nonlocal reference
            done = 0
            if accumulate is not None:
                try:
                    accumulate(batch, params, groups)
                    return
                except _Stopped as stopped:
                    done = stopped.rows
            if reference is None:
                reference = self._reference_rows(params)
            apply(reference(batch[done:]), groups)

        return run, self._start, self._finish


@dataclass(frozen=True)
class PlanKernels:
    """Every kernel of one plan, built with it.

    ``where`` filters; ``project`` makes the output rows of a plan without
    aggregation; ``aggregate`` folds the groups of one with it and
    ``emit`` applies its HAVING and outputs to the groups; ``probes``
    holds, per join, the probe of its hash join (None for a join that has
    no equi-join keys).
    """

    where: Optional[Kernel]
    project: Optional[Kernel]
    aggregate: Optional[AggregateKernel]
    emit: Optional[Kernel]
    probes: tuple[Optional[Kernel], ...]


def plan_kernels(plan: SelectPlan) -> PlanKernels:
    """Generate and compile the kernels of *plan* (once, when it is built)."""
    layout = plan.layout
    outputs = [column.expression for column in plan.output]
    aggregate = emit = project = None
    if plan.aggregate is not None:
        aggregate = AggregateKernel(plan.aggregate.group_by, plan.aggregate.calls, layout)
        emit = project_kernel(outputs, plan.group_layout, plan.aggregate.having)
    else:
        project = project_kernel(outputs, layout)
    probes = tuple(
        probe_kernel(join.hash_key[0], layout.prefix(slot)) if join.hash_key else None
        for slot, join in enumerate(plan.joins, start=1)
    )
    return PlanKernels(
        where=filter_kernel(plan.where, layout) if plan.where is not None else None,
        project=project,
        aggregate=aggregate,
        emit=emit,
        probes=probes,
    )
