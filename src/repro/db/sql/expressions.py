"""Expression evaluation with SQL three-valued logic.

Values flow through evaluation as plain Python objects; SQL ``NULL`` and the
crowd-database :data:`~repro.db.types.MISSING` marker both evaluate to the
*unknown* truth value in predicates.  Evaluation returns ``None`` for
unknown results; predicates collapse unknown to ``False`` (a row with an
unknown predicate does not qualify), which matches the behaviour the paper
assumes for not-yet-crowdsourced values.

:func:`compile_expression` is the one definition of evaluation: it turns
an expression AST into a Python closure over a *pipeline row* once.  A
pipeline row is a plain tuple holding one row dict per FROM/JOIN table,
in plan order; a :class:`RowLayout` says which table sits in which slot,
and every column reference is resolved against it at compile time:
``a.col`` compiles to ``row[i]["col"]`` and a bare name to the slot of
the one table that has it.  The pipeline row of an ``Aggregate``'s group
holds one more slot, the group's aggregate values, and an aggregate call
compiles to a read of its value.  Errors (unknown or ambiguous columns, bad
functions, type errors) are raised when the closure runs, never at
compile time, so an expression on a branch or a row that is never
evaluated cannot fail a query.  The one exception is a ``?`` with no slot
in a non-empty parameter tuple, a binding error raised before the
statement runs.

The hot operators (Filter, Project, the HashJoin probe, Aggregate) run
per-batch kernels generated from the same expressions
(:mod:`repro.db.sql.kernels`); the closures are their reference and
their fallback, and every other caller uses the closures directly.
:func:`evaluate` is a one-shot convenience over the compiler for
expressions that read no row (literals, parameters, DEFAULT values).
The value-level helpers (:func:`binary_operator`, :func:`unary_operator`,
:func:`in_values`, :func:`between_values`, :func:`scalar_function`,
:func:`to_truth`) are shared by the closures and the kernels.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.db.sql import ast
from repro.db.types import MISSING
from repro.errors import ExecutionError, ParameterBindingError, UnknownColumnError

#: A pipeline row: one row dict per FROM/JOIN table, in plan order (a Sort
#: key also sees the projected row tuple in one more slot).
PipelineRow = tuple[Any, ...]

#: A compiled expression: evaluates against one pipeline row.
Evaluator = Callable[[PipelineRow], Any]

#: One execution's ``?`` values, read by position (empty: unbound).
Params = Sequence[Any]


@dataclass(frozen=True)
class RowLayout:
    """Which table's row sits in which slot of a pipeline row.

    ``tables`` holds one ``(alias, column names)`` pair per FROM/JOIN
    table in plan order, aliases lower-cased; slot ``i`` of a pipeline row
    is the row dict of ``tables[i]``.  ``aggregates`` holds the
    :func:`~repro.db.sql.ast.aggregate_key` of each aggregate call an
    :class:`~repro.db.sql.operators.Aggregate` computes: when set, the
    slot after the tables holds their values, in that order, and an
    aggregate call compiles to a read of its value.  ``outputs`` names the
    values of the projected row, which a Sort key reads from one more slot
    after those: a bare output name shadows a column name (the last
    binding of a name wins), as ``ORDER BY alias`` needs.
    """

    tables: tuple[tuple[str, frozenset[str]], ...] = ()
    outputs: tuple[str, ...] = ()
    aggregates: tuple[str, ...] = ()

    def prefix(self, slots: int) -> "RowLayout":
        """The layout of the first *slots* tables (a join's input so far)."""
        return RowLayout(self.tables[:slots])

    def with_outputs(self, names: Sequence[str]) -> "RowLayout":
        """This layout plus the projected row's slot, its values named *names*."""
        return RowLayout(self.tables, tuple(names), self.aggregates)

    def with_aggregates(self, calls: Sequence[ast.FunctionCall]) -> "RowLayout":
        """This layout plus the slot of the values of aggregate *calls*."""
        return RowLayout(
            self.tables, self.outputs, tuple(ast.aggregate_key(call) for call in calls)
        )

    def null_row(self) -> tuple[dict[str, Any], ...]:
        """A pipeline row whose every column is NULL (an empty group's)."""
        return tuple(dict.fromkeys(columns) for _alias, columns in self.tables)

    def aggregate_slot(self, call: ast.FunctionCall) -> Optional[tuple[int, int]]:
        """``(slot, index)`` of the value of aggregate *call*, or None."""
        key = ast.aggregate_key(call)
        if key not in self.aggregates:
            return None
        return len(self.tables), self.aggregates.index(key)

    def slot_of(self, name: str, table: Optional[str]) -> tuple[int, Any]:
        """``(slot, key)`` of the cell a column reference reads.

        Raises :class:`~repro.errors.UnknownColumnError` for a name the
        layout lacks and :class:`~repro.errors.ExecutionError` for a bare
        name two tables share.
        """
        tables = self.tables
        if table is None:
            outputs = self.outputs
            if name in outputs:
                slot = len(tables) + (1 if self.aggregates else 0)
                return slot, len(outputs) - 1 - outputs[::-1].index(name)
            slots = [i for i, (_alias, columns) in enumerate(tables) if name in columns]
            if len(slots) > 1:
                raise ExecutionError(f"ambiguous column reference: {name!r}")
            if not slots:
                raise UnknownColumnError(name, None)
            return slots[0], name
        alias = table.lower()
        slots = [i for i, (candidate, _columns) in enumerate(tables) if candidate == alias]
        if not slots or name not in tables[slots[0]][1]:
            raise UnknownColumnError(name, table)
        return slots[0], name


#: The layout of a row-independent expression: no table slots.
NO_TABLES = RowLayout()


def _is_unknown(value: Any) -> bool:
    return value is None or value is MISSING


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE)


_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparison(op: str) -> Callable[[Any, Any], Optional[bool]]:
    """Three-valued comparison; the result is None when either side is unknown."""
    compare = _COMPARATORS[op]

    def comparison(left: Any, right: Any) -> Optional[bool]:
        if left is None or right is None or left is MISSING or right is MISSING:
            return None
        # Booleans compare with numbers the Python way; text compares with text.
        try:
            return compare(left, right)
        except TypeError as exc:
            raise ExecutionError(f"cannot compare {left!r} and {right!r}") from exc

    return comparison


_COMPARISONS = {op: _comparison(op) for op in _COMPARATORS}
_GREATER_EQUAL = _COMPARISONS[">="]
_LESS_EQUAL = _COMPARISONS["<="]


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if _is_unknown(left) or _is_unknown(right):
        return None
    if op == "||":
        return f"{left}{right}"
    if not isinstance(left, (int, float, bool)) or not isinstance(right, (int, float, bool)):
        raise ExecutionError(f"arithmetic on non-numeric values: {left!r} {op} {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return math.fmod(left, right) if isinstance(left, float) or isinstance(right, float) else left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _like(left: Any, right: Any) -> Optional[bool]:
    if _is_unknown(left) or _is_unknown(right):
        return None
    return bool(_like_to_regex(str(right)).match(str(left)))


def _logical_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _logical_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def to_truth(value: Any) -> Optional[bool]:
    """Coerce an evaluated value to the three-valued logic domain."""
    if value is None or value is MISSING:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"value {value!r} is not a boolean predicate")


def _value_and(left: Any, right: Any) -> Optional[bool]:
    truth = to_truth(left)
    if truth is False:
        return False
    return _logical_and(truth, to_truth(right))


def _value_or(left: Any, right: Any) -> Optional[bool]:
    truth = to_truth(left)
    if truth is True:
        return True
    return _logical_or(truth, to_truth(right))


def binary_operator(op: str) -> Callable[[Any, Any], Any]:
    """Value-level semantics of binary operator *op* over two evaluated operands.

    AND/OR here see both operands already evaluated; compiled expressions
    short-circuit them instead (the right side of ``FALSE AND x`` is never
    evaluated) with the same truth table.
    """
    if op == "and":
        return _value_and
    if op == "or":
        return _value_or
    if op in _COMPARISONS:
        return _COMPARISONS[op]
    if op == "like":
        return _like
    return lambda left, right: _arithmetic(op, left, right)


def _negate(value: Any) -> Any:
    if _is_unknown(value):
        return None
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"cannot negate {value!r}")
    return -value


def _not(value: Any) -> Optional[bool]:
    truth = to_truth(value)
    return None if truth is None else (not truth)


def unary_operator(op: str) -> Callable[[Any], Any]:
    """Value-level semantics of unary operator *op* over an evaluated operand."""
    if op == "not":
        return _not
    if op == "neg":
        return _negate

    def unknown(_value: Any) -> Any:
        raise ExecutionError(f"unknown unary operator {op!r}")

    return unknown


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": lambda x: None if _is_unknown(x) else abs(x),
    "round": lambda x, digits=0: None if _is_unknown(x) else round(x, int(digits)),
    "lower": lambda x: None if _is_unknown(x) else str(x).lower(),
    "upper": lambda x: None if _is_unknown(x) else str(x).upper(),
    "length": lambda x: None if _is_unknown(x) else len(str(x)),
}


def scalar_function(name: str) -> Optional[Callable[..., Any]]:
    """The value-level form of scalar function *name* (lower-case), or None."""
    return _SCALAR_FUNCTIONS.get(name)


def in_values(value: Any, items: Iterable[Any], negated: bool) -> Optional[bool]:
    """``value [NOT] IN items``; *items* is consumed only while no item matches."""
    if value is None or value is MISSING:
        return None
    found_unknown = False
    for candidate in items:
        if candidate is None or candidate is MISSING:
            found_unknown = True
            continue
        if candidate == value:
            return not negated
    if found_unknown:
        return None
    return negated


def between_values(value: Any, low: Any, high: Any, negated: bool) -> Optional[bool]:
    """``value [NOT] BETWEEN low AND high`` over evaluated operands."""
    result = _logical_and(_GREATER_EQUAL(value, low), _LESS_EQUAL(value, high))
    if result is None:
        return None
    return result is not negated


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _failing(message: str) -> Evaluator:
    def fail(_row: PipelineRow) -> Any:
        raise ExecutionError(message)

    return fail


def _unknown_column(name: str, table: Optional[str]) -> Evaluator:
    def unknown(_row: PipelineRow) -> Any:
        raise UnknownColumnError(name, table)

    return unknown


def _compile_column(ref: ast.ColumnRef, _params: Params, layout: RowLayout) -> Evaluator:
    """Resolve *ref* to a slot of *layout* now; the closure reads one cell."""
    name, table = ref.name, ref.table
    try:
        slot, key = layout.slot_of(name, table)
    except UnknownColumnError:
        return _unknown_column(name, table)
    except ExecutionError as error:
        return _failing(str(error))
    if isinstance(key, int):  # a projected value, read by position
        return lambda row: row[slot][key]

    def column(row: PipelineRow) -> Any:
        try:
            return row[slot][name]
        except KeyError:
            raise UnknownColumnError(name, table) from None

    return column


def _compile_binary(expr: ast.BinaryOp, params: Params, layout: RowLayout) -> Evaluator:
    op = expr.op
    left = compile_expression(expr.left, params, layout)
    right = compile_expression(expr.right, params, layout)
    if op == "and":

        def conjunction(row: PipelineRow) -> Optional[bool]:
            truth = to_truth(left(row))
            if truth is False:
                return False
            return _logical_and(truth, to_truth(right(row)))

        return conjunction
    if op == "or":

        def disjunction(row: PipelineRow) -> Optional[bool]:
            truth = to_truth(left(row))
            if truth is True:
                return True
            return _logical_or(truth, to_truth(right(row)))

        return disjunction
    combine = binary_operator(op)
    # A literal or bound-parameter operand is a constant: read it once, here.
    constant = _constant(expr.right, params)
    if constant is not _NOT_CONSTANT:
        return lambda row: combine(left(row), constant)
    constant = _constant(expr.left, params)
    if constant is not _NOT_CONSTANT:
        return lambda row: combine(constant, right(row))
    return lambda row: combine(left(row), right(row))


def _compile_unary(expr: ast.UnaryOp, params: Params, layout: RowLayout) -> Evaluator:
    operand = compile_expression(expr.operand, params, layout)
    apply = unary_operator(expr.op)
    return lambda row: apply(operand(row))


def _compile_is_null(expr: ast.IsNull, params: Params, layout: RowLayout) -> Evaluator:
    operand = compile_expression(expr.operand, params, layout)
    negated = bool(expr.negated)
    if expr.missing:
        return lambda row: (operand(row) is MISSING) is not negated

    def is_null(row: PipelineRow) -> bool:
        value = operand(row)
        return (value is None or value is MISSING) is not negated

    return is_null


def _compile_in_list(expr: ast.InList, params: Params, layout: RowLayout) -> Evaluator:
    operand = compile_expression(expr.operand, params, layout)
    items = [compile_expression(item, params, layout) for item in expr.items]
    negated = bool(expr.negated)
    return lambda row: in_values(operand(row), (item(row) for item in items), negated)


def _compile_between(expr: ast.Between, params: Params, layout: RowLayout) -> Evaluator:
    operand = compile_expression(expr.operand, params, layout)
    low = compile_expression(expr.low, params, layout)
    high = compile_expression(expr.high, params, layout)
    negated = bool(expr.negated)
    return lambda row: between_values(operand(row), low(row), high(row), negated)


def _compile_function(expr: ast.FunctionCall, params: Params, layout: RowLayout) -> Evaluator:
    name = expr.name.lower()
    if name in ast.AGGREGATE_FUNCTIONS:
        computed = layout.aggregate_slot(expr)
        if computed is not None:
            slot, index = computed
            return lambda row: row[slot][index]
        return _failing(
            f"aggregate function {name.upper()} used outside of an aggregation context"
        )
    args = [compile_expression(arg, params, layout) for arg in expr.args]
    if name == "coalesce":

        def coalesce(row: PipelineRow) -> Any:
            for arg in args:
                value = arg(row)
                if value is not None and value is not MISSING:
                    return value
            return None

        return coalesce
    handler = scalar_function(name)
    if handler is None:
        return _failing(f"unknown function {expr.name!r}")
    return lambda row: handler(*[arg(row) for arg in args])


def _compile_case(expr: ast.CaseExpression, params: Params, layout: RowLayout) -> Evaluator:
    branches = [
        (compile_expression(condition, params, layout), compile_expression(value, params, layout))
        for condition, value in expr.branches
    ]
    default = (
        compile_expression(expr.default, params, layout) if expr.default is not None else None
    )

    def case(row: PipelineRow) -> Any:
        for condition, value in branches:
            if to_truth(condition(row)):
                return value(row)
        if default is not None:
            return default(row)
        return None

    return case


def _compile_literal(expr: ast.Literal, _params: Params, _layout: RowLayout) -> Evaluator:
    value = expr.value
    return lambda _row: value


def _compile_star(_expr: ast.Star, _params: Params, _layout: RowLayout) -> Evaluator:
    return _failing("'*' is only valid inside COUNT(*) or a SELECT list")


def _compile_parameter(expr: ast.Parameter, params: Params, _layout: RowLayout) -> Evaluator:
    if not params:
        return _failing(f"unbound parameter {expr.index + 1}; bind values before execution")
    value = _constant(expr, params)
    return lambda _row: value


_NOT_CONSTANT = object()


def _constant(expr: ast.Expression, params: Params) -> Any:
    """The value of a literal or bound placeholder, else ``_NOT_CONSTANT``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter) and params:
        try:
            return params[expr.index]
        except IndexError:
            raise ParameterBindingError(f"no value bound for parameter {expr.index + 1}") from None
    return _NOT_CONSTANT


_COMPILERS: dict[type, Callable[[Any, Params, RowLayout], Evaluator]] = {
    ast.Literal: _compile_literal,
    ast.ColumnRef: _compile_column,
    ast.Star: _compile_star,
    ast.Parameter: _compile_parameter,
    ast.UnaryOp: _compile_unary,
    ast.BinaryOp: _compile_binary,
    ast.IsNull: _compile_is_null,
    ast.InList: _compile_in_list,
    ast.Between: _compile_between,
    ast.FunctionCall: _compile_function,
    ast.CaseExpression: _compile_case,
}


def compile_expression(
    expr: ast.Expression, params: Params = (), layout: RowLayout = NO_TABLES
) -> Evaluator:
    """Compile *expr* once into a closure evaluating it against a pipeline row.

    Every column reference is resolved against *layout* here, to the slot
    it reads; a reference the layout cannot resolve (unknown, or a bare
    name two tables share) compiles to a closure that raises when it runs.
    Each ``?`` placeholder reads its slot of *params*, the execution's
    parameter tuple, here at compile time; with no tuple a placeholder
    fails when evaluated.  MISSING propagates as unknown; AND/OR/CASE/
    COALESCE short-circuit left to right.  Callers on a per-row path
    compile at lowering time and call the closure per row.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _failing(f"cannot evaluate expression of type {type(expr).__name__}")
    return compiler(expr, params, layout)


def compile_predicate(
    expr: ast.Expression | None, params: Params = (), layout: RowLayout = NO_TABLES
) -> Callable[[PipelineRow], bool]:
    """Compile a WHERE/HAVING/ON predicate; unknown collapses to False."""
    if expr is None:
        return lambda _row: True
    evaluator = compile_expression(expr, params, layout)

    def predicate(row: PipelineRow) -> bool:
        value = evaluator(row)
        if value is True:
            return True
        if value is False or value is None:
            return False
        return bool(to_truth(value))

    return predicate


def hashable_key(value: Any) -> Any:
    """Map a value to a hashable stand-in (MISSING gets a private sentinel)."""
    if value is MISSING:
        return MISSING_KEY
    return value


#: The grouping and DISTINCT stand-in for MISSING.
MISSING_KEY = "\x00MISSING\x00"


def evaluate(expr: ast.Expression, params: Params = ()) -> Any:
    """Evaluate a row-independent *expr* once (one-shot callers)."""
    return compile_expression(expr, params)(())


def expression_label(expr: ast.Expression, params: Params = ()) -> str:
    """Human-readable label used as the output column name for an expression.

    Output names are labelled from the statement template, so a ``?``
    renders as ``?N``; EXPLAIN passes the execution's *params* to render
    the bound values instead.
    """
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(expression_label(arg, params) for arg in expr.args)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, ast.BinaryOp):
        left = expression_label(expr.left, params)
        return f"{left} {expr.op} {expression_label(expr.right, params)}"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op} {expression_label(expr.operand, params)}"
    if isinstance(expr, ast.Star):
        return "*"
    if isinstance(expr, ast.Parameter):
        if expr.index < len(params):
            return repr(params[expr.index])
        # Include the position: distinct placeholders must never compare
        # equal (GROUP BY validation matches expressions by label).
        return f"?{expr.index + 1}"
    return type(expr).__name__.lower()
