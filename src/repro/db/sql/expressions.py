"""Expression evaluation with SQL three-valued logic.

Values flow through evaluation as plain Python objects; SQL ``NULL`` and the
crowd-database :data:`~repro.db.types.MISSING` marker both evaluate to the
*unknown* truth value in predicates.  Evaluation returns ``None`` for
unknown results; predicates collapse unknown to ``False`` (a row with an
unknown predicate does not qualify), which matches the behaviour the paper
assumes for not-yet-crowdsourced values.

:func:`compile_expression` is the one evaluator: it turns an expression
AST into a Python closure over a :class:`RowContext` once, so operators
compile their expressions at lowering time and pay no tree walk per row.
Errors (unknown columns, bad functions, type errors) are raised when the
closure runs, never at compile time, so an expression on a branch or a row
that is never evaluated cannot fail a query.  The one exception is a ``?``
with no slot in a non-empty parameter tuple, a binding error raised before
the statement runs.  :func:`evaluate` is a one-shot convenience over the
compiler.
"""

from __future__ import annotations

import math
import operator
import re
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.db.sql import ast
from repro.db.types import MISSING
from repro.errors import ExecutionError, ParameterBindingError, UnknownColumnError

#: A compiled expression: evaluates against one row context.
Evaluator = Callable[["RowContext"], Any]

#: One execution's ``?`` values, read by position (empty: unbound).
Params = Sequence[Any]


class RowContext:
    """Column lookup environment for one (possibly joined) row.

    Bare column names resolve through one dict; each table's row is kept
    whole under its alias, and a qualified reference ``alias.column`` reads
    ``tables[alias][column]`` (``alias.__rowid__`` reads the row's rowid).
    A context never copies or mutates the rows it is given: a
    single-table context's bare names *are* its row, which the scan that
    produced it owns.  Bare names two joined tables share are flagged as
    ambiguous and raise on lookup.  Contexts are immutable; ``joined`` and
    ``with_bindings`` build new ones.
    """

    __slots__ = ("_bare", "_tables", "_rowids", "_ambiguous")

    _bare: Mapping[str, Any]
    _tables: Mapping[str, Mapping[str, Any]]
    _rowids: Mapping[str, int]
    _ambiguous: frozenset[str]

    def __init__(self) -> None:
        """The empty context (table-less SELECTs, constant expressions)."""
        self._bare = self._tables = self._rowids = _EMPTY
        self._ambiguous = _NO_AMBIGUITY

    @classmethod
    def for_table_row(
        cls, alias: str, row: Mapping[str, Any], rowid: Optional[int] = None
    ) -> "RowContext":
        """The context of one scanned row; *row* is used as it is, not copied.

        Equivalent to ``RowContext().joined(alias, row, rowid)``.
        """
        return _context(row, {alias: row}, _EMPTY if rowid is None else {alias: rowid})

    def joined(
        self, alias: str, row: Mapping[str, Any], rowid: Optional[int] = None
    ) -> "RowContext":
        """This context extended with one more table row.

        The left side's rows are shared, not re-qualified.  A bare name
        *row* shares with this context keeps this context's value and is
        flagged ambiguous, as are the names this context already flagged.
        """
        bare = {**row, **self._bare}
        ambiguous = self._ambiguous
        if len(bare) < len(row) + len(self._bare):
            ambiguous = ambiguous | (self._bare.keys() & row.keys())
        rowids = self._rowids if rowid is None else {**self._rowids, alias: rowid}
        return _context(bare, {**self._tables, alias: row}, rowids, ambiguous)

    def with_bindings(self, names: Sequence[str], values: Sequence[Any]) -> "RowContext":
        """This context with bare *names* bound to *values* (last wins).

        Used for projection aliases; the bindings shadow bare column names
        and the result carries no ambiguity flags.
        """
        bare = dict(self._bare)
        bare.update(zip(names, values))
        return _context(bare, self._tables, self._rowids, _NO_AMBIGUITY)

    def lookup(self, ref: ast.ColumnRef) -> Any:
        """Resolve a column reference or raise UnknownColumnError."""
        return compile_expression(ref)(self)


_EMPTY: Mapping[str, Any] = MappingProxyType({})
_NO_AMBIGUITY: frozenset[str] = frozenset()
_new_context = object.__new__


def _context(
    bare: Mapping[str, Any],
    tables: Mapping[str, Mapping[str, Any]],
    rowids: Mapping[str, int],
    ambiguous: frozenset[str] = _NO_AMBIGUITY,
) -> RowContext:
    context: RowContext = _new_context(RowContext)
    context._bare = bare
    context._tables = tables
    context._rowids = rowids
    context._ambiguous = ambiguous
    return context


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


def _to_truth(value: Any) -> Optional[bool]:
    """Coerce an evaluated value to the three-valued logic domain."""
    if value is None or value is MISSING:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"value {value!r} is not a boolean predicate")


def _value_and(left: Any, right: Any) -> Optional[bool]:
    truth = _to_truth(left)
    if truth is False:
        return False
    return _logical_and(truth, _to_truth(right))


def _value_or(left: Any, right: Any) -> Optional[bool]:
    truth = _to_truth(left)
    if truth is True:
        return True
    return _logical_or(truth, _to_truth(right))


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
    truth = _to_truth(value)
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


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _failing(message: str) -> Evaluator:
    def fail(_context: RowContext) -> Any:
        raise ExecutionError(message)

    return fail


def _compile_column(ref: ast.ColumnRef, _params: Params) -> Evaluator:
    name, table = ref.name, ref.table

    if table is None:

        def bare_column(context: RowContext) -> Any:
            if name in context._ambiguous:
                raise ExecutionError(f"ambiguous column reference: {name!r}")
            try:
                return context._bare[name]
            except KeyError:
                raise UnknownColumnError(name, table) from None

        if "." not in name:
            return bare_column
        # A column literally named "alias.column" (schemas forbid it, so
        # only hand-built contexts have one) is ambiguous with the column
        # that qualified reference names, when that table has one.
        alias, _, column = name.partition(".")

        def dotted_column(context: RowContext) -> Any:
            if name in context._bare and column in context._tables.get(alias, _EMPTY):
                raise ExecutionError(f"ambiguous column reference: {name!r}")
            return bare_column(context)

        return dotted_column

    if name == "__rowid__":

        def rowid_column(context: RowContext) -> Any:
            rowid = context._rowids.get(table)
            if rowid is not None:
                return rowid
            try:
                return context._tables[table][name]
            except KeyError:
                raise UnknownColumnError(name, table) from None

        return rowid_column

    def qualified_column(context: RowContext) -> Any:
        try:
            return context._tables[table][name]
        except KeyError:
            raise UnknownColumnError(name, table) from None

    return qualified_column


def _compile_binary(expr: ast.BinaryOp, params: Params) -> Evaluator:
    op = expr.op
    left = compile_expression(expr.left, params)
    right = compile_expression(expr.right, params)
    if op == "and":

        def conjunction(context: RowContext) -> Optional[bool]:
            truth = _to_truth(left(context))
            if truth is False:
                return False
            return _logical_and(truth, _to_truth(right(context)))

        return conjunction
    if op == "or":

        def disjunction(context: RowContext) -> Optional[bool]:
            truth = _to_truth(left(context))
            if truth is True:
                return True
            return _logical_or(truth, _to_truth(right(context)))

        return disjunction
    combine = binary_operator(op)
    # A literal or bound-parameter operand is a constant: read it once, here.
    constant = _constant(expr.right, params)
    if constant is not _NOT_CONSTANT:
        return lambda context: combine(left(context), constant)
    constant = _constant(expr.left, params)
    if constant is not _NOT_CONSTANT:
        return lambda context: combine(constant, right(context))
    return lambda context: combine(left(context), right(context))


def _compile_unary(expr: ast.UnaryOp, params: Params) -> Evaluator:
    operand = compile_expression(expr.operand, params)
    apply = unary_operator(expr.op)
    return lambda context: apply(operand(context))


def _compile_is_null(expr: ast.IsNull, params: Params) -> Evaluator:
    operand = compile_expression(expr.operand, params)
    negated = bool(expr.negated)
    if expr.missing:
        return lambda context: (operand(context) is MISSING) is not negated

    def is_null(context: RowContext) -> bool:
        value = operand(context)
        return (value is None or value is MISSING) is not negated

    return is_null


def _compile_in_list(expr: ast.InList, params: Params) -> Evaluator:
    operand = compile_expression(expr.operand, params)
    items = [compile_expression(item, params) for item in expr.items]
    negated = bool(expr.negated)

    def in_list(context: RowContext) -> Optional[bool]:
        value = operand(context)
        if value is None or value is MISSING:
            return None
        found_unknown = False
        for item in items:
            candidate = item(context)
            if candidate is None or candidate is MISSING:
                found_unknown = True
                continue
            if candidate == value:
                return not negated
        if found_unknown:
            return None
        return negated

    return in_list


def _compile_between(expr: ast.Between, params: Params) -> Evaluator:
    operand = compile_expression(expr.operand, params)
    low = compile_expression(expr.low, params)
    high = compile_expression(expr.high, params)
    negated = bool(expr.negated)

    def between(context: RowContext) -> Optional[bool]:
        value = operand(context)
        low_value = low(context)
        high_value = high(context)
        result = _logical_and(
            _GREATER_EQUAL(value, low_value), _LESS_EQUAL(value, high_value)
        )
        if result is None:
            return None
        return result is not negated

    return between


def _compile_function(expr: ast.FunctionCall, params: Params) -> Evaluator:
    name = expr.name.lower()
    if name in ast.AGGREGATE_FUNCTIONS:
        return _failing(
            f"aggregate function {name.upper()} used outside of an aggregation context"
        )
    args = [compile_expression(arg, params) for arg in expr.args]
    if name == "coalesce":

        def coalesce(context: RowContext) -> Any:
            for arg in args:
                value = arg(context)
                if value is not None and value is not MISSING:
                    return value
            return None

        return coalesce
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        return _failing(f"unknown function {expr.name!r}")
    return lambda context: handler(*[arg(context) for arg in args])


def _compile_case(expr: ast.CaseExpression, params: Params) -> Evaluator:
    branches = [
        (compile_expression(condition, params), compile_expression(value, params))
        for condition, value in expr.branches
    ]
    default = compile_expression(expr.default, params) if expr.default is not None else None

    def case(context: RowContext) -> Any:
        for condition, value in branches:
            if _to_truth(condition(context)):
                return value(context)
        if default is not None:
            return default(context)
        return None

    return case


def _compile_literal(expr: ast.Literal, _params: Params) -> Evaluator:
    value = expr.value
    return lambda _context: value


def _compile_star(_expr: ast.Star, _params: Params) -> Evaluator:
    return _failing("'*' is only valid inside COUNT(*) or a SELECT list")


def _compile_parameter(expr: ast.Parameter, params: Params) -> Evaluator:
    if not params:
        return _failing(f"unbound parameter {expr.index + 1}; bind values before execution")
    value = _constant(expr, params)
    return lambda _context: value


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


_COMPILERS: dict[type, Callable[[Any, Params], Evaluator]] = {
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


def compile_expression(expr: ast.Expression, params: Params = ()) -> Evaluator:
    """Compile *expr* once into a closure evaluating it against a row context.

    Each ``?`` placeholder reads its slot of *params*, the execution's
    parameter tuple, here at compile time; with no tuple a placeholder
    fails when evaluated.  MISSING propagates as unknown; AND/OR/CASE/
    COALESCE short-circuit left to right.  Callers on a per-row path
    compile at lowering time and call the closure per row.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _failing(f"cannot evaluate expression of type {type(expr).__name__}")
    return compiler(expr, params)


def compile_predicate(
    expr: ast.Expression | None, params: Params = ()
) -> Callable[[RowContext], bool]:
    """Compile a WHERE/HAVING/ON predicate; unknown collapses to False."""
    if expr is None:
        return lambda _context: True
    evaluator = compile_expression(expr, params)

    def predicate(context: RowContext) -> bool:
        value = evaluator(context)
        if value is True:
            return True
        if value is False or value is None:
            return False
        return bool(_to_truth(value))

    return predicate


def evaluate(expr: ast.Expression, context: RowContext, params: Params = ()) -> Any:
    """Evaluate *expr* once against *context* (one-shot callers)."""
    return compile_expression(expr, params)(context)


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
