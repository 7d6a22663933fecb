"""Expression evaluation with SQL three-valued logic.

Values flow through evaluation as plain Python objects; SQL ``NULL`` and the
crowd-database :data:`~repro.db.types.MISSING` marker both evaluate to the
*unknown* truth value in predicates.  ``evaluate`` returns ``None`` for
unknown results; :func:`evaluate_predicate` collapses unknown to ``False``
(a row with an unknown predicate does not qualify), which matches the
behaviour the paper assumes for not-yet-crowdsourced values.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Mapping, Optional

from repro.db.sql import ast
from repro.db.types import is_missing
from repro.errors import ExecutionError, UnknownColumnError

class RowContext:
    """Column lookup environment for one (possibly joined) row.

    Values are stored under both their bare column name and their
    ``alias.column`` qualified form.  Ambiguous bare names (same column name
    from two joined tables) are detected at build time and raise on lookup.
    """

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}
        self._ambiguous: set[str] = set()

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> "RowContext":
        """Build a context from a plain mapping (no ambiguity tracking)."""
        context = cls()
        context._values.update(values)
        return context

    def add_table_row(self, alias: str, row: Mapping[str, Any]) -> None:
        """Merge the columns of *row* under table alias *alias*."""
        for column, value in row.items():
            qualified = f"{alias}.{column}"
            self._values[qualified] = value
            if column in self._values:
                self._ambiguous.add(column)
            else:
                self._values[column] = value

    def set(self, key: str, value: Any) -> None:
        """Bind *key* directly (used for projection aliases)."""
        self._values[key] = value
        self._ambiguous.discard(key)

    def lookup(self, ref: ast.ColumnRef) -> Any:
        """Resolve a column reference or raise UnknownColumnError."""
        key = ref.key()
        if ref.table is None and key in self._ambiguous:
            raise ExecutionError(f"ambiguous column reference: {ref.name!r}")
        if key not in self._values:
            raise UnknownColumnError(ref.name, ref.table)
        return self._values[key]

    def contains(self, key: str) -> bool:
        """True if *key* (qualified or bare) is bound in this context."""
        return key in self._values

    def as_mapping(self) -> Mapping[str, Any]:
        """Read-only view of the underlying bindings."""
        return dict(self._values)


def _is_unknown(value: Any) -> bool:
    return value is None or is_missing(value)


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE)


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued comparison; returns None when either side is unknown."""
    if _is_unknown(left) or _is_unknown(right):
        return None
    # Booleans compare with numbers the Python way; text compares with text.
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise ExecutionError(f"cannot compare {left!r} and {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


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
    if _is_unknown(value):
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"value {value!r} is not a boolean predicate")


def evaluate(expr: ast.Expression, context: RowContext) -> Any:
    """Evaluate *expr* against *context*; MISSING propagates as unknown."""
    if isinstance(expr, ast.Literal):
        return expr.value

    if isinstance(expr, ast.ColumnRef):
        return context.lookup(expr)

    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is only valid inside COUNT(*) or a SELECT list")

    if isinstance(expr, ast.Parameter):
        raise ExecutionError(
            f"unbound parameter {expr.index + 1}; bind values before execution"
        )

    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, context)
        if expr.op == "not":
            truth = _to_truth(operand)
            return None if truth is None else (not truth)
        if expr.op == "neg":
            if _is_unknown(operand):
                return None
            if not isinstance(operand, (int, float)):
                raise ExecutionError(f"cannot negate {operand!r}")
            return -operand
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op == "and":
            left = _to_truth(evaluate(expr.left, context))
            if left is False:
                return False
            right = _to_truth(evaluate(expr.right, context))
            return _logical_and(left, right)
        if op == "or":
            left = _to_truth(evaluate(expr.left, context))
            if left is True:
                return True
            right = _to_truth(evaluate(expr.right, context))
            return _logical_or(left, right)

        left_value = evaluate(expr.left, context)
        right_value = evaluate(expr.right, context)
        if op in {"=", "!=", "<", "<=", ">", ">="}:
            return _compare(op, left_value, right_value)
        if op == "like":
            if _is_unknown(left_value) or _is_unknown(right_value):
                return None
            return bool(_like_to_regex(str(right_value)).match(str(left_value)))
        return _arithmetic(op, left_value, right_value)

    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, context)
        if expr.missing:
            result = is_missing(value)
        else:
            result = value is None or is_missing(value)
        return (not result) if expr.negated else result

    if isinstance(expr, ast.InList):
        value = evaluate(expr.operand, context)
        if _is_unknown(value):
            return None
        found_unknown = False
        for item in expr.items:
            candidate = evaluate(item, context)
            if _is_unknown(candidate):
                found_unknown = True
                continue
            if candidate == value:
                return False if expr.negated else True
        if found_unknown:
            return None
        return True if expr.negated else False

    if isinstance(expr, ast.Between):
        value = evaluate(expr.operand, context)
        low = evaluate(expr.low, context)
        high = evaluate(expr.high, context)
        lower = _compare(">=", value, low)
        upper = _compare("<=", value, high)
        result = _logical_and(lower, upper)
        if result is None:
            return None
        return (not result) if expr.negated else result

    if isinstance(expr, ast.FunctionCall):
        return _evaluate_scalar_function(expr, context)

    if isinstance(expr, ast.CaseExpression):
        for condition, value in expr.branches:
            truth = _to_truth(evaluate(condition, context))
            if truth:
                return evaluate(value, context)
        if expr.default is not None:
            return evaluate(expr.default, context)
        return None

    raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": lambda x: None if _is_unknown(x) else abs(x),
    "round": lambda x, digits=0: None if _is_unknown(x) else round(x, int(digits)),
    "lower": lambda x: None if _is_unknown(x) else str(x).lower(),
    "upper": lambda x: None if _is_unknown(x) else str(x).upper(),
    "length": lambda x: None if _is_unknown(x) else len(str(x)),
    "coalesce": None,  # handled specially (variadic, lazy)
}


def _evaluate_scalar_function(expr: ast.FunctionCall, context: RowContext) -> Any:
    name = expr.name.lower()
    if name in ast.AGGREGATE_FUNCTIONS:
        raise ExecutionError(
            f"aggregate function {name.upper()} used outside of an aggregation context"
        )
    if name == "coalesce":
        for arg in expr.args:
            value = evaluate(arg, context)
            if not _is_unknown(value):
                return value
        return None
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    args = [evaluate(arg, context) for arg in expr.args]
    return handler(*args)


def evaluate_predicate(expr: ast.Expression | None, context: RowContext) -> bool:
    """Evaluate a WHERE/HAVING/ON predicate; unknown collapses to False."""
    if expr is None:
        return True
    result = _to_truth(evaluate(expr, context))
    return bool(result)


def expression_label(expr: ast.Expression) -> str:
    """Human-readable label used as the output column name for an expression."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(expression_label(arg) for arg in expr.args)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, ast.BinaryOp):
        return f"{expression_label(expr.left)} {expr.op} {expression_label(expr.right)}"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op} {expression_label(expr.operand)}"
    if isinstance(expr, ast.Star):
        return "*"
    if isinstance(expr, ast.Parameter):
        # Include the position: distinct placeholders must never compare
        # equal (GROUP BY validation matches expressions by label).
        return f"?{expr.index + 1}"
    return type(expr).__name__.lower()
