"""Qmark-style ``?`` parameters: counting, arity checks and plan rewriting.

Placeholders are lexed as first-class tokens (never inside string literals)
and parsed into :class:`~repro.db.sql.ast.Parameter` leaves numbered left to
right, so values are never interpolated into SQL text.  The engine binds
them without touching the AST: each execution hands its parameter tuple
down to :func:`~repro.db.sql.expressions.compile_expression`, which turns
every placeholder into a read of its slot.  A parsed statement and its
cached plan are therefore shared, unchanged, by every execution.

This module keeps the checks that run before an execution
(:func:`normalize_params`, :func:`count_parameters`, :func:`check_arity`) and
:func:`bind_select_plan`, a structural rewrite of a planned SELECT that
replaces each placeholder with a literal.  The engine does not call it;
the benchmark's traced front-end replay (``perfbench/layers.py``) does.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence, TypeVar

from repro.db.sql import ast
from repro.db.sql.planner import SelectPlan
from repro.db.types import Missing
from repro.errors import ParameterBindingError

_Node = TypeVar("_Node")

#: The types a bound value may have: ``None``, ``bool`` (an ``int``), ``int``,
#: ``float`` (NaN and infinities too), ``str`` and ``MISSING``; subclasses count.
_VALUE_TYPES = (int, float, str, type(None), Missing)
#: Their common exact classes, checked first: the rule runs on every execution.
_PLAIN_TYPES = frozenset({int, float, str, bool, type(None)})


def normalize_params(params: Any) -> tuple[Any, ...]:
    """The one parameter rule of every cursor, embedded and served.

    *params* is a sequence, not a ``str``, ``bytes`` or mapping (else
    :class:`TypeError`), of :data:`_VALUE_TYPES` values (else
    :class:`ParameterBindingError`).
    """
    if params.__class__ is not tuple:
        if isinstance(params, (str, bytes, bytearray, Mapping)) or not isinstance(params, Sequence):
            raise TypeError("parameters must be a sequence, e.g. a tuple")
        params = tuple(params)
    for position, value in enumerate(params, start=1):
        if value.__class__ not in _PLAIN_TYPES and not isinstance(value, _VALUE_TYPES):
            raise ParameterBindingError(
                f"parameter {position} has unsupported type {type(value).__name__}; "
                "expected None, bool, int, float, str or MISSING"
            )
    return params


def count_parameters(node: Any) -> int:
    """Number of ``?`` placeholders in *node* (a statement or expression)."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Parameter):
            count += 1
        elif isinstance(current, ast.Literal):
            continue  # never descend into bound Python values
        elif isinstance(current, tuple):
            stack.extend(current)
        elif dataclasses.is_dataclass(current) and not isinstance(current, type):
            for field in dataclasses.fields(current):
                stack.append(getattr(current, field.name))
    return count


def check_arity(expected: int, params: Sequence[Any]) -> None:
    """Raise :class:`ParameterBindingError` unless ``len(params) == expected``."""
    if len(params) != expected:
        raise ParameterBindingError(
            f"statement takes {expected} parameter{'s' if expected != 1 else ''}, "
            f"{len(params)} given"
        )


def bind_select_plan(plan: SelectPlan, params: Sequence[Any]) -> SelectPlan:
    """Return *plan* with every ``?`` replaced by a literal from *params*.

    Used only by the benchmark's front-end replay, which lowers the result
    with :meth:`~repro.db.sql.planner.Planner.lower` and no parameters.
    """
    if not params:
        return plan
    return _rebuild(plan, tuple(params))


def _rebuild(node: _Node, params: tuple[Any, ...]) -> _Node:
    """Generic structural substitution of ``Parameter`` leaves.

    Rebuilds only the paths that actually contain parameters; untouched
    subtrees are returned by identity, so binding shares structure with the
    cached template.
    """
    if isinstance(node, ast.Parameter):
        try:
            return ast.Literal(params[node.index])
        except IndexError as exc:
            raise ParameterBindingError(
                f"no value bound for parameter {node.index + 1}"
            ) from exc
    if isinstance(node, ast.Literal):
        return node  # never descend into bound Python values
    if isinstance(node, tuple):
        rebuilt = tuple(_rebuild(item, params) for item in node)
        return node if all(a is b for a, b in zip(rebuilt, node)) else rebuilt
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            replacement = _rebuild(value, params)
            if replacement is not value:
                changes[field.name] = replacement
        return dataclasses.replace(node, **changes) if changes else node
    return node
