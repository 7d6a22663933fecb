"""``wal-coverage``: every mutation path has a registered, replayable WAL record.

Durability is an end-to-end property: a mutation is only durable if (a)
the storage mutator fires a journal hook, (b) the hook appends a record
whose ``op`` is registered in :data:`repro.db.wal.RECORD_TYPES`, and (c)
recovery (``DurabilityManager._apply``) has a handler for that op.  Any
gap loses acknowledged writes on the *next crash*, which no unit test of
the happy path will ever see.  This rule cross-checks all three layers
from the source:

* the ``RECORD_TYPES`` registry must exist in ``db/wal.py``;
* every op literal appended in ``db/durability.py`` must be registered;
* every op handled in ``_apply`` must be registered, and every registered
  op must have both an append site and a replay handler;
* every ``TableStorage`` mutator must reference its journal hook
  (``self.journal``).  ``restore_row`` / ``set_provenance`` /
  ``advance_rowid`` are recovery-path setters invoked *by* replay and are
  deliberately unjournalled.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, Module, Project, Rule, register

__all__ = ["WalCoverageRule"]

WAL_MODULE = "db/wal.py"
DURABILITY_MODULE = "db/durability.py"
STORAGE_MODULE = "db/storage.py"

#: TableStorage methods that mutate durable state and must journal.
JOURNALLED_MUTATORS = frozenset(
    {"insert", "update", "delete", "add_column", "create_index", "fill_values"}
)


def _record_types(module: Module) -> tuple[frozenset[str] | None, int]:
    """The RECORD_TYPES literal in *module* (value, line) or (None, 0)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "RECORD_TYPES"
            for target in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call) and len(value.args) == 1:
            value = value.args[0]  # frozenset({...})
        literals: set[str] = set()
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    literals.add(element.value)
        return frozenset(literals), node.lineno
    return None, 0


def _appended_ops(module: Module) -> dict[str, int]:
    """Op literals passed to ``*.append(op, payload)`` calls (op -> line)."""
    ops: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else None
        if name != "append":
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            ops.setdefault(first.value, node.lineno)
    return ops


def _handled_ops(module: Module) -> dict[str, int]:
    """Op literals compared against inside ``_apply`` (op -> line)."""
    ops: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.FunctionDef) or node.name != "_apply":
            continue
        for compare in ast.walk(node):
            if not isinstance(compare, ast.Compare):
                continue
            if not isinstance(compare.left, ast.Name) or compare.left.id != "op":
                continue
            for op_node, comparator in zip(compare.ops, compare.comparators):
                if isinstance(op_node, ast.Eq) and isinstance(comparator, ast.Constant):
                    if isinstance(comparator.value, str):
                        ops.setdefault(comparator.value, compare.lineno)
    return ops


def _storage_mutators(module: Module) -> dict[str, ast.FunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == "TableStorage":
            return {
                child.name: child
                for child in node.body
                if isinstance(child, ast.FunctionDef)
                and child.name in JOURNALLED_MUTATORS
            }
    return {}


def _references_journal(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "journal"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


@register
class WalCoverageRule(Rule):
    id = "wal-coverage"
    summary = "storage mutations, WAL record registry, and replay stay in sync"
    rationale = (
        "A mutation is durable only if storage journals it, the record type "
        "is registered in db/wal.py RECORD_TYPES, and recovery replays it. "
        "Any gap silently loses acknowledged writes at the next crash; this "
        "rule cross-checks all three layers so the gap fails CI instead."
    )
    roles = frozenset({"src"})

    def finalize(self, project: Project) -> Iterable[Finding]:
        wal_mod = project.module_matching(WAL_MODULE)
        if wal_mod is None:
            return  # nothing durable in this project slice

        registry, registry_line = _record_types(wal_mod)
        if registry is None:
            yield Finding(
                rule=self.id,
                message=(
                    "db/wal.py has no RECORD_TYPES registry; the WAL record "
                    "vocabulary must be a closed, checkable set"
                ),
                path=wal_mod.path,
                line=1,
            )
            return

        dur_mod = project.module_matching(DURABILITY_MODULE)
        appended = _appended_ops(dur_mod) if dur_mod is not None else {}
        handled = _handled_ops(dur_mod) if dur_mod is not None else {}

        for op, line in sorted(appended.items()):
            if op not in registry:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"WAL record {op!r} is appended but not registered in "
                        "db/wal.py RECORD_TYPES"
                    ),
                    path=dur_mod.path if dur_mod else wal_mod.path,
                    line=line,
                )
        for op, line in sorted(handled.items()):
            if op not in registry:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"replay handles WAL record {op!r} which is not in "
                        "db/wal.py RECORD_TYPES"
                    ),
                    path=dur_mod.path if dur_mod else wal_mod.path,
                    line=line,
                )
        if dur_mod is not None:
            for op in sorted(registry):
                if op not in handled:
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"WAL record type {op!r} has no replay handler in "
                            "DurabilityManager._apply; a crash after appending "
                            "it would strand the record"
                        ),
                        path=wal_mod.path,
                        line=registry_line,
                    )
                if op not in appended:
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"WAL record type {op!r} is registered but never "
                            "appended; dead registry entries hide coverage gaps"
                        ),
                        path=wal_mod.path,
                        line=registry_line,
                    )

        storage_mod = project.module_matching(STORAGE_MODULE)
        if storage_mod is not None:
            for name, func in sorted(_storage_mutators(storage_mod).items()):
                if not _references_journal(func):
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"TableStorage.{name}() mutates durable state but "
                            "never fires its journal hook (self.journal); the "
                            "mutation would not survive a restart"
                        ),
                        path=storage_mod.path,
                        line=func.lineno,
                    )
