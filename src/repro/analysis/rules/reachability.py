"""``unreachable-definition``: every ``src`` definition has a non-test caller.

Code that only its own tests call still costs reading, review and test
time, and it hides which paths the system really runs.  This rule marks,
by name and transitively, what non-test code reaches from these roots:

* module-level code of ``src`` modules (imports, constants, registries,
  ``__main__`` blocks), except the re-exports of an ``__init__`` module
  and ``__all__`` entries, which name a definition without using it;
* every file under the non-test caller directories :data:`CALLER_DIRS`,
  which the rule parses itself from the repository root above the
  scanned ``src/`` directory, so scanning ``src`` alone and scanning
  ``src tests benchmarks`` give the same answer (``src`` files left out
  of a partial scan are read as callers the same way);
* ``@register``-decorated rules, which the registry reaches;
* every name the public API document :data:`PUBLIC_API` shows as code.

A top-level function or class is reached when a reached body mentions its
name (:func:`~repro.analysis.callgraph.references`).  A method is reached
when its class is reached and its name is mentioned, when it is a dunder,
or when it overrides a hook that an external base class calls by a name
built at run time (:data:`DISPATCH_PREFIXES`).  Everything else is a
finding; a method is reported only when its class is reached.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Union

from repro.analysis.callgraph import attribute_path, references
from repro.analysis.core import Finding, Module, Project, Rule, register

__all__ = ["CALLER_DIRS", "DISPATCH_PREFIXES", "PUBLIC_API", "UnreachableDefinitionRule"]

#: Directories beside ``src/`` whose code calls into it without being a test.
CALLER_DIRS = ("benchmarks", "examples", "perfbench")

#: The public API document, relative to the repository root.
PUBLIC_API = "docs/api.md"

#: External base classes that call subclass methods by a name they build
#: at run time, with that name's prefix (``ast.NodeVisitor.visit`` calls
#: ``visit_<node type>``).
DISPATCH_PREFIXES = {"NodeVisitor": "visit_"}

_MARKDOWN_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


@dataclass
class _Definition:
    module: Module
    node: _DefNode
    refs: set[str]
    owner: _Definition | None = None
    hook_prefixes: tuple[str, ...] = ()
    reached: bool = False

    @property
    def qualname(self) -> str:
        if self.owner is None:
            return self.node.name
        return f"{self.owner.node.name}.{self.node.name}"

    def reachable(self, names: set[str]) -> bool:
        name = self.node.name
        if self.owner is None:
            return name in names or any(
                isinstance(decorator, ast.Name) and decorator.id == register.__name__
                for decorator in self.node.decorator_list
            )
        return self.owner.reached and (
            name in names
            or (name.startswith("__") and name.endswith("__"))
            or name.startswith(self.owner.hook_prefixes)
        )


def _repo_root(module: Module) -> str | None:
    """The directory holding the ``src/`` directory *module* lives in."""
    parts = PurePosixPath(module.norm).parts[:-1]
    if "src" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("src")
    return str(PurePosixPath(*parts[:index])) if index else "."


def _is_reexport(module: Module, stmt: ast.stmt) -> bool:
    """``__all__``, and ``from ... import`` in an ``__init__`` module."""
    if isinstance(stmt, ast.ImportFrom):
        return module.matches("__init__.py")
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _class(module: Module, node: ast.ClassDef) -> list[_Definition]:
    """A class (what it mentions outside its methods) followed by its methods."""
    refs: set[str] = set()
    for part in [*node.decorator_list, *node.bases, *node.keywords]:
        refs |= references(part)
    methods = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt)
        else:
            refs |= references(stmt)
    hook_prefixes = tuple(
        DISPATCH_PREFIXES[path[-1]]
        for path in map(attribute_path, node.bases)
        if path and path[-1] in DISPATCH_PREFIXES
    )
    cls = _Definition(module, node, refs, hook_prefixes=hook_prefixes)
    return [cls] + [_Definition(module, m, references(m), owner=cls) for m in methods]


def _caller_names(root: str, scanned: set[Path]) -> set[str]:
    """Names the non-test callers and the public API document mention.

    ``src`` files outside the scan count as callers too, so a scan of one
    file or package reports only what the rest of the tree cannot reach.
    """
    names: set[str] = set()
    callers = [path for directory in CALLER_DIRS for path in Path(root, directory).rglob("*.py")]
    callers += [path for path in Path(root, "src").rglob("*.py") if path.resolve() not in scanned]
    for path in sorted(callers):
        names |= references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    api = Path(root, PUBLIC_API)
    if api.is_file():
        for code in _MARKDOWN_CODE.findall(api.read_text(encoding="utf-8")):
            names.update(_IDENTIFIER.findall(code))
    return names


def _unreached(modules: list[Module], root: str) -> list[_Definition]:
    """The definitions of *modules* that nothing reaches."""
    pending: list[_Definition] = []
    names = _caller_names(root, {Path(module.path).resolve() for module in modules})
    for module in modules:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append(_Definition(module, stmt, references(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                pending += _class(module, stmt)
            elif not _is_reexport(module, stmt):
                names |= references(stmt)
    progress = True
    while progress:
        progress = False
        for definition in pending:
            if not definition.reached and definition.reachable(names):
                definition.reached = progress = True
                names |= definition.refs
    return [
        definition
        for definition in pending
        if not definition.reached and (definition.owner is None or definition.owner.reached)
    ]


@register
class UnreachableDefinitionRule(Rule):
    id = "unreachable-definition"
    summary = "every src function, class and method is reached from non-test code"
    rationale = (
        "A definition that only its own tests call is code the system never "
        "runs: it costs reading, review and test time and hides which path is "
        "real.  Reached means mentioned, transitively, by src module-level "
        "code, by benchmarks/, examples/ or perfbench/, by a @register rule, "
        "or in docs/api.md, the public API."
    )
    roles = frozenset({"src"})

    def finalize(self, project: Project) -> Iterable[Finding]:
        by_root: dict[str, list[Module]] = {}
        for module in project.src_modules():
            root = _repo_root(module)
            if root is not None:
                by_root.setdefault(root, []).append(module)
        for root, modules in sorted(by_root.items()):
            for definition in _unreached(modules, root):
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{definition.qualname} is not reached from non-test code "
                        f"or {PUBLIC_API}"
                    ),
                    path=definition.module.path,
                    line=definition.node.lineno,
                    col=definition.node.col_offset,
                )
