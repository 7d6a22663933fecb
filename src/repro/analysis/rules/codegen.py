"""``codegen-chokepoint``: Python source is compiled in one module only.

The SQL engine generates per-batch kernels (``db/sql/kernels.py``), the
one place library code turns text into running code.  That module's
generator emits only names it makes, slot integers and operator tokens;
every column name, literal and parameter value reaches a kernel as a
namespace constant, so no SQL text is ever executed as Python.  A call
of the builtin ``exec``, ``eval`` or ``compile`` anywhere else in
``src/`` is a second code path with no such guarantee.  Attribute calls
(``re.compile``, ``parser.compile``) are not the builtins and do not
count.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, Module, Project, Rule, register

__all__ = ["CodegenChokepointRule"]

#: The module allowed to compile and run generated source.
KERNELS_MODULE = "db/sql/kernels.py"

BUILTINS = frozenset({"exec", "eval", "compile"})


@register
class CodegenChokepointRule(Rule):
    id = "codegen-chokepoint"
    summary = "exec/eval/compile are called only by db/sql/kernels.py"
    rationale = (
        "db/sql/kernels.py generates Python source whose only inputs are "
        "generator-made names, slot integers and operator tokens, with every "
        "SQL-derived value passed as a namespace constant. A builtin exec, "
        "eval or compile anywhere else can run text nobody checked that way."
    )
    roles = frozenset({"src"})

    def check_module(self, module: Module, project: Project) -> Iterable[Finding]:
        if module.matches(KERNELS_MODULE):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in BUILTINS
            ):
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{node.func.id}() called outside {KERNELS_MODULE}; generate "
                        "code through the kernel generator, whose source holds no SQL text"
                    ),
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
