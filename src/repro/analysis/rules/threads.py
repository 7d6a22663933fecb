"""``thread-chokepoint``: concurrency is owned by its sanctioned owners.

Only two places in library code may construct threads or executors:

* ``crowd/runtime.py`` — :class:`~repro.crowd.runtime.AcquisitionRuntime`
  owns in-process concurrency: shutdown ordering, dispatch coalescing,
  the answer cache, and the cost ledger;
* the ``repro/server/`` package — the served-database front-end owns the
  accept-loop thread and one thread per wire connection, and joins them
  all in its graceful-shutdown path.

A stray ``threading.Thread`` or ``ThreadPoolExecutor`` anywhere else
creates concurrency nobody drains on ``close()`` — the exact class of
leak PR 4's review pass kept finding by hand.  Tests and benchmarks are
exempt: they spawn threads on purpose to exercise the runtime.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.callgraph import attribute_path
from repro.analysis.core import Finding, Module, Project, Rule, register

__all__ = ["ThreadChokepointRule"]

#: The module allowed to construct threads/executors in-process.
RUNTIME_MODULE = "crowd/runtime.py"

#: The package sanctioned as the thread owner of the served database
#: (matched anywhere in the normalised path).
SERVER_PACKAGE = "repro/server/"

CONSTRUCTORS = frozenset(
    {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor"}
)


def owns_concurrency(module: Module) -> bool:
    """True for modules sanctioned to construct threads/executors."""
    return module.matches(RUNTIME_MODULE) or SERVER_PACKAGE in module.norm


@register
class ThreadChokepointRule(Rule):
    id = "thread-chokepoint"
    summary = "threads/executors are constructed only by their sanctioned owners"
    rationale = (
        "AcquisitionRuntime owns in-process concurrency (dispatch coalescing, "
        "cache, ledger, shutdown draining) and repro/server/ owns the served "
        "database's accept-loop and connection threads (joined on graceful "
        "shutdown). A thread or pool constructed anywhere else leaks "
        "past close() and races those invariants. Tests spawn threads on "
        "purpose and are exempt."
    )
    roles = frozenset({"src"})

    def check_module(self, module: Module, project: Project) -> Iterable[Finding]:
        if owns_concurrency(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = attribute_path(node.func)
            if path and path[-1] in CONSTRUCTORS:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{path[-1]} constructed outside crowd/runtime.py and "
                        "repro/server/; route concurrency through "
                        "AcquisitionRuntime (or the server lifecycle) so it is "
                        "drained on close()"
                    ),
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
