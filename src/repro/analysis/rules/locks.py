"""Locking rules: acquire-order cycles and blocking work under the catalog lock.

``lock-order`` is the static half of the race detector: it builds the
interprocedural acquire-order graph (see :mod:`repro.analysis.callgraph`)
and flags any cycle — two threads taking the same pair of locks in
opposite orders is the classic ABBA deadlock, and with eight lock sites
spread over six modules no reviewer keeps the whole graph in their head.

``lock-blocking`` guards the engine's responsiveness invariant:
``Catalog.lock`` serialises *every* statement, so anything slow done while
holding it — a crowd dispatch (seconds of simulated latency), ``fsync``,
``time.sleep``, blocking on a future or event — stalls the whole
database.  The rule is deliberately lexical: the WAL design *does* fsync
under the catalog lock through the journal indirection (that ordering is
what makes recovery correct), so only direct, same-function blocking
calls are flagged.

With the served database the same rule also guards the *event loop*: the
``repro/server/`` front-end runs every connection on one asyncio loop, so
a blocking call inside an ``async def`` that is **not awaited** —
``time.sleep`` instead of ``await asyncio.sleep``, ``future.result()``
instead of ``await future`` — stalls every client at once, exactly like
blocking under ``Catalog.lock`` stalls every statement.  Awaited calls
are fine (they yield to the loop); blocking work belongs on the server's
worker pool via ``run_in_executor``.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.callgraph import build_lock_graph, index_functions
from repro.analysis.core import Finding, Module, Project, Rule, register
from repro.analysis.rules.budget import DISPATCH_METHOD

__all__ = ["LockBlockingRule", "LockOrderRule"]

#: Call names that block: sleeping, fsyncing, waiting on futures/events,
#: and the crowd dispatch method itself.
BLOCKING_NAMES = frozenset({"sleep", "fsync", "result", "wait", DISPATCH_METHOD})


@register
class LockOrderRule(Rule):
    id = "lock-order"
    summary = "lock acquire-order graph must stay acyclic (deadlock freedom)"
    rationale = (
        "Two code paths taking the same pair of locks in opposite orders can "
        "deadlock under concurrency. The rule approximates the call graph, "
        "propagates which locks each function may (transitively) acquire, and "
        "flags any cycle in the resulting acquire-order graph. The tests pair "
        "it with a tracer that builds the runtime-witnessed graph."
    )
    roles = frozenset({"src"})

    def finalize(self, project: Project) -> Iterable[Finding]:
        graph = build_lock_graph(project)
        for cycle in graph.cycles():
            edge = None
            for held, acquired in zip(cycle, cycle[1:]):
                edge = graph.edge(held, acquired)
                if edge is not None:
                    break
            rendered = " -> ".join(cycle)
            via = f" ({edge.via})" if edge is not None else ""
            yield Finding(
                rule=self.id,
                message=f"lock acquire-order cycle: {rendered}{via}",
                path=edge.path if edge is not None else "<project>",
                line=edge.line if edge is not None else 0,
            )


@register
class LockBlockingRule(Rule):
    id = "lock-blocking"
    summary = "no blocking calls under Catalog.lock or on the event loop"
    rationale = (
        "Catalog.lock serialises every statement; a crowd dispatch, fsync, "
        "sleep, or future/event wait held under it stalls the whole engine. "
        "Likewise the server's asyncio loop serialises every connection: a "
        "non-awaited blocking call inside a coroutine stalls all clients — "
        "await the async equivalent or move the work to run_in_executor. "
        "The check is lexical on purpose: the journal indirection is allowed "
        "to fsync under the lock (that ordering is the durability contract)."
    )
    roles = frozenset({"src"})

    def check_module(self, module: Module, project: Project) -> Iterable[Finding]:
        for info in index_functions([module]):
            for site in info.call_sites:
                if site.name not in BLOCKING_NAMES:
                    continue
                if "Catalog.lock" in site.held:
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"blocking call {site.name}() while holding "
                            f"Catalog.lock (in {info.qualname}); move the slow "
                            "work outside the lock"
                        ),
                        path=module.path,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                    )
                elif info.is_async and not site.awaited:
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"blocking call {site.name}() inside coroutine "
                            f"{info.qualname} is not awaited and stalls the "
                            "event loop; await an async equivalent or move it "
                            "to run_in_executor"
                        ),
                        path=module.path,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                    )
