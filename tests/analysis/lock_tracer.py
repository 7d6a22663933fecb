"""Dynamic lock-order tracer: the witness-based half of the race detector.

The static rule (``lock-order``) approximates the acquire-order graph from
source; this test-support module builds the *observed* graph from actual
acquisitions at runtime.  Wrap the locks of interest in :class:`TracedLock` (or let
:meth:`LockOrderTracer.wrap` do it), run a workload — typically a threaded
stress test — and ask the tracer for cycles:

.. code-block:: python

    tracer = LockOrderTracer()
    catalog.lock = tracer.wrap("Catalog.lock", catalog.lock)
    cache._lock = tracer.wrap("AnswerCache._lock", cache._lock)
    ...  # run the workload
    assert tracer.cycles() == []

Every edge ``A -> B`` records a witness (thread name, timestamp ordinal)
for the first time B was acquired while A was held, so a detected cycle
points at the concrete acquisitions that produced it.  Re-entrant
acquisitions of the same (R)Lock are ignored — holding a lock twice is not
an ordering edge.  The tracer itself synchronises its bookkeeping with a
plain internal lock that is never exposed, so it cannot contribute edges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Any

from repro.analysis.callgraph import find_cycles

__all__ = ["LockOrderTracer", "LockOrderViolation", "TracedLock", "Witness"]


@dataclass(frozen=True)
class Witness:
    """First observation of an acquire-order edge ``held -> acquired``."""

    held: str
    acquired: str
    thread: str
    ordinal: int


class LockOrderViolation(AssertionError):
    """Raised by :meth:`LockOrderTracer.check` when the graph has a cycle."""

    def __init__(self, cycles: list[list[str]], witnesses: list[Witness]) -> None:
        self.cycles = cycles
        self.witnesses = witnesses
        rendered = "; ".join(" -> ".join(cycle) for cycle in cycles)
        super().__init__(f"lock acquisition order contains a cycle: {rendered}")


class LockOrderTracer:
    """Builds the runtime lock-acquisition graph from witnessed acquires."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._edges: dict[tuple[str, str], Witness] = {}
        self._held = threading.local()
        self._counter = 0

    # -- instrumentation ---------------------------------------------------

    def wrap(self, name: str, lock: Any) -> "TracedLock":
        """Wrap *lock* so acquisitions are recorded under *name*."""
        return TracedLock(self, name, lock)

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _on_acquired(self, name: str) -> None:
        stack = self._stack()
        with self._guard:
            self._counter += 1
            ordinal = self._counter
            for held in stack:
                if held == name:
                    continue  # re-entrant hold: not an ordering edge
                self._edges.setdefault(
                    (held, name),
                    Witness(
                        held=held,
                        acquired=name,
                        thread=threading.current_thread().name,
                        ordinal=ordinal,
                    ),
                )
        stack.append(name)

    def _on_released(self, name: str) -> None:
        stack = self._stack()
        # Release the innermost matching hold (RLocks release LIFO).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    # -- inspection --------------------------------------------------------

    def edges(self) -> dict[tuple[str, str], Witness]:
        """Snapshot of the observed edges with their first witnesses."""
        with self._guard:
            return dict(self._edges)

    def adjacency(self) -> dict[str, set[str]]:
        graph: dict[str, set[str]] = {}
        for held, acquired in self.edges():
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        return graph

    def cycles(self) -> list[list[str]]:
        """Cycles in the observed graph (empty list = consistent order)."""
        return find_cycles(self.adjacency())

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if the graph has a cycle."""
        cycles = self.cycles()
        if not cycles:
            return
        involved = {node for cycle in cycles for node in cycle}
        witnesses = sorted(
            (
                witness
                for (held, acquired), witness in self.edges().items()
                if held in involved and acquired in involved
            ),
            key=lambda witness: witness.ordinal,
        )
        raise LockOrderViolation(cycles, witnesses)


class TracedLock:
    """A lock proxy recording acquisition order into a tracer.

    Supports the context-manager protocol and explicit
    ``acquire``/``release``, delegating everything else to the wrapped
    lock, so it can replace ``threading.Lock``/``RLock`` attributes on
    live objects for the duration of a test.
    """

    def __init__(self, tracer: LockOrderTracer, name: str, lock: Any) -> None:
        self._tracer = tracer
        self.name = name
        self.inner = lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self._tracer._on_acquired(self.name)
        return acquired

    def release(self) -> None:
        self.inner.release()
        self._tracer._on_released(self.name)

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def locked(self) -> bool:
        locked = getattr(self.inner, "locked", None)
        return bool(locked()) if callable(locked) else False

    def __repr__(self) -> str:
        return f"TracedLock({self.name!r})"
