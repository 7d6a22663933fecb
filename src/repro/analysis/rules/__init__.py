"""reprolint rule modules.

Importing this package registers every rule into
:data:`repro.analysis.core.RULES` (each module applies the
:func:`~repro.analysis.core.register` decorator at import time).
"""

from repro.analysis.rules import (  # noqa: F401
    budget,
    codegen,
    locks,
    provenance,
    reachability,
    rng,
    sentinel,
    threads,
    wal,
)

__all__ = [
    "budget",
    "codegen",
    "locks",
    "provenance",
    "reachability",
    "rng",
    "sentinel",
    "threads",
    "wal",
]
