"""Shared utilities: deterministic RNG plumbing and table rendering."""

from repro.utils.rng import RandomState, derive_seed, ensure_rng
from repro.utils.tables import format_table

__all__ = [
    "RandomState",
    "derive_seed",
    "ensure_rng",
    "format_table",
]
