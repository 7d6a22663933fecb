"""Per-tenant session management for the served database.

Tenancy draws the line the in-process API cannot: *crowd answers are
shared, crowd budgets are not*.  Every tenant owns one long-lived
:class:`~repro.db.connection.SessionContext` — its crowd-cost budget, its
rate limit, its statement statistics — reused by every wire connection
that tenant opens, so a budget cap is enforced per tenant, not per TCP
connection.  The catalog, the answer cache and the in-flight coalescing
registry stay shared underneath: when tenant B repeats a crowd query
tenant A already paid for, the shared
:class:`~repro.crowd.runtime.AnswerCache` serves it with zero platform
calls and zero charge to either budget.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.db.acquisition import AcquisitionPolicy
from repro.db.connection import SessionContext
from repro.errors import TenantAuthError

__all__ = ["TenantConfig", "TenantRegistry", "TenantState", "TokenBucket"]

#: Builds the session of a freshly authenticated tenant.
SessionFactory = Callable[["TenantConfig"], SessionContext]


@dataclass(frozen=True)
class TenantConfig:
    """Static configuration of one tenant.

    Parameters
    ----------
    name:
        Tenant identifier presented in the ``connect`` handshake.
    token:
        Shared-secret token; ``None`` means the tenant connects untokened.
    max_cost:
        Crowd budget in dollars for the tenant's session (``None`` =
        unlimited).  Enforced exactly by the acquisition runtime: budgeted
        sessions dispatch serially (see
        :meth:`repro.crowd.runtime.AcquisitionRuntime.acquire`).
    max_requests_per_second:
        Token-bucket request rate limit (``None`` disables limiting).
    burst:
        Bucket capacity (requests that may arrive back-to-back); defaults
        to ``max(1, round(rate))``.
    """

    name: str
    token: str | None = None
    max_cost: float | None = None
    max_requests_per_second: float | None = None
    burst: int | None = None

    @classmethod
    def from_mapping(cls, raw: Mapping[str, Any]) -> "TenantConfig":
        """Build a config from a JSON-ish mapping (the CLI's tenant file)."""
        known = {"name", "token", "max_cost", "max_requests_per_second", "burst"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown tenant config field(s): {', '.join(sorted(unknown))}")
        if not raw.get("name"):
            raise ValueError("tenant config requires a non-empty 'name'")
        return cls(
            name=str(raw["name"]),
            token=raw.get("token"),
            max_cost=None if raw.get("max_cost") is None else float(raw["max_cost"]),
            max_requests_per_second=(
                None
                if raw.get("max_requests_per_second") is None
                else float(raw["max_requests_per_second"])
            ),
            burst=None if raw.get("burst") is None else int(raw["burst"]),
        )


class TokenBucket:
    """Thread-safe token-bucket rate limiter with an injectable clock."""

    def __init__(
        self,
        rate: float,
        capacity: int,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        if capacity < 1:
            raise ValueError("token bucket capacity must be >= 1")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = float(capacity)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._refilled_at)
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class TenantState:
    """One tenant's live server-side state: session, limiter, counters.

    The session is *persistent across wire connections*: budgets and cost
    accounting follow the tenant, not the socket.  Statement-cache stats
    are folded in per wire connection when it detaches (each
    :class:`~repro.db.connection.Connection` owns its own prepared-statement
    cache), so :meth:`snapshot` reports tenant-wide totals.
    """

    def __init__(self, config: TenantConfig, session: SessionContext) -> None:
        self.config = config
        self.session = session
        self.bucket: TokenBucket | None = None
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.statements = 0
        self.rows_returned = 0
        self.errors = 0
        self.rate_limited = 0
        self.rejected = 0
        self._cache_hits = 0
        self._cache_misses = 0

    @property
    def name(self) -> str:
        return self.config.name

    def record_statement(self, rows: int) -> None:
        with self._lock:
            self.statements += 1
            self.rows_returned += max(0, rows)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_rate_limited(self) -> None:
        with self._lock:
            self.rate_limited += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_connection(self) -> None:
        with self._lock:
            self.connections_opened += 1

    def fold_cache_stats(self, hits: int, misses: int) -> None:
        """Accumulate a detaching connection's statement-cache counters."""
        with self._lock:
            self._cache_hits += hits
            self._cache_misses += misses

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of the tenant's budget and usage counters."""
        with self._lock:
            return {
                "tenant": self.config.name,
                "connections_opened": self.connections_opened,
                "statements": self.statements,
                "rows_returned": self.rows_returned,
                "errors": self.errors,
                "rate_limited": self.rate_limited,
                "rejected": self.rejected,
                "statement_cache_hits": self._cache_hits,
                "statement_cache_misses": self._cache_misses,
                "cost_spent": round(self.session.cost_spent, 6),
                "max_cost": self.session.policy.max_cost,
                "remaining_budget": self.session.remaining_budget,
                "budget_exhausted": self.session.budget_exhausted,
            }

    def __repr__(self) -> str:
        return f"TenantState({self.config.name!r}, statements={self.statements})"


def default_session_factory(config: TenantConfig) -> SessionContext:
    """A plain session carrying only the tenant's budget cap."""
    return SessionContext(policy=AcquisitionPolicy(max_cost=config.max_cost))


class TenantRegistry:
    """Authenticates tenants and owns their per-tenant state.

    Parameters
    ----------
    configs:
        The statically configured tenants.  With an empty list the
        registry is *open* unless ``allow_unknown=False``: unknown tenant
        names are admitted with a default config (handy for examples and
        local development).  Once any tenant is configured the registry
        defaults to closed.
    allow_unknown:
        Explicit override of the open/closed default.
    session_factory:
        Builds the :class:`~repro.db.connection.SessionContext` of each
        tenant on first authentication — the server wraps this to install
        crowd value sources and the aggregated runtime-knob reporting.
    clock:
        Injectable clock for the rate-limit buckets (tests).
    """

    def __init__(
        self,
        configs: Iterable[TenantConfig] = (),
        *,
        allow_unknown: bool | None = None,
        session_factory: SessionFactory | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._configs = {config.name: config for config in configs}
        self.allow_unknown = (not self._configs) if allow_unknown is None else allow_unknown
        self._session_factory = session_factory or default_session_factory
        self._clock = clock
        self._states: dict[str, TenantState] = {}
        self._lock = threading.Lock()

    def authenticate(self, name: str, token: str | None = None) -> TenantState:
        """Return the tenant's state, creating it on first connect.

        Raises :class:`~repro.errors.TenantAuthError` for unknown tenants
        (closed registry) and wrong tokens.  The error message does not
        say *which* of the two failed for configured tenants.
        """
        if not name:
            raise TenantAuthError("tenant name must not be empty")
        config = self._configs.get(name)
        if config is None:
            if not self.allow_unknown:
                raise TenantAuthError(f"unknown tenant or bad token: {name!r}")
            config = TenantConfig(name=name)
        elif config.token is not None and token != config.token:
            raise TenantAuthError(f"unknown tenant or bad token: {name!r}")
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = TenantState(config, self._session_factory(config))
                if config.max_requests_per_second is not None:
                    burst = (
                        config.burst
                        if config.burst is not None
                        else max(1, round(config.max_requests_per_second))
                    )
                    state.bucket = TokenBucket(
                        config.max_requests_per_second, burst, clock=self._clock
                    )
                self._states[name] = state
            return state

    def states(self) -> list[TenantState]:
        """Every tenant that has authenticated so far."""
        with self._lock:
            return list(self._states.values())

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-tenant usage snapshots (``PRAGMA server_stats`` payload)."""
        return [state.snapshot() for state in self.states()]
