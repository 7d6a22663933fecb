"""Unit tests for per-tenant sessions, rate limiting and authentication."""

from __future__ import annotations

import pytest

from repro.db.acquisition import AcquisitionPolicy
from repro.db.connection import SessionContext
from repro.errors import TenantAuthError
from repro.server.tenancy import TenantConfig, TenantRegistry, TenantState, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.5)  # 1 token refilled at 2/s
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2, clock=clock)
        clock.advance(100.0)
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0)


class TestTenantConfig:
    def test_from_mapping(self):
        config = TenantConfig.from_mapping(
            {"name": "alice", "token": "s3cret", "max_cost": 2, "burst": 5}
        )
        assert config.name == "alice"
        assert config.max_cost == 2.0
        assert config.burst == 5

    def test_from_mapping_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown tenant config field"):
            TenantConfig.from_mapping({"name": "a", "budget": 1})

    def test_from_mapping_requires_name(self):
        with pytest.raises(ValueError, match="non-empty 'name'"):
            TenantConfig.from_mapping({"token": "x"})


class TestRegistryAuth:
    def test_open_registry_admits_anyone(self):
        registry = TenantRegistry()
        state = registry.authenticate("walk-in")
        assert isinstance(state, TenantState)
        assert registry.authenticate("walk-in") is state  # stable identity

    def test_configured_registry_defaults_closed(self):
        registry = TenantRegistry([TenantConfig(name="alice")])
        with pytest.raises(TenantAuthError):
            registry.authenticate("mallory")

    def test_wrong_token_rejected_without_oracle(self):
        registry = TenantRegistry([TenantConfig(name="alice", token="s3cret")])
        with pytest.raises(TenantAuthError) as unknown:
            registry.authenticate("mallory")
        with pytest.raises(TenantAuthError) as bad_token:
            registry.authenticate("alice", "wrong")
        # The message must not reveal whether the name or the token failed.
        assert "unknown tenant or bad token" in str(unknown.value)
        assert "unknown tenant or bad token" in str(bad_token.value)
        assert registry.authenticate("alice", "s3cret").name == "alice"

    def test_empty_name_rejected(self):
        with pytest.raises(TenantAuthError, match="must not be empty"):
            TenantRegistry().authenticate("")

    def test_allow_unknown_override(self):
        registry = TenantRegistry(
            [TenantConfig(name="alice")], allow_unknown=True
        )
        assert registry.authenticate("walk-in").name == "walk-in"


class TestTenantState:
    def test_budget_follows_tenant_not_connection(self):
        registry = TenantRegistry([TenantConfig(name="alice", max_cost=1.5)])
        state = registry.authenticate("alice")
        state.session.record_cost(1.0)
        # A "reconnect" sees the same session, hence the same spend.
        again = registry.authenticate("alice")
        assert again.session is state.session
        assert again.session.cost_spent == 1.0
        snap = again.snapshot()
        assert snap["max_cost"] == 1.5
        assert snap["remaining_budget"] == 0.5
        assert snap["budget_exhausted"] is False

    def test_budgets_are_isolated_between_tenants(self):
        registry = TenantRegistry(
            [TenantConfig(name="a", max_cost=1.0), TenantConfig(name="b", max_cost=1.0)]
        )
        registry.authenticate("a").session.record_cost(1.0)
        assert registry.authenticate("a").session.budget_exhausted is True
        assert registry.authenticate("b").session.budget_exhausted is False

    def test_cache_stats_fold_across_connections(self):
        state = TenantRegistry().authenticate("t")
        state.fold_cache_stats(10, 2)
        state.fold_cache_stats(5, 1)
        snap = state.snapshot()
        assert snap["statement_cache_hits"] == 15
        assert snap["statement_cache_misses"] == 3

    def test_rate_limit_bucket_uses_injected_clock(self):
        clock = FakeClock()
        registry = TenantRegistry(
            [TenantConfig(name="a", max_requests_per_second=1.0, burst=1)],
            clock=clock,
        )
        state = registry.authenticate("a")
        assert state.bucket is not None
        assert state.bucket.try_acquire() is True
        assert state.bucket.try_acquire() is False
        clock.advance(1.0)
        assert state.bucket.try_acquire() is True

    def test_custom_session_factory(self):
        def factory(config: TenantConfig) -> SessionContext:
            return SessionContext(
                policy=AcquisitionPolicy(max_cost=config.max_cost, crowd_write_back=False)
            )

        registry = TenantRegistry(
            [TenantConfig(name="a", max_cost=3.0)], session_factory=factory
        )
        session = registry.authenticate("a").session
        assert session.policy.max_cost == 3.0
        assert session.policy.crowd_write_back is False
