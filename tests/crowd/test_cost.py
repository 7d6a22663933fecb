"""Tests for the cost model and spending ledger."""

from __future__ import annotations

import pytest

from repro.crowd.cost import CostModel, SpendingLedger
from repro.errors import BudgetExceededError


class TestCostModel:
    def test_assignment_cost_includes_fee(self):
        model = CostModel(payment_per_hit=0.02, service_fee_rate=0.2)
        assert model.assignment_cost() == pytest.approx(0.024)


class TestSpendingLedger:
    def test_charges_accumulate(self):
        ledger = SpendingLedger(CostModel(payment_per_hit=0.02))
        ledger.charge_assignment(1.0)
        ledger.charge_assignment(2.0)
        assert ledger.total_spent == pytest.approx(0.04)
        assert len(ledger.entries) == 2

    def test_spent_by_time(self):
        ledger = SpendingLedger(CostModel(payment_per_hit=0.02))
        ledger.charge_assignment(1.0)
        ledger.charge_assignment(5.0)
        ledger.charge_assignment(10.0)
        assert ledger.spent_by(0.5) == 0.0
        assert ledger.spent_by(5.0) == pytest.approx(0.04)
        assert ledger.spent_by(100.0) == pytest.approx(0.06)

    def test_budget_enforced(self):
        ledger = SpendingLedger(CostModel(payment_per_hit=1.0, budget=2.0))
        ledger.charge_assignment(1.0)
        ledger.charge_assignment(2.0)
        assert ledger.remaining_budget() == pytest.approx(0.0)
        with pytest.raises(BudgetExceededError):
            ledger.charge_assignment(3.0)

    def test_no_budget_means_unlimited(self):
        ledger = SpendingLedger(CostModel(payment_per_hit=1.0))
        for t in range(100):
            ledger.charge_assignment(float(t))
        assert ledger.remaining_budget() is None
        assert ledger.total_spent == pytest.approx(100.0)
