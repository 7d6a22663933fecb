"""Cost model and spending ledger for crowd-sourcing runs.

The paper reports costs as (number of HIT assignments) x (payment per HIT)
plus "a small service fee paid to Crowdflower"; the default fee rate here
follows CrowdFlower's historical ~20 % markup but is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BudgetExceededError


@dataclass(frozen=True)
class CostModel:
    """Pricing of a crowd-sourcing service."""

    payment_per_hit: float = 0.02
    service_fee_rate: float = 0.0
    budget: float | None = None

    def assignment_cost(self) -> float:
        """Total cost of one completed HIT assignment (payment + fee)."""
        return self.payment_per_hit * (1.0 + self.service_fee_rate)


@dataclass
class SpendingLedger:
    """Tracks money spent over simulated time."""

    cost_model: CostModel
    total_spent: float = 0.0
    entries: list[tuple[float, float]] = field(default_factory=list)

    def charge_assignment(self, timestamp_minutes: float) -> float:
        """Charge one completed assignment at *timestamp_minutes*.

        Raises :class:`~repro.errors.BudgetExceededError` if the charge
        would exceed the configured budget.
        """
        cost = self.cost_model.assignment_cost()
        if (
            self.cost_model.budget is not None
            and self.total_spent + cost > self.cost_model.budget + 1e-12
        ):
            raise BudgetExceededError(self.cost_model.budget, self.total_spent + cost)
        self.total_spent += cost
        self.entries.append((timestamp_minutes, self.total_spent))
        return cost

    def spent_by(self, timestamp_minutes: float) -> float:
        """Cumulative spending up to and including *timestamp_minutes*."""
        spent = 0.0
        for time_point, cumulative in self.entries:
            if time_point <= timestamp_minutes:
                spent = cumulative
            else:
                break
        return spent

    def remaining_budget(self) -> float | None:
        """Remaining budget, or None if no budget was configured."""
        if self.cost_model.budget is None:
            return None
        return max(0.0, self.cost_model.budget - self.total_spent)
