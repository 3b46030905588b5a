"""Profit/cost ledger accumulated over a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.objective import NetProfitBreakdown

__all__ = ["ProfitLedger"]


@dataclass
class ProfitLedger:
    """Per-slot dollar accounting for one dispatcher run.

    ``energy_costs`` holds each slot's processing plus idle energy
    dollars, as ``energy_kwh`` holds both draws' kWh; the totals then
    agree with the slots' ``NetProfitBreakdown.net_profit``.
    """

    revenues: List[float] = field(default_factory=list)
    energy_costs: List[float] = field(default_factory=list)
    transfer_costs: List[float] = field(default_factory=list)
    energy_kwh: List[float] = field(default_factory=list)

    def record(self, outcome: NetProfitBreakdown) -> None:
        """Append one slot's outcome."""
        self.revenues.append(outcome.revenue)
        self.energy_costs.append(outcome.energy_cost + outcome.idle_cost)
        self.transfer_costs.append(outcome.transfer_cost)
        self.energy_kwh.append(outcome.energy_kwh)

    @property
    def num_slots(self) -> int:
        """Slots recorded so far."""
        return len(self.revenues)

    @property
    def net_profits(self) -> np.ndarray:
        """Per-slot net profit series."""
        return (
            np.asarray(self.revenues)
            - np.asarray(self.energy_costs)
            - np.asarray(self.transfer_costs)
        )

    @property
    def total_revenue(self) -> float:
        """Total revenue over the run."""
        return float(np.sum(self.revenues))

    @property
    def total_cost(self) -> float:
        """Total energy (processing and idle) + transfer dollars."""
        return float(np.sum(self.energy_costs) + np.sum(self.transfer_costs))

    @property
    def total_net_profit(self) -> float:
        """Total net profit over the run."""
        return self.total_revenue - self.total_cost

    @property
    def total_energy_kwh(self) -> float:
        """Total energy consumed (kWh)."""
        return float(np.sum(self.energy_kwh))

    def cumulative_net_profit(self) -> np.ndarray:
        """Running total of net profit per slot."""
        return np.cumsum(self.net_profits)
