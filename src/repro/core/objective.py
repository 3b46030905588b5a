"""Net-profit evaluation of a dispatch plan (the paper's Eq. 4/5).

``evaluate_plan`` is the *ground truth* used by every experiment: given
a plan, the slot's arrivals, and the slot's electricity prices, it
computes realized utilities from realized M/M/1 delays (not from the
optimizer's targeted TUF levels) and subtracts the realized energy and
transfer dollar costs.  Both the optimizer and the baselines are scored
by this same function.  It reads the topology's slot-invariant arrays
(:attr:`~repro.cloud.topology.CloudTopology.arrays`) instead of
rebuilding cost models per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import DispatchPlan
from repro.solvers.tolerances import FEASIBILITY_TOL
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["NetProfitBreakdown", "evaluate_plan"]


@dataclass(frozen=True)
class NetProfitBreakdown:
    """Itemized slot outcome.

    All dollar figures are totals over the slot.  Rates are per time
    unit; multiply by ``slot_duration`` for counts.
    """

    revenue: float
    energy_cost: float
    transfer_cost: float
    served_rates: np.ndarray = field(repr=False)
    offered_rates: np.ndarray = field(repr=False)
    dc_loads: np.ndarray = field(repr=False)
    energy_kwh: float = 0.0
    slot_duration: float = 1.0
    #: Idle-power dollars (0 under the paper's per-request-only model).
    idle_cost: float = 0.0

    @property
    def total_cost(self) -> float:
        """Processing + transfer + idle dollars."""
        return self.energy_cost + self.transfer_cost + self.idle_cost

    @property
    def net_profit(self) -> float:
        """Revenue minus total cost (the paper's objective)."""
        return self.revenue - self.total_cost

    @property
    def dropped_rates(self) -> np.ndarray:
        """``(K,)`` offered-but-not-dispatched rates; float64."""
        return np.clip(self.offered_rates - self.served_rates, 0.0, None)

    @property
    def completion_fractions(self) -> np.ndarray:
        """``(K,)`` fraction of offered requests dispatched (1.0 if none offered); float64."""
        offered = self.offered_rates
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(offered > 0, self.served_rates / offered, 1.0)
        return np.clip(frac, 0.0, 1.0)

    @property
    def served_requests(self) -> float:
        """Total requests processed during the slot."""
        return float(self.served_rates.sum() * self.slot_duration)


def evaluate_plan(
    plan: DispatchPlan,
    arrivals: np.ndarray,
    prices: np.ndarray,
    slot_duration: float = 1.0,
    apply_pue: bool = False,
) -> NetProfitBreakdown:
    """Score ``plan`` for one slot.

    Parameters
    ----------
    plan:
        The dispatch/allocation decision.
    arrivals:
        ``(K, S)`` offered arrival rates; dispatching more than offered
        is rejected with ``ValueError``.
    prices:
        ``(L,)`` electricity prices in $/kWh for the slot.
    slot_duration:
        Slot length ``T`` in the rate time unit.
    apply_pue:
        Multiply processing energy by each data center's PUE.
    """
    topo = plan.topology
    arrivals = check_nonnegative(arrivals, "arrivals")
    prices = check_nonnegative(prices, "prices")
    check_positive(slot_duration, "slot_duration")
    if arrivals.shape != (topo.num_classes, topo.num_frontends):
        raise ValueError(
            f"arrivals must have shape {(topo.num_classes, topo.num_frontends)}, "
            f"got {arrivals.shape}"
        )
    if prices.shape != (topo.num_datacenters,):
        raise ValueError(
            f"prices must have shape {(topo.num_datacenters,)}, got {prices.shape}"
        )
    dispatched_per_source = plan.rates.sum(axis=2)  # (K, S)
    excess = dispatched_per_source - arrivals
    if (excess > FEASIBILITY_TOL * np.maximum(1.0, arrivals)).any():
        raise ValueError("plan dispatches more than the offered arrivals")

    # Revenue from realized delays: utility is per request, earned at the
    # expected delay of the (class, server) queue actually serving it.
    arrays = topo.arrays
    loads = plan.server_loads()  # (K, N)
    delays = plan._delays_at(loads)  # (K, N), nan where no load
    # TUF level = number of sub-deadlines below the delay (the +inf
    # padding never counts, and past the final deadline the level's
    # value is 0); nan (no load) and inf (overload) delays earn nothing.
    levels = (delays[:, :, None] > arrays.tuf_deadlines[:, None, :]).sum(axis=2)
    util = arrays.tuf_values[np.arange(topo.num_classes)[:, None], levels]
    earned = np.where(np.isfinite(delays), util, 0.0) * loads
    loaded = loads > 0
    revenue = 0.0
    for k in range(topo.num_classes):
        revenue += float(earned[k, loaded[k]].sum() * slot_duration)

    dc_rates = plan.dc_rates()  # (K, S, L)
    dc_loads = dc_rates.sum(axis=1)  # (K, L)
    energy = arrays.energy_kwh_pue if apply_pue else arrays.energy_kwh
    energy_cost = float((energy * prices[None, :] * dc_loads).sum() * slot_duration)
    energy_kwh = float((energy * dc_loads).sum() * slot_duration)
    transfer_cost = float((arrays.transfer_cost * dc_rates).sum() * slot_duration)

    # Idle power of powered-on servers (an extension; 0 kW by default
    # reproduces the paper's per-request-only accounting).  Idle energy
    # respects PUE like any other draw when apply_pue is set.
    idle_cost = 0.0
    idle_kwh = 0.0
    if arrays.idle_power:
        powered = plan.powered_on_per_dc()
        for l, dc in enumerate(topo.datacenters):
            if dc.idle_power_kw <= 0.0 or powered[l] == 0:
                continue
            pue = dc.pue if apply_pue else 1.0
            kwh = dc.idle_power_kw * pue * powered[l] * slot_duration
            idle_kwh += kwh
            idle_cost += kwh * float(prices[l])

    return NetProfitBreakdown(
        revenue=revenue,
        energy_cost=energy_cost,
        transfer_cost=transfer_cost,
        served_rates=plan.served_rates(),
        offered_rates=arrivals.sum(axis=1),
        dc_loads=dc_loads,
        energy_kwh=energy_kwh + idle_kwh,
        slot_duration=slot_duration,
        idle_cost=idle_cost,
    )
