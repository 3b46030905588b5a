"""Whole-cluster discrete-event simulation of a dispatch plan.

The paper evaluates plans analytically: utility is earned at the
*expected* M/M/1 delay (Eq. 1).  This module closes the loop by actually
*running* a plan: every active (class, server) VM is instantiated as a
processor-sharing queue, Poisson arrivals are generated at the planned
per-(front-end, server) rates, and each job's realized sojourn time is
recorded.

The VMs share no state: each has its own ``arrivals-{k}-{n}`` random
stream, its own queue and its own statistics.  So each VM runs alone,
start to finish, in a small kernel over plain lists (:func:`_arrivals`
and :func:`_serve`) instead of interleaving every VM's events on one
:class:`~repro.des.engine.Engine` heap.  The kernel draws the same
variates as :class:`~repro.des.processes.PoissonArrivals` and does the
same float arithmetic as :class:`~repro.des.server.VirtualMachine`, so
it gives the same outcome, bit for bit, as those primitives driven by
one engine (pinned by ``tests/test_property_des.py``).

Two revenue accountings are produced:

* ``mean_delay`` — the paper's: per-VM utility evaluated at the measured
  *mean* sojourn, times the completed count;
* ``per_job`` — utility evaluated at each job's own sojourn time and
  summed.  For a step-downward TUF these differ (a VM whose mean sits
  just inside a sub-deadline still has a tail of jobs beyond it), which
  quantifies how optimistic the paper's mean-delay SLA accounting is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # avoid the core->queueing->des->core import cycle
    from repro.core.plan import DispatchPlan
from repro.des.processes import SAMPLE_BATCH
from repro.utils.rng import RandomStreams
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["SimulatedSlotOutcome", "ClusterSimulation", "simulate_plan"]


@dataclass(frozen=True)
class SimulatedSlotOutcome:
    """Realized outcome of one simulated slot.

    Revenue figures are dollars over the slot.  ``completed`` counts
    every job that finished, including those that finish while the
    queues drain after the horizon; ``generated`` counts the jobs that
    arrived before it.
    """

    revenue_mean_delay: float
    revenue_per_job: float
    energy_cost: float
    transfer_cost: float
    completed: int
    generated: int
    mean_sojourn: Dict[Tuple[int, int], float] = field(repr=False, default_factory=dict)
    predicted_sojourn: Dict[Tuple[int, int], float] = field(
        repr=False, default_factory=dict
    )

    @property
    def net_profit_mean_delay(self) -> float:
        """Net profit under the paper's mean-delay revenue accounting."""
        return self.revenue_mean_delay - self.energy_cost - self.transfer_cost

    @property
    def net_profit_per_job(self) -> float:
        """Net profit under per-job TUF accounting."""
        return self.revenue_per_job - self.energy_cost - self.transfer_cost

    @property
    def max_delay_model_error(self) -> float:
        """Worst relative |simulated - Eq.1| mean-sojourn error."""
        worst = 0.0
        for key, measured in self.mean_sojourn.items():
            predicted = self.predicted_sojourn.get(key)
            if predicted and predicted > 0:
                worst = max(worst, abs(measured - predicted) / predicted)
        return worst


def _arrivals(rng: np.random.Generator, rate: float,
              horizon: float) -> Tuple[List[float], List[float]]:
    """Arrival times and work requirements of one Poisson stream.

    Draws exactly what :class:`~repro.des.processes.PoissonArrivals`
    draws from ``rng``: blocks of ``SAMPLE_BATCH`` standard exponentials
    (an even count) consumed as alternating gap and work, gaps scaled by
    ``1 / rate`` and summed one after another from time 0, stopping at
    the first arrival time at or beyond ``horizon``.
    """
    gap_scale = 1.0 / rate
    times: List[float] = []
    works: List[float] = []
    last = 0.0
    while True:
        block = rng.standard_exponential(SAMPLE_BATCH)
        gaps = block[0::2] * gap_scale
        # A cumulative sum seeded with the previous block's last time
        # adds the gaps in the same order as the per-arrival loop.
        gaps[0] += last
        stamps = np.cumsum(gaps)
        cut = int(np.searchsorted(stamps, horizon))
        times += stamps[:cut].tolist()
        works += block[1:2 * cut:2].tolist()
        if cut < stamps.shape[0]:
            return times, works
        last = float(stamps[-1])


def _serve(times: List[float], works: List[float], rate: float,
           warmup: float) -> Tuple[List[float], int, float]:
    """Run one egalitarian processor-sharing VM until its queue drains.

    Returns every job's sojourn in completion order, plus the count and
    mean of the sojourns of jobs that arrived at or after ``warmup``
    (folded in completion order with
    :class:`~repro.des.measurements.SojournStats`' Welford update).

    The arithmetic is :class:`~repro.des.server.VirtualMachine`'s.  Each
    event first drains ``per_job = (now - last) * rate / n`` from every
    resident job, clamped at 0.  The first job with the least remaining
    work ``rw`` then completes next, at ``now + rw * n / rate``.  When an
    arrival and that completion fall at exactly the same time, they run
    in the engine heap's ``seq`` order: the completion goes first only
    if it was scheduled while the VM's previous arrival was being
    processed (that arrival scheduled its completion before it
    scheduled its successor); a completion scheduled by a completion
    comes after the pending arrival.
    """
    arrived: List[float] = []  # arrival time of each resident job
    left: List[float] = []  # remaining work of each resident job
    sojourns: List[float] = []
    record = sojourns.append
    measured = 0
    mean = 0.0
    last = 0.0
    done = math.inf  # time of the pending completion
    victim = 0  # index of the job it completes
    by_arrival = False  # whether the latest arrival scheduled it
    upcoming = 0
    total = len(times)
    while True:
        if upcoming < total:
            now = times[upcoming]
            if now < done or (now == done and not by_arrival):
                if left:
                    per_job = (now - last) * rate / len(left)
                    left = [w - per_job if w > per_job else 0.0 for w in left]
                last = now
                arrived.append(now)
                left.append(works[upcoming])
                upcoming += 1
                least = min(left)
                victim = left.index(least)
                done = now + least * len(left) / rate
                by_arrival = True
                continue
        elif not left:
            return sojourns, measured, mean
        now = done
        resident = len(left)
        start = arrived.pop(victim)
        del left[victim]
        if now < start:
            raise ValueError("departure before arrival")
        sojourn = now - start
        record(sojourn)
        if start >= warmup:
            measured += 1
            mean += (sojourn - mean) / measured
        if left:
            # The departed job shared this interval: drain the others
            # at the rate split ``resident`` ways.
            per_job = (now - last) * rate / resident
            left = [w - per_job if w > per_job else 0.0 for w in left]
            least = min(left)
            victim = left.index(least)
            done = now + least * len(left) / rate
        else:
            done = math.inf
        last = now
        by_arrival = False


class ClusterSimulation:
    """Event-driven simulation of one plan over one slot.

    Parameters
    ----------
    plan:
        The dispatch plan to execute.
    slot_duration:
        Simulated horizon (same time unit as the plan's rates).
    seed:
        Root seed; every (class, server) arrival stream is independent.
    warmup_fraction:
        Leading fraction of the horizon whose arrivals are left out of
        the sojourn means: ``mean_sojourn`` and the utility level of the
        ``mean_delay`` accounting.  ``completed``, both revenues and
        both costs count every job.  A VM none of whose jobs arrived
        after the warmup has no measured mean and earns no mean-delay
        revenue.
    """

    def __init__(
        self,
        plan: DispatchPlan,
        slot_duration: float,
        seed: Optional[int] = 0,
        warmup_fraction: float = 0.0,
    ):
        check_positive(slot_duration, "slot_duration")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.plan = plan
        self.slot_duration = float(slot_duration)
        self.warmup_fraction = float(warmup_fraction)
        self._streams = RandomStreams(seed)

    def run(self, prices: np.ndarray) -> SimulatedSlotOutcome:
        """Simulate the slot and return the realized outcome."""
        plan = self.plan
        topo = plan.topology
        prices = check_nonnegative(prices, "prices")
        if prices.shape != (topo.num_datacenters,):
            raise ValueError(
                f"prices must have shape {(topo.num_datacenters,)}"
            )
        loads = plan.server_loads()  # (K, N)
        shares = plan.shares  # (K, N)
        active = (loads > 0) & (shares > 0)
        arrival_rates = loads[active]
        vm_rates = shares[active] * plan.server_service_rates()[active]
        check_positive(np.concatenate((vm_rates, arrival_rates)), "rate")
        horizon = self.slot_duration
        warmup = self.warmup_fraction * horizon

        analytic = plan.delays()
        arrays = topo.arrays
        energy_per_req = arrays.energy_kwh * prices[None, :]  # (K, L)
        transfer_per_req = arrays.transfer_cost  # (K, S, L)
        dc_of = arrays.dc_of_server
        rates = plan.rates  # (K, S, N)
        revenue_mean = 0.0
        revenue_jobs = 0.0
        energy_cost = 0.0
        transfer_cost = 0.0
        completed = 0
        generated = 0
        mean_sojourn: Dict[Tuple[int, int], float] = {}
        predicted: Dict[Tuple[int, int], float] = {}
        ks, ns = np.nonzero(active)
        for k, n, lam, rate in zip(ks.tolist(), ns.tolist(),
                                   arrival_rates.tolist(), vm_rates.tolist()):
            times, works = _arrivals(
                self._streams.stream(f"arrivals-{k}-{n}"), lam, horizon)
            sojourns, measured, mean = _serve(times, works, rate, warmup)
            tuf = topo.request_classes[k].tuf
            if sojourns:
                revenue_jobs += float(np.sum(tuf.utility(np.asarray(sojourns))))
                completed += len(sojourns)
            if measured:
                mean_sojourn[(k, n)] = mean
                predicted[(k, n)] = float(analytic[k, n])
                revenue_mean += float(tuf.utility(mean)) * len(sojourns)

            # Costs follow realized *generated* traffic (every dispatched
            # request is transferred and processed, utility or not).
            count = len(times)
            generated += count
            l = int(dc_of[n])
            energy_cost += float(energy_per_req[k, l]) * count
            # Split the count over front-ends proportionally to the plan.
            total = rates[k, :, n].sum()
            if total > 0:
                weights = rates[k, :, n] / total
                transfer_cost += float(
                    (weights * transfer_per_req[k, :, l]).sum()
                ) * count

        return SimulatedSlotOutcome(
            revenue_mean_delay=revenue_mean,
            revenue_per_job=revenue_jobs,
            energy_cost=energy_cost,
            transfer_cost=transfer_cost,
            completed=completed,
            generated=generated,
            mean_sojourn=mean_sojourn,
            predicted_sojourn=predicted,
        )


def simulate_plan(
    plan: DispatchPlan,
    prices: np.ndarray,
    slot_duration: float,
    seed: Optional[int] = 0,
    warmup_fraction: float = 0.0,
) -> SimulatedSlotOutcome:
    """Convenience wrapper around :class:`ClusterSimulation`."""
    return ClusterSimulation(
        plan, slot_duration, seed=seed, warmup_fraction=warmup_fraction
    ).run(prices)
