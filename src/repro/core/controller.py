"""The time-slotted control loop (paper §III).

The approach "periodically runs at the beginning of each time slot T
based on the average arrival rates during a slot".
:class:`SlottedController` wires a dispatcher (optimizer or baseline),
the workload trace, and the electricity market into that loop, scoring
every slot with :func:`~repro.core.objective.evaluate_plan`.  An
optional predictor forecasts arrivals instead of using the oracle rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

from repro.core.objective import NetProfitBreakdown, evaluate_plan
from repro.core.plan import DispatchPlan
from repro.market.market import MultiElectricityMarket
from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.workload.traces import WorkloadTrace

__all__ = ["Dispatcher", "SlotRecord", "SlottedController"]


@runtime_checkable
class Dispatcher(Protocol):
    """The public planning interface every control loop drives.

    A dispatcher turns one slot's inputs into a
    :class:`~repro.core.plan.DispatchPlan`:

    * ``arrivals`` — ``(K, S)`` class × front-end arrival rates to plan
      for (slot averages in the slotted loop, admitted estimates in the
      streaming loop);
    * ``prices`` — ``(L,)`` per-data-center electricity prices;
    * ``slot_duration`` — planning-horizon length in the trace's time
      unit.

    ``name`` labels results in comparisons and telemetry.  Shipped
    implementations: :class:`~repro.core.optimizer.ProfitAwareOptimizer`
    ("optimized"), :class:`~repro.core.baselines.BalancedDispatcher`
    ("balanced") and :class:`~repro.core.baselines.EvenSplitDispatcher`
    ("even_split").  Both :class:`SlottedController` and the streaming
    :class:`~repro.stream.controller.StreamingController` accept any
    conforming object — the protocol is ``runtime_checkable``, so
    ``isinstance(obj, Dispatcher)`` verifies conformance (see
    ``tests/test_dispatcher_protocol.py``).

    Optional hooks controllers use when present (not part of the
    protocol): ``reset_warm_state()`` clears cross-slot solver state at
    the start of a run; ``collector`` receives telemetry; ``topology``
    describes the static system (the streaming loop derives admission
    capacity from it).  No controller reads a dispatcher's per-solve
    record: the optimizer's ``last_stats`` is the
    :class:`~repro.obs.trace.SlotTrace` its collector receives.
    """

    name: str

    def plan_slot(
        self, arrivals: np.ndarray, prices: np.ndarray, slot_duration: float = 1.0
    ) -> DispatchPlan:
        ...


@dataclass(frozen=True)
class SlotRecord:
    """One slot's decision and outcome."""

    slot: int
    plan: DispatchPlan = field(repr=False)
    outcome: NetProfitBreakdown
    prices: np.ndarray = field(repr=False)
    arrivals: np.ndarray = field(repr=False)


class SlottedController:
    """Run a dispatcher over a workload trace and electricity market.

    Parameters
    ----------
    dispatcher:
        The per-slot decision maker.
    trace:
        Workload; its ``(K, S)`` shape must match the dispatcher's
        topology.
    market:
        Electricity prices, one trace per data center.
    predictor_factory:
        Optional callable returning a fresh one-stream predictor (e.g.
        ``lambda: KalmanFilterPredictor()``); when given, the controller
        plans each slot on *predicted* arrivals (one predictor per
        ``(k, s)`` stream) while outcomes are still evaluated on the
        true rates.
    collector:
        Optional telemetry sink (see :mod:`repro.obs`); receives the
        loop-level slot counter and planning/evaluation timings.  This
        is the *controller's* collector — the dispatcher keeps its own
        (usually the same instance, wired by ``run_simulation``).
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        trace: WorkloadTrace,
        market: MultiElectricityMarket,
        predictor_factory: Optional[Callable[[], Any]] = None,
        apply_pue: bool = False,
        collector: Optional[Collector] = None,
    ) -> None:
        self.dispatcher = dispatcher
        self.trace = trace
        self.market = market
        self.apply_pue = apply_pue
        self.collector = collector if collector is not None else NULL_COLLECTOR
        self._predictor_factory = predictor_factory
        if predictor_factory is not None:
            self._predictors = [
                [predictor_factory() for _ in range(trace.num_frontends)]
                for _ in range(trace.num_classes)
            ]
        else:
            self._predictors = None

    def _planned_arrivals(self, actual: np.ndarray) -> np.ndarray:
        if self._predictors is None:
            return actual
        predicted = np.empty_like(actual)
        for k in range(actual.shape[0]):
            for s in range(actual.shape[1]):
                predictor = self._predictors[k][s]
                predicted[k, s] = predictor.predict()
                predictor.observe(float(actual[k, s]))
        return predicted

    def iter_slots(self, num_slots: Optional[int] = None) -> Iterator[SlotRecord]:
        """Yield one :class:`SlotRecord` per slot."""
        total = num_slots if num_slots is not None else self.trace.num_slots
        collector = self.collector
        for t in range(total):
            actual = self.trace.arrivals_at(t)
            prices = self.market.prices_at(t)
            planned = self._planned_arrivals(actual)
            with collector.timer("controller.plan_slot"):
                plan = self.dispatcher.plan_slot(
                    planned, prices, slot_duration=self.trace.slot_duration
                )
            # A predictive plan may overshoot the true arrivals; cap the
            # dispatched rates at what actually arrived before scoring.
            if self._predictors is not None:
                plan = _cap_to_arrivals(plan, actual)
            with collector.timer("controller.evaluate"):
                outcome = evaluate_plan(
                    plan, actual, prices,
                    slot_duration=self.trace.slot_duration,
                    apply_pue=self.apply_pue,
                )
            collector.increment("controller.slots")
            yield SlotRecord(
                slot=t, plan=plan, outcome=outcome, prices=prices, arrivals=actual
            )

    def run(self, num_slots: Optional[int] = None) -> List[SlotRecord]:
        """Run all slots and return the records."""
        return list(self.iter_slots(num_slots))


def _cap_to_arrivals(plan: DispatchPlan, arrivals: np.ndarray) -> DispatchPlan:
    """Scale down per-(k,s) dispatch that exceeds the true arrivals."""
    dispatched = plan.rates.sum(axis=2)  # (K, S)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            dispatched > arrivals, arrivals / np.maximum(dispatched, 1e-300), 1.0
        )
    scale = np.clip(scale, 0.0, 1.0)
    return DispatchPlan(
        topology=plan.topology,
        rates=plan.rates * scale[:, :, None],
        shares=plan.shares,
    )
