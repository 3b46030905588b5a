"""Whole-trace simulation runs and dispatcher comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.controller import Dispatcher, SlotRecord, SlottedController
from repro.market.market import MultiElectricityMarket
from repro.obs.collectors import Collector
from repro.sim.accounting import ProfitLedger
from repro.workload.traces import WorkloadTrace

__all__ = ["SimulationResult", "run_simulation", "compare_dispatchers"]


@dataclass
class SimulationResult:
    """All records + ledger for one dispatcher over one trace.

    This is the canonical home of the record-level summary metrics; the
    free functions in :mod:`repro.sim.metrics` are thin wrappers over
    the ``compute_*`` staticmethods here, so both surfaces agree by
    construction.
    """

    dispatcher_name: str
    records: List[SlotRecord] = field(repr=False)
    ledger: ProfitLedger = field(repr=False)
    #: Per-slot failure causes recovered from (slot index -> message);
    #: empty for a clean run.  Populated by
    #: :func:`~repro.sim.parallel.parallel_run_simulation` when worker
    #: chunks die and their slots are re-solved serially.
    failures: Dict[int, str] = field(default_factory=dict, repr=False)

    # Canonical metric implementations.  Staticmethods taking a bare
    # record sequence so the wrappers in ``repro.sim.metrics`` (and any
    # caller holding records without a full result) can reuse them.

    @staticmethod
    def compute_net_profit_series(records: Sequence[SlotRecord]) -> np.ndarray:
        """``(T,)`` net profit per slot."""
        return np.array([r.outcome.net_profit for r in records])

    @staticmethod
    def compute_completion_fractions(records: Sequence[SlotRecord]) -> np.ndarray:
        """``(K,)`` overall fraction of offered requests dispatched.

        With no records the class count is unknowable, so the degenerate
        result is an empty ``(0,)`` vector — still one-dimensional, so
        downstream ``.min()``-style reductions fail loudly instead of
        silently treating a scalar 1.0 as a full completion profile.
        """
        if not len(records):
            return np.empty(0)
        served = np.sum([r.outcome.served_rates for r in records], axis=0)
        offered = np.sum([r.outcome.offered_rates for r in records], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(offered > 0, served / offered, 1.0)
        return np.clip(frac, 0.0, 1.0)

    @staticmethod
    def compute_total_requests_processed(records: Sequence[SlotRecord]) -> float:
        """Total requests served across the whole run."""
        return float(sum(r.outcome.served_requests for r in records))

    @property
    def num_slots(self) -> int:
        """Number of simulated slots."""
        return len(self.records)

    @property
    def total_net_profit(self) -> float:
        """Total net profit over the run."""
        return self.ledger.total_net_profit

    @property
    def net_profit_series(self) -> np.ndarray:
        """``(T,)`` per-slot net profit."""
        return self.compute_net_profit_series(self.records)

    @property
    def total_cost(self) -> float:
        """Total dollars spent (processing and idle energy + transfer)."""
        return self.ledger.total_cost

    @property
    def requests_processed(self) -> float:
        """Total requests served."""
        return self.compute_total_requests_processed(self.records)

    @property
    def completion_fractions(self) -> np.ndarray:
        """``(K,)`` completion fraction per request class."""
        return self.compute_completion_fractions(self.records)


def run_simulation(
    dispatcher: Dispatcher,
    trace: WorkloadTrace,
    market: MultiElectricityMarket,
    num_slots: Optional[int] = None,
    predictor_factory=None,
    apply_pue: bool = False,
    collector: Optional[Collector] = None,
) -> SimulationResult:
    """Run ``dispatcher`` over the trace/market and collect results.

    Slots are solved in trace order, so a warm-starting dispatcher (see
    ``ProfitAwareOptimizer(warm_start=True)``) reuses each slot's solver
    state for the next.  Any state left over from a *previous* run is
    dropped first so repeated calls are reproducible.

    ``collector`` (see :mod:`repro.obs`) instruments the run: it is
    handed to the controller and — when the dispatcher has a
    ``collector`` attribute, as :class:`ProfitAwareOptimizer` does —
    installed on the dispatcher too, so per-slot traces and solver
    counters land in the same sink as the loop timings.  The
    dispatcher's previous collector is restored when the run finishes,
    so instrumentation wired for one run never leaks into later runs of
    the same dispatcher.
    """
    reset = getattr(dispatcher, "reset_warm_state", None)
    if callable(reset):
        reset()
    swap_collector = collector is not None and hasattr(dispatcher, "collector")
    if swap_collector:
        saved_collector = dispatcher.collector
        dispatcher.collector = collector
    try:
        controller = SlottedController(
            dispatcher, trace, market,
            predictor_factory=predictor_factory, apply_pue=apply_pue,
            collector=collector,
        )
        ledger = ProfitLedger()
        records: List[SlotRecord] = []
        for record in controller.iter_slots(num_slots):
            ledger.record(record.outcome)
            records.append(record)
    finally:
        if swap_collector:
            dispatcher.collector = saved_collector
    name = getattr(dispatcher, "name", dispatcher.__class__.__name__)
    return SimulationResult(dispatcher_name=name, records=records, ledger=ledger)


def compare_dispatchers(
    dispatchers: Sequence[Dispatcher],
    trace: WorkloadTrace,
    market: MultiElectricityMarket,
    num_slots: Optional[int] = None,
    apply_pue: bool = False,
) -> Dict[str, SimulationResult]:
    """Run several dispatchers on identical inputs (the paper's setup)."""
    results: Dict[str, SimulationResult] = {}
    for dispatcher in dispatchers:
        result = run_simulation(
            dispatcher, trace, market, num_slots=num_slots, apply_pue=apply_pue
        )
        results[result.dispatcher_name] = result
    return results
