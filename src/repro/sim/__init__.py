"""Time-slotted simulation harness.

Runs dispatchers (the optimizer and baselines) over whole traces,
accumulates itemized profit ledgers, and computes the series the paper
plots (per-slot net profit, per-data-center dispatch, completion
fractions, powered-on servers).
"""

from repro.sim.accounting import ProfitLedger
from repro.sim.slotted import SimulationResult, run_simulation, compare_dispatchers
from repro.sim.metrics import (
    completion_fractions,
    dispatch_matrix,
    dc_dispatch_series,
    net_profit_series,
    powered_on_series,
    total_requests_processed,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.failures import (
    MarkovServerAvailability,
    degraded_topology,
    expand_degraded_plan,
    run_with_failures,
)
from repro.sim.reporting import comparison_report
from repro.sim.parallel import DispatcherSpec, parallel_run_simulation

__all__ = [
    "DispatcherSpec",
    "parallel_run_simulation",
    "MarkovServerAvailability",
    "degraded_topology",
    "expand_degraded_plan",
    "run_with_failures",
    "comparison_report",
    "ProfitLedger",
    "SimulationResult",
    "run_simulation",
    "compare_dispatchers",
    "net_profit_series",
    "dc_dispatch_series",
    "dispatch_matrix",
    "completion_fractions",
    "powered_on_series",
    "total_requests_processed",
    "ExperimentConfig",
]
