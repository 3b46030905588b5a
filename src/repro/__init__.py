"""repro — Profit Aware Load Balancing for Distributed Cloud Data Centers.

A from-scratch reproduction of Liu, Ren, Quan, Zhao & Ren (IPDPS
Workshops 2013): an energy-efficient, profit- and cost-aware request
dispatching and resource allocation system for geographically
distributed cloud data centers operating in multi-electricity markets.

Quickstart
----------
>>> import numpy as np
>>> from repro import (ConstantTUF, RequestClass, DataCenter, FrontEnd,
...                    CloudTopology, ProfitAwareOptimizer, evaluate_plan)
>>> rc = RequestClass("search", ConstantTUF(value=10.0, deadline=0.02),
...                   transfer_unit_cost=0.003)
>>> dc = DataCenter("dc1", num_servers=4,
...                 service_rates=np.array([150.0]),
...                 energy_per_request=np.array([3e-4]))
>>> topo = CloudTopology(request_classes=(rc,), frontends=(FrontEnd("fe1"),),
...                      datacenters=(dc,), distances=np.array([[500.0]]))
>>> plan = ProfitAwareOptimizer(topo).plan_slot(
...     arrivals=np.array([[100.0]]), prices=np.array([0.08]))
>>> outcome = evaluate_plan(plan, np.array([[100.0]]), np.array([0.08]),
...                         slot_duration=3600.0)
>>> outcome.net_profit > 0
True
"""

from repro.core import (
    BalancedDispatcher,
    ConstantTUF,
    Dispatcher,
    DispatchPlan,
    EvenSplitDispatcher,
    MonotonicTUF,
    NetProfitBreakdown,
    OptimizerConfig,
    ProfitAwareOptimizer,
    RequestClass,
    SlottedController,
    StepDownwardTUF,
    TimeUtilityFunction,
    UtilityLevel,
    consolidate_plan,
    evaluate_plan,
    powered_on_servers,
)
from repro.cloud import (
    CloudTopology,
    DataCenter,
    EnergyModel,
    FrontEnd,
    LocationSpec,
    Server,
    ServerGroup,
    TransferModel,
    build_heterogeneous_topology,
    random_topology,
)
from repro.market import (
    GreenEnergyProfile,
    MultiElectricityMarket,
    PriceTrace,
    apply_green_energy,
    atlanta_profile,
    brown_energy_fraction,
    houston_profile,
    mountain_view_profile,
    paper_locations,
    solar_profile,
    synthetic_profile,
    wind_profile,
)
from repro.workload import (
    EWMAPredictor,
    KalmanFilterPredictor,
    WorkloadTrace,
    google_like_trace,
    worldcup_like_trace,
)
from repro.sim import (
    ExperimentConfig,
    MarkovServerAvailability,
    ProfitLedger,
    SimulationResult,
    compare_dispatchers,
    comparison_report,
    run_simulation,
    run_with_failures,
)
from repro.des import ClusterSimulation, SimulatedSlotOutcome, simulate_plan
from repro.obs import (
    InMemoryCollector,
    NullCollector,
    SlotTrace,
    read_traces,
    write_traces,
)
from repro.core.sensitivity import SlotSensitivity, slot_sensitivity
from repro.queueing import JacksonNetwork

__version__ = "1.0.0"

__all__ = [
    # TUFs & task model
    "TimeUtilityFunction", "UtilityLevel", "ConstantTUF", "StepDownwardTUF",
    "MonotonicTUF", "RequestClass",
    # cloud substrate
    "Server", "DataCenter", "FrontEnd", "CloudTopology", "random_topology",
    "EnergyModel", "TransferModel",
    # market
    "PriceTrace", "MultiElectricityMarket", "houston_profile",
    "mountain_view_profile", "atlanta_profile", "synthetic_profile",
    "paper_locations",
    # workload
    "WorkloadTrace", "worldcup_like_trace", "google_like_trace",
    "EWMAPredictor", "KalmanFilterPredictor",
    # core algorithm
    "DispatchPlan", "NetProfitBreakdown", "evaluate_plan",
    "OptimizerConfig", "ProfitAwareOptimizer",
    "BalancedDispatcher", "EvenSplitDispatcher", "Dispatcher",
    "SlottedController", "powered_on_servers", "consolidate_plan",
    # observability
    "InMemoryCollector", "NullCollector", "SlotTrace",
    "read_traces", "write_traces",
    # simulation harness
    "ProfitLedger", "SimulationResult", "run_simulation",
    "compare_dispatchers", "ExperimentConfig", "comparison_report",
    # extensions
    "GreenEnergyProfile", "solar_profile", "wind_profile",
    "apply_green_energy", "brown_energy_fraction",
    "MarkovServerAvailability", "run_with_failures",
    "ServerGroup", "LocationSpec", "build_heterogeneous_topology",
    "ClusterSimulation", "SimulatedSlotOutcome", "simulate_plan",
    "SlotSensitivity", "slot_sensitivity", "JacksonNetwork",
    "__version__",
]
