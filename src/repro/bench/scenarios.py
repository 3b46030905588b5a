"""The canonical benchmark scenario catalog.

Six tracked scenarios, each emitting one ``BENCH_<name>.json``:

* ``paper_scale``   — the §VI World-Cup day end to end (24 hourly slots,
  18 servers), the paper-faithful workload; also times the plan loop
  with the optimality certifier off vs on and tracks certify-on
  overhead as the ``certify_efficiency`` ratio;
* ``streaming_ingest`` — the streaming control plane over a blockified
  (bursty) §VI day: the drift-triggered policy is timed and its solve
  reduction vs per-slot re-planning tracked as ratios, alongside the
  periodic-streaming-equals-slotted equivalence check;
* ``fleet_10x``     — the same day on a 10× fleet (180 servers);
* ``fleet_100x``    — the same day on a 100× fleet (1800 servers),
  tracking the production sparse path at ROADMAP scale; both
  fleet scenarios also time a per-server plan loop dense vs sparse and
  record the symmetry-collapse win as the ``sparse_speedup`` ratio;
* ``warm_vs_cold``  — the Fig. 11-setup §VII slot pipeline solved cold
  and warm, recording the warm-start layer's speedup as a ratio;
* ``des_million``   — a ≥10⁶-request M/M/1 validation run on the
  discrete-event engine, with the pre-refactor
  :class:`~repro.des.reference.ReferenceEngine` timed on the identical
  workload so the engine refactor's speedup is a tracked ratio.

Every scenario has a ``full`` mode (the committed baselines) and a
``smoke`` mode (scaled down for CI).  All randomness is seeded: the
``determinism`` section of a record must be bit-identical between two
runs with the same scenario/mode/seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, cast

from repro.bench.machine import machine_fingerprint, peak_rss_mb
from repro.bench.runner import TimingResult, time_callable
from repro.bench.schema import Record, build_record
from repro.des.engine import Engine
from repro.des.measurements import SojournStats
from repro.des.processes import PoissonArrivals
from repro.des.reference import ReferenceEngine
from repro.des.server import FCFSQueueServer
from repro.obs.collectors import InMemoryCollector
from repro.obs.trace import SlotTrace

__all__ = [
    "Scenario",
    "ScenarioRequest",
    "ScenarioResult",
    "SCENARIOS",
    "register_scenario",
    "available_scenarios",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioRequest:
    """How to run one scenario.

    ``overrides`` rescales a scenario's workload knobs (``slots``,
    ``repeats``, ``requests``, ``multiplier``) — the escape hatch the
    test suite uses to exercise the machinery at trivial sizes.
    """

    mode: str = "full"
    seed: Optional[int] = None
    overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("full", "smoke"):
            raise ValueError(f"mode must be 'full' or 'smoke', got {self.mode!r}")

    def param(self, name: str, default: int) -> int:
        """One workload knob, override-aware."""
        return int(self.overrides.get(name, default))


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario run measured (sections of the JSON record)."""

    seed: int
    config: Dict[str, Any]
    determinism: Dict[str, Any]
    timing: Dict[str, Any]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    description: str
    run: Callable[[ScenarioRequest], ScenarioResult]


SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(  # reprolint: disable=AR030 # extension point
    name: str, description: str
) -> Callable[[Callable[[ScenarioRequest], ScenarioResult]],
              Callable[[ScenarioRequest], ScenarioResult]]:
    """Class-level decorator registering a scenario runner under ``name``."""

    def decorate(
        fn: Callable[[ScenarioRequest], ScenarioResult]
    ) -> Callable[[ScenarioRequest], ScenarioResult]:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} registered twice")
        SCENARIOS[name] = Scenario(name=name, description=description, run=fn)
        return fn

    return decorate


def available_scenarios() -> List[str]:
    """Registered scenario names, in catalog (cheapest-first) order."""
    return list(SCENARIOS)


def run_scenario(
    name: str,
    mode: str = "full",
    seed: Optional[int] = None,
    overrides: Optional[Mapping[str, int]] = None,
) -> Record:
    """Run one scenario and return its complete, validated record."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(available_scenarios())}"
        )
    request = ScenarioRequest(mode=mode, seed=seed,
                              overrides=dict(overrides or {}))
    result = SCENARIOS[name].run(request)
    return build_record(
        scenario=name,
        mode=mode,
        seed=result.seed,
        config=result.config,
        determinism=result.determinism,
        timing=result.timing,
        machine=machine_fingerprint(),
        created_unix=time.time(),
    )


# ---------------------------------------------------------------------------
# Shared helpers


def _aggregate_phases(traces: List[SlotTrace]) -> Dict[str, float]:
    """Sum per-slot ``SlotTrace`` phase timings across a run."""
    phases: Dict[str, float] = {}
    for trace in traces:
        for phase, seconds in trace.phase_times.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    return phases


def _timing_section(
    timing: TimingResult,
    per_phase_s: Dict[str, float],
    ratios: Optional[Dict[str, float]] = None,
    throughput: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    section: Dict[str, Any] = {"wall_s": timing.median_s}
    section.update(timing.to_dict())
    section["per_phase_s"] = per_phase_s
    section["peak_rss_mb"] = peak_rss_mb()
    section["ratios"] = dict(ratios or {})
    section["throughput"] = dict(throughput or {})
    return section


def _slot_pipeline_scenario(
    request: ScenarioRequest,
    multiplier: int,
    full_slots: int,
    smoke_slots: int,
    sparse_ratio: bool = False,
    certify_ratio: bool = False,
) -> ScenarioResult:
    """§VI day at ``multiplier``× fleet size through ``run_simulation``.

    With ``sparse_ratio`` (the fleet scenarios) the main timed run uses
    the production sparse solve path — so ``per_phase_s`` records its
    build/solve/expand stage split — and a
    second measurement times a **per-server** plan loop dense vs sparse,
    where symmetry collapse makes thousand-server fleets tractable.
    That win lands in ``ratios.sparse_speedup`` and the dense-vs-sparse
    objectives are pinned in the ``determinism`` section.

    With ``certify_ratio`` (the paper-scale scenario) a second
    measurement times the same plan loop with the optimality
    certifier off vs on (``certify="warn"``).  The dimensionless
    ``ratios.certify_efficiency`` — plain time over certified time —
    is the fraction of plain throughput retained with certification
    active (≤ ~1; a drop means verification got more expensive), so
    the CI ratio gate tracks certify-on overhead across machines.
    """
    from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
    from repro.experiments.section6 import SERVERS_PER_DC, section6_experiment
    from repro.sim.slotted import SimulationResult, run_simulation

    smoke = request.mode == "smoke"
    seed = request.seed if request.seed is not None else 1998
    mult = request.param("multiplier", multiplier)
    slots = request.param("slots", smoke_slots if smoke else full_slots)
    repeats = request.param("repeats", 1 if smoke else 3)
    warmup = request.param("warmup", 0 if smoke else 1)

    exp = section6_experiment(seed=seed)
    topology = exp.topology
    if mult != 1:
        topology = topology.with_servers_per_datacenter(SERVERS_PER_DC * mult)
    slots = min(slots, exp.trace.num_slots)

    def once() -> Tuple[SimulationResult, InMemoryCollector]:
        collector = InMemoryCollector()
        optimizer = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(sparse=sparse_ratio)
        )
        result = run_simulation(
            optimizer, exp.trace, exp.market,
            num_slots=slots, collector=collector,
        )
        return result, collector

    timing, (result, collector) = time_callable(once, repeats=repeats,
                                                warmup=warmup)
    traces = collector.slot_traces
    config: Dict[str, Any] = {
        "experiment": "section6",
        "fleet_multiplier": mult,
        "num_servers": topology.num_servers,
        "num_slots": slots,
        "repeats": repeats,
        "warmup": warmup,
        "sparse": sparse_ratio,
    }
    determinism: Dict[str, Any] = {
        "num_slots": slots,
        "total_net_profit": float(result.total_net_profit),
        "objectives": [float(t.objective) for t in traces],
        "warm_outcomes": collector.warm_start_counts(),
        "fallback_slots": sum(1 for t in traces if t.fallback > 0),
    }
    ratios: Dict[str, float] = {}

    if sparse_ratio:
        # Dense vs sparse on the *per-server* formulation: the dense
        # tableau carries one variable per physical server, the sparse
        # path collapses identical servers before the solve.  Dense at
        # 100x is seconds per slot, so it gets one pass over a few
        # slots; the sparse loop is cheap enough to take a median over.
        ratio_slots = request.param("ratio_slots", 1 if smoke else 2)
        ratio_repeats = request.param("ratio_repeats", 3)
        ratio_slots = min(ratio_slots, exp.trace.num_slots)

        def plan_loop(sparse: bool) -> List[float]:
            optimizer = ProfitAwareOptimizer(topology, config=OptimizerConfig(
                formulation="per_server", sparse=sparse,
            ))
            objectives = []
            for t in range(ratio_slots):
                optimizer.plan_slot(
                    exp.trace.arrivals_at(t), exp.market.prices_at(t),
                    slot_duration=exp.trace.slot_duration,
                )
                objectives.append(float(optimizer.last_stats.objective))
            return objectives

        dense_timing, dense_obj = time_callable(
            lambda: plan_loop(False), repeats=1, warmup=0
        )
        sparse_timing, sparse_obj = time_callable(
            lambda: plan_loop(True), repeats=ratio_repeats, warmup=0
        )
        ratios["sparse_speedup"] = (
            dense_timing.median_s / sparse_timing.median_s
        )
        config.update({
            "ratio_formulation": "per_server",
            "ratio_slots": ratio_slots,
            "ratio_repeats": ratio_repeats,
        })
        determinism.update({
            "ratio_objectives_dense": dense_obj,
            "ratio_objectives_sparse": sparse_obj,
            "ratio_max_rel_diff": max(
                (abs(s - d) / (1.0 + abs(d))
                 for s, d in zip(sparse_obj, dense_obj)),
                default=0.0,
            ),
        })

    if certify_ratio:
        certify_slots = request.param("certify_slots", 2 if smoke else 8)
        certify_repeats = request.param("certify_repeats", 3)
        certify_slots = min(certify_slots, exp.trace.num_slots)

        def certify_loop(certify: str) -> Dict[str, int]:
            collector = InMemoryCollector()
            optimizer = ProfitAwareOptimizer(topology, config=OptimizerConfig(
                sparse=sparse_ratio, certify=certify, collector=collector,
            ))
            for t in range(certify_slots):
                optimizer.plan_slot(
                    exp.trace.arrivals_at(t), exp.market.prices_at(t),
                    slot_duration=exp.trace.slot_duration,
                )
            return {
                "certified": int(collector.counters.get(
                    "optimizer.certifies", 0)),
                "errors": int(collector.counters.get(
                    "optimizer.certify_errors", 0)),
            }

        plain_timing, _ = time_callable(
            lambda: certify_loop("off"), repeats=certify_repeats, warmup=0
        )
        certified_timing, certify_counts = time_callable(
            lambda: certify_loop("warn"), repeats=certify_repeats, warmup=0
        )
        ratios["certify_efficiency"] = (
            plain_timing.median_s / certified_timing.median_s
        )
        config.update({
            "certify_slots": certify_slots,
            "certify_repeats": certify_repeats,
        })
        determinism.update({
            "certified_solves": certify_counts["certified"],
            "certify_error_findings": certify_counts["errors"],
        })

    return ScenarioResult(
        seed=seed,
        config=config,
        determinism=determinism,
        timing=_timing_section(
            timing,
            per_phase_s=_aggregate_phases(traces),
            ratios=ratios,
            throughput={"slots_per_s": slots / timing.median_s},
        ),
    )


# ---------------------------------------------------------------------------
# The catalog (registration order = cheapest first, so the lifetime
# peak-RSS readings stay attributable)


@register_scenario(
    "paper_scale",
    "§VI World-Cup day, paper-faithful scale (24 slots, 18 servers), "
    "plus the certify-off-vs-on certify_efficiency ratio",
)
def _paper_scale(request: ScenarioRequest) -> ScenarioResult:
    return _slot_pipeline_scenario(request, multiplier=1,
                                   full_slots=24, smoke_slots=6,
                                   certify_ratio=True)


@register_scenario(
    "streaming_ingest",
    "streaming control plane on a bursty §VI day: drift-triggered "
    "re-solving vs periodic, plus slotted-equivalence check",
)
def _streaming_ingest(request: ScenarioRequest) -> ScenarioResult:
    import numpy as np

    from repro.core.controller import SlottedController
    from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
    from repro.experiments.section6 import section6_experiment
    from repro.stream import (
        DriftTriggered,
        PeriodicResolve,
        StreamingController,
        StreamingResult,
    )
    from repro.workload.traces import WorkloadTrace

    smoke = request.mode == "smoke"
    seed = request.seed if request.seed is not None else 1998
    slots = request.param("slots", 8 if smoke else 24)
    ticks_per_slot = request.param("ticks_per_slot", 6 if smoke else 12)
    block = request.param("block", 4)
    repeats = request.param("repeats", 1 if smoke else 3)
    warmup = request.param("warmup", 0 if smoke else 1)

    exp = section6_experiment(seed=seed)
    slots = min(slots, exp.trace.num_slots)
    # Piecewise-constant ("bursty") day: each run of `block` slots
    # repeats its first slot, so re-planning is only worth it at edges.
    idx = (np.arange(exp.trace.num_slots) // block) * block
    bursty = WorkloadTrace(exp.trace.rates[:, :, idx],
                           exp.trace.slot_duration)

    def dispatcher() -> ProfitAwareOptimizer:
        return ProfitAwareOptimizer(exp.topology, config=OptimizerConfig())

    def stream(policy: Any,
               collector: Optional[InMemoryCollector] = None
               ) -> StreamingResult:
        return StreamingController(
            dispatcher(), bursty, exp.market, policy,
            ticks_per_slot=ticks_per_slot, collector=collector,
        ).run(num_slots=slots)

    collectors: List[InMemoryCollector] = []

    def timed_drift() -> StreamingResult:
        collector = InMemoryCollector()
        collectors.append(collector)
        return stream(DriftTriggered(), collector)

    timing, drift = time_callable(timed_drift, repeats=repeats,
                                  warmup=warmup)
    collector = collectors[-1]
    periodic = stream(PeriodicResolve())
    slotted = SlottedController(dispatcher(), bursty, exp.market).run(
        num_slots=slots
    )
    # Equivalence pin: periodic streaming reproduces the slotted loop.
    equivalence_rel_diff = max(
        (
            abs(got.outcome.net_profit - ref.outcome.net_profit)
            / (1.0 + abs(ref.outcome.net_profit))
            for got, ref in zip(periodic.records, slotted)
        ),
        default=0.0,
    )
    plan_stats = collector.timers.get("stream.plan_slot")
    ticks = slots * ticks_per_slot
    return ScenarioResult(
        seed=seed,
        config={
            "experiment": "section6 (blockified)",
            "block": block,
            "num_slots": slots,
            "ticks_per_slot": ticks_per_slot,
            "policy": drift.policy,
            "repeats": repeats,
            "warmup": warmup,
        },
        determinism={
            "num_slots": slots,
            "drift_full_solves": drift.full_solves,
            "drift_repairs": drift.repairs,
            "drift_events": drift.drift_events,
            "periodic_full_solves": periodic.full_solves,
            "drift_net_profit": float(drift.total_net_profit),
            "periodic_net_profit": float(periodic.total_net_profit),
            "drift_profit_series": [
                float(p) for p in drift.net_profit_series
            ],
            "equivalence_max_rel_diff": float(equivalence_rel_diff),
        },
        timing=_timing_section(
            timing,
            per_phase_s={
                "plan_slot": plan_stats.total if plan_stats else 0.0,
            },
            ratios={
                "resolve_reduction": (
                    periodic.full_solves / max(drift.full_solves, 1)
                ),
                "profit_ratio": (
                    drift.total_net_profit / periodic.total_net_profit
                ),
            },
            throughput={"ticks_per_s": ticks / timing.median_s},
        ),
    )


@register_scenario(
    "fleet_10x",
    "§VI day on a 10x fleet (180 servers), sparse path, plus "
    "the per-server dense-vs-sparse sparse_speedup ratio",
)
def _fleet_10x(request: ScenarioRequest) -> ScenarioResult:
    return _slot_pipeline_scenario(request, multiplier=10,
                                   full_slots=24, smoke_slots=4,
                                   sparse_ratio=True)


@register_scenario(
    "fleet_100x",
    "§VI day on a 100x fleet (1800 servers), sparse path, "
    "plus the per-server dense-vs-sparse sparse_speedup ratio",
)
def _fleet_100x(request: ScenarioRequest) -> ScenarioResult:
    return _slot_pipeline_scenario(request, multiplier=100,
                                   full_slots=24, smoke_slots=4,
                                   sparse_ratio=True)


@register_scenario(
    "warm_vs_cold",
    "Fig. 11-setup §VII slot pipeline, cold vs warm-started solves",
)
def _warm_vs_cold(request: ScenarioRequest) -> ScenarioResult:
    from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
    from repro.experiments.section7 import section7_experiment

    smoke = request.mode == "smoke"
    seed = request.seed if request.seed is not None else 2010
    servers_per_dc = request.param("servers_per_dc", 3)
    repeats = request.param("repeats", 1 if smoke else 3)
    warmup = request.param("warmup", 0 if smoke else 1)

    exp = section7_experiment(seed=seed)
    topology = exp.topology.with_servers_per_datacenter(servers_per_dc)
    slots = request.param("slots", exp.trace.num_slots)
    slots = min(slots, exp.trace.num_slots)
    base = OptimizerConfig(level_method="greedy", lp_method="ipm",
                           formulation="per_server")

    def pipeline(warm_start: bool) -> Tuple[List[float], InMemoryCollector]:
        collector = InMemoryCollector()
        optimizer = ProfitAwareOptimizer(
            topology, config=base.replace(warm_start=warm_start)
        )
        optimizer.collector = collector
        for t in range(slots):
            optimizer.plan_slot(
                exp.trace.arrivals_at(t), exp.market.prices_at(t),
                slot_duration=1.0,
            )
        objectives = [float(tr.objective) for tr in collector.slot_traces]
        return objectives, collector

    cold_timing, (cold_obj, _) = time_callable(
        lambda: pipeline(False), repeats=repeats, warmup=warmup
    )
    warm_timing, (warm_obj, warm_collector) = time_callable(
        lambda: pipeline(True), repeats=repeats, warmup=warmup
    )
    max_rel_diff = max(
        (abs(w - c) / (1.0 + abs(c)) for w, c in zip(warm_obj, cold_obj)),
        default=0.0,
    )
    return ScenarioResult(
        seed=seed,
        config={
            "experiment": "section7 (Fig. 11 per-server formulation)",
            "servers_per_dc": servers_per_dc,
            "num_slots": slots,
            "repeats": repeats,
            "warmup": warmup,
            "level_method": base.level_method,
            "lp_method": base.lp_method,
            "formulation": base.formulation,
        },
        determinism={
            "num_slots": slots,
            "cold_objectives": cold_obj,
            "warm_objectives": warm_obj,
            "max_objective_rel_diff": float(max_rel_diff),
            "warm_outcomes": warm_collector.warm_start_counts(),
        },
        timing=_timing_section(
            warm_timing,
            per_phase_s=_aggregate_phases(warm_collector.slot_traces),
            ratios={
                "warm_speedup": cold_timing.median_s / warm_timing.median_s,
            },
            throughput={
                "slots_per_s": slots / warm_timing.median_s,
                "cold_slots_per_s": slots / cold_timing.median_s,
            },
        ),
    )


def _des_workload(
    engine_factory: Callable[[], Engine],
    requests: int,
    rate: float,
    seed: int,
) -> Dict[str, Any]:
    """One M/M/1 validation run; returns phases + deterministic facts."""
    horizon = requests / rate
    engine = engine_factory()
    stats = SojournStats(warmup_time=0.05 * horizon)
    server = FCFSQueueServer(engine, rate=1.0, stats=stats)
    arrivals = PoissonArrivals(engine, rate=rate, sink=server.arrive,
                               seed=seed, stop_time=horizon)
    start = time.perf_counter()
    engine.run_until(horizon)
    t_horizon = time.perf_counter() - start
    start = time.perf_counter()
    engine.run()
    t_drain = time.perf_counter() - start
    analytic = 1.0 / (1.0 - rate)  # M/M/1 sojourn at mu=1
    return {
        "phases": {"horizon": t_horizon, "drain": t_drain},
        "generated": int(arrivals.generated),
        "events_processed": int(engine.events_processed),
        "completed": int(stats.count + stats.discarded),
        "mean_sojourn": float(stats.mean),
        "analytic_sojourn": float(analytic),
        "relative_error": float(abs(stats.mean - analytic) / analytic),
    }


@register_scenario(
    "des_million",
    "million-request M/M/1 DES validation run; engine-refactor speedup "
    "vs the pre-refactor reference engine",
)
def _des_million(request: ScenarioRequest) -> ScenarioResult:
    smoke = request.mode == "smoke"
    seed = request.seed if request.seed is not None else 42
    requests = request.param("requests", 50_000 if smoke else 1_050_000)
    repeats = request.param("repeats", 1 if smoke else 2)
    rate = 0.8  # utilization: mu = 1, lambda = 0.8

    timing, outcome = time_callable(
        lambda: _des_workload(Engine, requests, rate, seed),
        repeats=repeats, warmup=0,
    )
    ref_timing, ref_outcome = time_callable(
        lambda: _des_workload(
            cast(Callable[[], Engine], ReferenceEngine), requests, rate, seed
        ),
        repeats=1, warmup=0,
    )
    deterministic_keys = ("generated", "events_processed", "completed",
                          "mean_sojourn")
    engines_agree = all(
        outcome[key] == ref_outcome[key] for key in deterministic_keys
    )
    return ScenarioResult(
        seed=seed,
        config={
            "workload": "M/M/1 FCFS validation (Eq. 1)",
            "requests_target": requests,
            "utilization": rate,
            "repeats": repeats,
        },
        determinism={
            "generated": outcome["generated"],
            "events_processed": outcome["events_processed"],
            "completed": outcome["completed"],
            "mean_sojourn": outcome["mean_sojourn"],
            "analytic_sojourn": outcome["analytic_sojourn"],
            "relative_error": outcome["relative_error"],
            "reference_engine_identical": bool(engines_agree),
        },
        timing=_timing_section(
            timing,
            per_phase_s=dict(outcome["phases"]),
            ratios={"engine_speedup": ref_timing.median_s / timing.median_s},
            throughput={
                "events_per_s": outcome["events_processed"] / timing.median_s,
                "reference_events_per_s": (
                    ref_outcome["events_processed"] / ref_timing.median_s
                ),
            },
        ),
    )
