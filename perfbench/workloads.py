"""The four benchmark workloads: inputs from a seed, set-up, and one timed pass.

Every workload turns the run seed into a fixed *block* of inputs (many
days or windows), builds its dispatcher once, and then repeats *passes*
over the block until the run's time is used up.  Each pass starts from
reset warm state, so every pass makes the same decisions: the benchmark
checks that, and reports the net profit of one pass.  Timings come only
from calls into public functions of the program, taken from outside:

* ``fleet_lp`` and ``milp_audit`` time each ``plan_slot`` call through
  :class:`TimedDispatcher` and each pass of ``run_simulation``;
* ``stream_online`` times each streaming tick by wrapping the
  controller's tick source (the time from a tick's yield to the loop's
  request for the next one);
* ``des_replay`` times each ``simulate_plan`` call.

In a traced pass (:class:`tracing.Tracer`), the same boundaries record
spans, the program's own ``InMemoryCollector`` is attached, and
``tracemalloc`` measures each ``plan_slot`` call's allocation peak.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.core.controller as core_controller
import repro.stream.controller as stream_controller
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.plan import DispatchPlan
from repro.des.cluster import simulate_plan
from repro.experiments.section6 import SERVERS_PER_DC, section6_topology
from repro.experiments.section7 import (
    DEFAULT_MEAN_RATE,
    PRICE_WINDOW,
    section7_topology,
)
from repro.market.market import MultiElectricityMarket
from repro.market.prices import (
    PriceTrace,
    atlanta_profile,
    houston_profile,
    mountain_view_profile,
)
from repro.market.spot import spot_market
from repro.sim.slotted import run_simulation
from repro.stream import DriftTriggered, StreamingController
from repro.workload.googletrace import google_like_trace
from repro.workload.traces import WorkloadTrace
from repro.workload.worldcup import worldcup_like_trace

from checks import check_plan, check_standing_plan
from tracing import Tracer

#: Simulated hours replayed per slot on ``des_replay`` (18 s of traffic,
#: a few hundred to a few thousand jobs per call).
DES_HORIZON_HOURS = 0.005

#: Ticks per hourly slot on ``stream_online`` (five-minute ticks).
TICKS_PER_SLOT = 12

#: Servers per data centre on ``fleet_lp``, as a multiple of §VI's.
FLEET_MULTIPLIER = 100

#: Input one pass covers: days on ``fleet_lp``, ``stream_online`` and
#: ``des_replay``, 7-hour windows on ``milp_audit``.  Blocks of 192 to
#: 1152 decisions (p90 has 19 or more beyond it), passes of one to three
#: seconds, so a run of 15 s holds five or more.  ``milp_audit`` needs 40
#: windows: its slowest decile straddles the hard windows, and with 20
#: its p90 moved by a third from seed to seed.
BLOCKS: Dict[str, int] = {
    "fleet_lp": 10,
    "milp_audit": 40,
    "stream_online": 4,
    "des_replay": 8,
}


def derived_seeds(seed: int, purpose: int, count: int) -> List[int]:
    """``count`` independent seeds for one purpose, all from the run seed."""
    state = np.random.SeedSequence([seed, purpose]).generate_state(count)
    return [int(s) for s in state]


def tiled_market(profiles: List[PriceTrace], days: int, seed: int
                 ) -> MultiElectricityMarket:
    """``days`` repeats of the Fig. 1 price shapes with spot-market spikes."""
    tiled = [PriceTrace(p.location, np.tile(p.prices, days)) for p in profiles]
    return spot_market(MultiElectricityMarket(tiled), seed=seed)


def offered_requests(trace: WorkloadTrace) -> float:
    """Requests offered over the whole trace."""
    return float(trace.rates.sum() * trace.slot_duration)


def concat_traces(traces: List[WorkloadTrace]) -> WorkloadTrace:
    """Consecutive traces as one trace."""
    return WorkloadTrace(np.concatenate([t.rates for t in traces], axis=2),
                         traces[0].slot_duration)


def worldcup_days(seed: int, days: int) -> Tuple[WorkloadTrace,
                                                  MultiElectricityMarket]:
    """Consecutive World-Cup-like days (one derived seed per day) at the
    §VI price shapes with spot spikes."""
    day_seeds = derived_seeds(seed, 1, days)
    trace = concat_traces([worldcup_like_trace(num_classes=3, seed=s)
                           for s in day_seeds])
    profiles = [houston_profile(), mountain_view_profile(), atlanta_profile()]
    return trace, tiled_market(profiles, days, derived_seeds(seed, 2, 1)[0])


def google_windows(seed: int, windows: int) -> Tuple[WorkloadTrace,
                                                      MultiElectricityMarket]:
    """Consecutive 7-hour Google-like windows (one derived seed each) in
    the 14:00-19:00 price window with spot spikes."""
    window_seeds = derived_seeds(seed, 3, windows)
    trace = concat_traces([
        google_like_trace(num_slots=7, mean_rate=DEFAULT_MEAN_RATE, seed=s)
        .select_classes([0, 1])
        for s in window_seeds
    ])
    profiles = [p.window(*PRICE_WINDOW)
                for p in (houston_profile(), mountain_view_profile())]
    return trace, tiled_market(profiles, windows, derived_seeds(seed, 4, 1)[0])


# ---------------------------------------------------------------------------
# Outside timing of the dispatcher


@dataclass
class Call:
    """One ``plan_slot`` call as seen from outside."""

    #: The decision (slot or tick) the call belongs to.
    decision: int
    #: ``time.perf_counter()`` when the call began.
    start: float
    arrivals: np.ndarray
    plan: DispatchPlan
    seconds: float
    objective: float
    fallback_level: int
    error: str
    #: ``SlotTrace`` emitted by this call (traced passes only).
    trace: object = None
    #: ``tracemalloc`` peak of this call in bytes (allocation passes only).
    peak_alloc: int = 0


class TimedDispatcher:
    """Forward every call to a dispatcher and time ``plan_slot`` from outside.

    Keeps each call's arrivals, plan, fallback level and error so the
    plans can be checked after the timed region.  A call that raises is
    recorded as failed and answered with the empty plan, so the run
    goes on and the failure is counted instead of ending the run.
    """

    def __init__(self, inner: ProfitAwareOptimizer) -> None:
        self.inner = inner
        self.name = inner.name
        self.topology = inner.topology
        self.calls: List[Call] = []
        self.tracer: Optional[Tracer] = None
        #: Measure each call's allocation peak with ``tracemalloc`` (it
        #: slows the call, so never on a pass whose times are reported).
        self.measure_alloc = False
        #: Returns the decision a call belongs to; by default each call
        #: is its own decision.
        self.decision_of: Callable[[], int] = lambda: len(self.calls)

    @property
    def collector(self):
        return self.inner.collector

    @collector.setter
    def collector(self, value) -> None:
        self.inner.collector = value

    @property
    def last_stats(self):
        return self.inner.last_stats

    def reset_warm_state(self) -> None:
        self.inner.reset_warm_state()

    def plan_slot(self, arrivals: np.ndarray, prices: np.ndarray,
                  slot_duration: float = 1.0) -> DispatchPlan:
        tracer = self.tracer
        decision = self.decision_of()
        if tracer is not None:
            tracer.decision = decision
            traces_before = len(self.inner.collector.slot_traces)
            span = tracer.open("core.plan_slot")
        if self.measure_alloc:
            tracemalloc.start()
        error = ""
        start = time.perf_counter()
        try:
            plan = self.inner.plan_slot(arrivals, prices,
                                        slot_duration=slot_duration)
        except Exception as exc:  # a raised decision is counted, not fatal
            plan = DispatchPlan.empty(self.topology)
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        stats = self.inner.last_stats
        call = Call(
            decision=decision, start=start, arrivals=arrivals, plan=plan,
            seconds=seconds,
            objective=float(stats.objective) if stats and not error else 0.0,
            fallback_level=int(stats.fallback_level) if stats and not error else 0,
            error=error,
        )
        if self.measure_alloc:
            call.peak_alloc = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if tracer is not None:
            traces = self.inner.collector.slot_traces
            if len(traces) > traces_before:
                call.trace = traces[-1]
            tracer.close(span)
            tracer.plan_phases(span, call.trace)
        self.calls.append(call)
        return plan


def make_optimizer(topology, config: OptimizerConfig) -> TimedDispatcher:
    return TimedDispatcher(ProfitAwareOptimizer(topology, config=config))


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    """What one pass over the block did, measured from outside."""

    #: Seconds per decision: ``plan_slot`` call, streaming tick, or
    #: ``simulate_plan`` call.
    latencies: List[float]
    #: ``time.perf_counter()`` at the start of the pass and of each
    #: decision: the pass splits into one cycle per decision.
    begin: float
    starts: List[float]
    #: Wall seconds of the pass.
    wall: float
    #: Throughput numerator: slots, ticks, or DES events.
    work: float
    net_profit: float
    #: Requests offered over the block (jobs generated on ``des_replay``).
    requests: float
    #: Per-decision objectives, compared pass to pass and to the oracle.
    objectives: List[float]
    #: Decision indices that raised, fell back, or failed a check.
    failed: set
    problems: List[str]
    #: Computed bytes of the plans and records the pass retains.
    retained_bytes: int
    #: Largest ``tracemalloc`` peak of one ``plan_slot`` call, in bytes.
    peak_alloc: int = 0


def _record_bytes(records) -> int:
    total = 0
    for r in records:
        o = r.outcome
        total += (r.plan.rates.nbytes + r.plan.shares.nbytes
                  + r.arrivals.nbytes + r.prices.nbytes
                  + o.served_rates.nbytes + o.offered_rates.nbytes
                  + o.dc_loads.nbytes)
    return total


def _timed_evaluate(tracer: Tracer, evaluate: Callable) -> Callable:
    def timed(*args, **kwargs):
        span = tracer.open("core.evaluate_plan")
        try:
            return evaluate(*args, **kwargs)
        finally:
            tracer.close(span)
    return timed


def _recorded_evaluate(scored: List[Tuple[int, DispatchPlan]],
                       tick: Callable[[], int],
                       evaluate: Callable) -> Callable:
    """``evaluate`` that also keeps each plan it scores, with its tick."""
    def recorded(plan, *args, **kwargs):
        scored.append((tick(), plan))
        return evaluate(plan, *args, **kwargs)
    return recorded


def _check_calls(calls: List[Call], failed: set, problems: List[str]) -> None:
    """Mark the decision of every call that raised, fell back or whose
    plan breaks Eqs. 6-8 against the arrivals it was planned for.

    A fallback plan is still a valid plan, so it fails the decision but
    is not an output problem; a raise or a broken constraint is both.
    """
    for call in calls:
        if call.error:
            problem = f"raised {call.error}"
        else:
            problem = check_plan(call.plan, call.arrivals)
        if problem:
            problems.append(f"decision {call.decision}: {problem}")
        if problem or call.fallback_level > 0:
            failed.add(call.decision)


class Workload:
    """Shared shape: inputs from the seed, a dispatcher, repeated passes."""

    name = ""

    def __init__(self, seed: int, block: int) -> None:
        self.seed = seed
        self.block = block
        #: Seconds of the dispatcher's first ``plan_slot`` call, made in
        #: set-up while its formulation caches are cold.
        self.first_plan_s = 0.0

    def build_inputs(self) -> None:
        raise NotImplementedError

    def build_dispatcher(self) -> None:
        """Build the dispatcher and make its first decision, so that
        set-up holds the one-off cost a study pays on its first slot."""
        raise NotImplementedError

    def first_decision(self) -> None:
        """Plan slot 0 once with the fresh dispatcher and keep its time."""
        self.dispatcher.plan_slot(self.trace.arrivals_at(0),
                                  self.market.prices_at(0),
                                  slot_duration=self.trace.slot_duration)
        self.first_plan_s = self.dispatcher.calls[0].seconds

    def run_pass(self, tracer: Optional[Tracer] = None,
                 measure_alloc: bool = False) -> PassResult:
        """One pass over the block; ``tracer`` records spans and layer
        totals, ``measure_alloc`` each ``plan_slot`` allocation peak."""
        raise NotImplementedError


class SlotWorkload(Workload):
    """``run_simulation`` over the block; a decision is one ``plan_slot``."""

    def config(self) -> OptimizerConfig:
        raise NotImplementedError

    def build_dispatcher(self) -> None:
        self.dispatcher = make_optimizer(self.topology, self.config())
        self.first_decision()

    def run_pass(self, tracer: Optional[Tracer] = None,
                 measure_alloc: bool = False) -> PassResult:
        dispatcher = self.dispatcher
        dispatcher.measure_alloc = measure_alloc
        dispatcher.calls = []
        dispatcher.tracer = tracer
        collector = None
        evaluate = core_controller.evaluate_plan
        if tracer is not None:
            collector = tracer.collector
            core_controller.evaluate_plan = _timed_evaluate(tracer, evaluate)
            span = tracer.open("sim.run_simulation")
        try:
            start = time.perf_counter()
            result = run_simulation(dispatcher, self.trace, self.market,
                                    collector=collector)
            wall = time.perf_counter() - start
        finally:
            core_controller.evaluate_plan = evaluate
            dispatcher.tracer = None
            if tracer is not None:
                tracer.close(span)
        calls = dispatcher.calls
        failed: set = set()
        problems: List[str] = []
        _check_calls(calls, failed, problems)
        out = PassResult(
            latencies=[c.seconds for c in calls],
            begin=start,
            starts=[c.start for c in calls],
            wall=wall,
            work=float(result.num_slots),
            net_profit=float(result.total_net_profit),
            requests=offered_requests(self.trace),
            objectives=[c.objective for c in calls],
            failed=failed,
            problems=problems,
            retained_bytes=_record_bytes(result.records),
            peak_alloc=max((c.peak_alloc for c in calls), default=0),
        )
        if tracer is not None:
            tracer.slot_layers(out, calls, wall)
        return out


class FleetLP(SlotWorkload):
    """§VI topology at 100x fleet on the sparse decomposed LP."""

    name = "fleet_lp"

    def build_inputs(self) -> None:
        self.trace, self.market = worldcup_days(self.seed, self.block)

    def build_dispatcher(self) -> None:
        self.topology = section6_topology().with_servers_per_datacenter(
            SERVERS_PER_DC * FLEET_MULTIPLIER)
        super().build_dispatcher()

    def config(self) -> OptimizerConfig:
        return OptimizerConfig(sparse=True)

    def oracle(self) -> Tuple[List[float], float]:
        """Per-slot objectives and net profit of the dense aggregated LP
        over the block: the reference the sparse path is pinned to."""
        dense = make_optimizer(self.topology, OptimizerConfig())
        result = run_simulation(dense, self.trace, self.market)
        return [c.objective for c in dense.calls], float(result.total_net_profit)


class MilpAudit(SlotWorkload):
    """§VII topology (two-level TUFs) on the HiGHS MILP, audited and
    certified."""

    name = "milp_audit"

    def build_inputs(self) -> None:
        self.trace, self.market = google_windows(self.seed, self.block)

    def build_dispatcher(self) -> None:
        self.topology = section7_topology()
        super().build_dispatcher()

    def config(self) -> OptimizerConfig:
        return OptimizerConfig(audit="error", certify="error")


def _timed_ticks(events: Iterator, latencies: List[float],
                 starts: List[float], tracer: Optional[Tracer]) -> Iterator:
    """Yield the source's batches; a tick lasts from its yield until the
    loop asks for the next batch."""
    for batch in events:
        if tracer is not None:
            tracer.decision = batch.tick
            span = tracer.open("stream.tick")
        start = time.perf_counter()
        starts.append(start)
        yield batch
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(span)


class StreamOnline(Workload):
    """§VI topology, paper scale, drift-triggered streaming control."""

    name = "stream_online"

    def build_inputs(self) -> None:
        self.trace, self.market = worldcup_days(self.seed, self.block)
        self.source_seed = derived_seeds(self.seed, 5, 1)[0]

    def build_dispatcher(self) -> None:
        self.dispatcher = make_optimizer(section6_topology(), OptimizerConfig())
        self.first_decision()

    def run_pass(self, tracer: Optional[Tracer] = None,
                 measure_alloc: bool = False) -> PassResult:
        dispatcher = self.dispatcher
        dispatcher.measure_alloc = measure_alloc
        latencies: List[float] = []
        starts: List[float] = []
        dispatcher.calls = []
        dispatcher.tracer = tracer
        # Finished ticks so far: the index of the tick a call runs in.
        dispatcher.decision_of = lambda: len(latencies)
        collector = None
        saved_collector = dispatcher.collector
        evaluate = stream_controller.evaluate_plan
        # Every tick scores the plan it serves: a solved, repaired or
        # standing plan, capped to the true arrivals.  Each is checked.
        scored: List[Tuple[int, DispatchPlan]] = []
        stream_controller.evaluate_plan = _recorded_evaluate(
            scored, dispatcher.decision_of,
            evaluate if tracer is None else _timed_evaluate(tracer, evaluate))
        if tracer is not None:
            collector = tracer.collector
            dispatcher.collector = collector
            span = tracer.open("stream.run")
        try:
            start = time.perf_counter()
            controller = StreamingController(
                dispatcher, self.trace, self.market, DriftTriggered(),
                ticks_per_slot=TICKS_PER_SLOT, synthesis="poisson",
                seed=self.source_seed, estimation="online", admission=True,
                collector=collector,
            )
            source = controller.source
            events = source.events
            source.events = lambda num_slots=None: _timed_ticks(
                events(num_slots), latencies, starts, tracer)
            result = controller.run()
            wall = time.perf_counter() - start
        finally:
            stream_controller.evaluate_plan = evaluate
            dispatcher.collector = saved_collector
            dispatcher.tracer = None
            if tracer is not None:
                tracer.close(span)
        calls = dispatcher.calls
        failed: set = set()
        problems: List[str] = []
        _check_calls(calls, failed, problems)
        for tick, plan in scored:
            problem = check_standing_plan(plan)
            if problem:
                failed.add(tick)
                problems.append(f"tick {tick} scored plan: {problem}")
        out = PassResult(
            latencies=latencies,
            begin=start,
            starts=starts,
            wall=wall,
            work=float(result.ticks),
            net_profit=float(result.total_net_profit),
            requests=offered_requests(self.trace),
            objectives=[c.objective for c in calls],
            failed=failed,
            problems=problems,
            retained_bytes=_record_bytes(result.records),
            peak_alloc=max((c.peak_alloc for c in calls), default=0),
        )
        if tracer is not None:
            tracer.stream_layers(out, calls, result, latencies)
        return out


class DesReplay(Workload):
    """Set-up plans §VI slots; the timed pass replays them in the DES."""

    name = "des_replay"

    def build_inputs(self) -> None:
        self.trace, self.market = worldcup_days(self.seed, self.block)
        self.replay_seeds = derived_seeds(self.seed, 6, self.trace.num_slots)

    def build_dispatcher(self) -> None:
        dispatcher = make_optimizer(section6_topology(), OptimizerConfig())
        self.plans = []
        for t in range(self.trace.num_slots):
            prices = self.market.prices_at(t)
            plan = dispatcher.plan_slot(self.trace.arrivals_at(t), prices,
                                        slot_duration=self.trace.slot_duration)
            self.plans.append((plan, prices))
        self.setup_failed: set = set()
        self.setup_problems: List[str] = []
        _check_calls(dispatcher.calls, self.setup_failed, self.setup_problems)
        self.first_plan_s = dispatcher.calls[0].seconds

    def run_pass(self, tracer: Optional[Tracer] = None,
                 measure_alloc: bool = False) -> PassResult:
        latencies: List[float] = []
        starts: List[float] = []
        outcomes = []
        if tracer is not None:
            span = tracer.open("bench.replay")
        start = time.perf_counter()
        for i, (plan, prices) in enumerate(self.plans):
            if tracer is not None:
                tracer.decision = i
                call_span = tracer.open("des.simulate_plan")
            call_start = time.perf_counter()
            starts.append(call_start)
            outcomes.append(simulate_plan(plan, prices,
                                          slot_duration=DES_HORIZON_HOURS,
                                          seed=self.replay_seeds[i]))
            latencies.append(time.perf_counter() - call_start)
            if tracer is not None:
                tracer.close(call_span)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        failed = set(self.setup_failed)
        problems = list(self.setup_problems)
        for i, outcome in enumerate(outcomes):
            if outcome.completed != outcome.generated:
                failed.add(i)
                problems.append(
                    f"replay {i}: {outcome.generated} jobs generated but "
                    f"{outcome.completed} completed after drain")
        out = PassResult(
            latencies=latencies,
            begin=start,
            starts=starts,
            wall=wall,
            work=float(sum(o.generated + o.completed for o in outcomes)),
            net_profit=float(sum(o.net_profit_mean_delay for o in outcomes)),
            requests=float(sum(o.generated for o in outcomes)),
            objectives=[o.net_profit_mean_delay for o in outcomes],
            failed=failed,
            problems=problems,
            retained_bytes=sum(p.rates.nbytes + p.shares.nbytes
                               for p, _ in self.plans),
        )
        if tracer is not None:
            tracer.des_layers(out, self.plans, outcomes, latencies)
        return out


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (FleetLP, MilpAudit, StreamOnline, DesReplay)
}
