"""Tests for the repro.obs telemetry layer.

Covers the ISSUE acceptance points: collector merge semantics (a
serial traced run equals the merged parallel aggregate), SlotTrace
JSONL round-trips, phase-time consistency, the optimizer's one record
per solve, and the no-op overhead guard for the NullCollector default.
"""

import json
import time

import numpy as np
import pytest

from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.market.market import MultiElectricityMarket
from repro.market.prices import PriceTrace
from repro.obs import (
    NULL_COLLECTOR,
    Collector,
    InMemoryCollector,
    NullCollector,
    SlotTrace,
    TimerStats,
    read_traces,
    write_traces,
)
from repro.sim.parallel import DispatcherSpec, parallel_run_simulation
from repro.sim.slotted import run_simulation
from repro.workload.traces import WorkloadTrace


def _trace(slot=0, **overrides):
    base = dict(
        slot=slot,
        method="lp",
        formulation="aggregated",
        warm_start="hit",
        objective=123.5,
        total_time=0.01,
        phase_times={"build": 0.002, "solve": 0.006, "postprocess": 0.001},
        iterations=17,
        nodes=0,
        lp_evaluations=0,
        num_variables=8,
        num_constraints=5,
        residuals={"ineq": 1e-12, "eq": 0.0},
    )
    base.update(overrides)
    return SlotTrace(**base)


@pytest.fixture
def setup(small_topology):
    rng = np.random.default_rng(7)
    trace = WorkloadTrace(rng.uniform(10.0, 60.0, size=(2, 2, 6)))
    market = MultiElectricityMarket([
        PriceTrace("a", rng.uniform(0.04, 0.12, size=6)),
        PriceTrace("b", rng.uniform(0.04, 0.12, size=6)),
    ])
    return small_topology, trace, market


class TestSlotTrace:
    def test_json_round_trip(self):
        t = _trace(slot=3, warm_start="miss", nodes=4)
        again = SlotTrace.from_json(t.to_json())
        assert again == t

    def test_jsonl_file_round_trip(self, tmp_path):
        traces = [_trace(slot=i, objective=float(i)) for i in range(5)]
        path = tmp_path / "traces.jsonl"
        assert write_traces(traces, path) == 5
        assert read_traces(path) == traces
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            assert json.loads(line)["method"] == "lp"

    def test_append_mode(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_traces([_trace(slot=0)], path)
        write_traces([_trace(slot=1)], path, append=True)
        assert [t.slot for t in read_traces(path)] == [0, 1]

    def test_unknown_warm_outcome_rejected(self):
        with pytest.raises(ValueError, match="warm_start"):
            _trace(warm_start="lukewarm")

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            _trace(slot=-1)

    def test_from_dict_ignores_unknown_keys(self):
        d = _trace().to_dict()
        d["future_field"] = "whatever"
        assert SlotTrace.from_dict(d) == _trace()

    def test_phase_time_total(self):
        assert _trace().phase_time_total == pytest.approx(0.009)

    def test_line_without_stage_fields_loads_with_defaults(self):
        # JSONL written before fallback_stage/active_servers existed.
        d = _trace(fallback=1).to_dict()
        del d["fallback_stage"], d["active_servers"]
        t = SlotTrace.from_json(json.dumps(d))
        assert t.fallback_stage == ""
        assert t.active_servers == 0
        assert t.fallback_level == t.fallback == 1

    def test_stage_fields_round_trip(self, tmp_path):
        t = _trace(fallback=2, fallback_stage="greedy", active_servers=7)
        path = tmp_path / "t.jsonl"
        write_traces([t], path)
        assert read_traces(path) == [t]


class TestTimerStats:
    def test_add_and_mean(self):
        s = TimerStats()
        s.add(0.2)
        s.add(0.4)
        assert s.count == 2
        assert s.mean == pytest.approx(0.3)
        assert s.min == pytest.approx(0.2)
        assert s.max == pytest.approx(0.4)

    def test_merge(self):
        a, b = TimerStats(), TimerStats()
        a.add(0.1)
        b.add(0.5)
        a.merge(b)
        assert a.count == 2
        assert a.total == pytest.approx(0.6)
        assert a.max == pytest.approx(0.5)


class TestInMemoryCollector:
    def test_counters_and_histograms(self):
        c = InMemoryCollector()
        c.increment("x")
        c.increment("x", 4.0)
        c.observe("h", 1.0)
        c.observe("h", 2.0)
        assert c.counters["x"] == 5.0
        assert c.histograms["h"] == [1.0, 2.0]

    def test_timer_context_manager(self):
        c = InMemoryCollector()
        with c.timer("t"):
            pass
        assert c.timers["t"].count == 1
        assert c.timers["t"].total >= 0.0

    def test_merge_is_aggregation(self):
        a, b = InMemoryCollector(), InMemoryCollector()
        a.increment("n", 2)
        b.increment("n", 3)
        a.observe_time("t", 0.1)
        b.observe_time("t", 0.3)
        b.record_slot(_trace(slot=1))
        a.record_slot(_trace(slot=4))
        a.merge(b)
        assert a.counters["n"] == 5.0
        assert a.timers["t"].count == 2
        # Traces re-sorted into slot order at the merge.
        assert [t.slot for t in a.slot_traces] == [1, 4]

    def test_summary_shape(self):
        c = InMemoryCollector()
        c.increment("n")
        c.record_slot(_trace(warm_start="hit"))
        s = c.summary()
        assert s["counters"] == {"n": 1.0}
        assert s["slots"] == 1
        assert s["warm_start"] == {"hit": 1}

    def test_satisfies_protocol(self):
        assert isinstance(InMemoryCollector(), Collector)
        assert isinstance(NullCollector(), Collector)


class TestSerialEqualsParallelAggregate:
    def test_merge_semantics(self, setup):
        """A chunked parallel run merges to the serial trace structure.

        Wall times differ run to run, and chunk boundaries restart the
        warm chain, so the comparison is on warm-independent structure:
        with warm_start=False every slot's (slot, method, objective)
        triple and the non-timing counters must agree exactly.
        """
        topo, trace, market = setup
        config = OptimizerConfig(lp_method="simplex", warm_start=False)

        serial = InMemoryCollector()
        run_simulation(
            ProfitAwareOptimizer(topo, config=config), trace, market,
            collector=serial,
        )
        merged = InMemoryCollector()
        parallel_run_simulation(
            topo, DispatcherSpec("optimized", {"config": config}),
            trace, market, workers=3, collector=merged,
        )

        def key(c):
            return [(t.slot, t.method, t.warm_start,
                     t.iterations, round(t.objective, 6))
                    for t in c.slot_traces]

        assert key(merged) == key(serial)
        assert len(merged.slot_traces) == len(serial.slot_traces)
        assert merged.counters["simplex.pivots"] == \
            serial.counters["simplex.pivots"]

    def test_parallel_traces_cover_all_slots_in_order(self, setup):
        topo, trace, market = setup
        merged = InMemoryCollector()
        parallel_run_simulation(
            topo,
            DispatcherSpec("optimized",
                           {"config": OptimizerConfig(lp_method="simplex")}),
            trace, market, workers=2, collector=merged,
        )
        assert [t.slot for t in merged.slot_traces] == list(range(6))


#: One slot per solve path: topology fixture, arrivals, config
#: keywords, and the stage that must produce the plan.
ONE_RECORD_CASES = {
    "dense_lp": ("small_topology", np.full((2, 2), 40.0), {}, "lp"),
    "sparse": ("small_topology", np.full((2, 2), 40.0), {"sparse": True},
               "lp"),
    "levels": ("multilevel_topology", np.array([[9000.0], [8000.0]]), {},
               "levels"),
    "milp": ("multilevel_topology", np.array([[9000.0], [8000.0]]),
             {"level_method": "milp"}, "milp"),
    "fallback": ("small_topology", np.full((2, 2), 40.0),
                 {"lp_method": "simplex", "solver_iteration_budget": 1},
                 "lp:highs"),
}


class TestOneRecord:
    @pytest.fixture(params=sorted(ONE_RECORD_CASES))
    def case(self, request):
        fixture, arrivals, kwargs, stage = ONE_RECORD_CASES[request.param]
        topo = request.getfixturevalue(fixture)
        return topo, arrivals, np.array([0.05, 0.09]), kwargs, stage

    def test_last_stats_is_the_recorded_trace(self, case):
        topo, arrivals, prices, kwargs, stage = case
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(collector=collector, **kwargs)
        )
        for _ in range(2):
            opt.plan_slot(arrivals, prices)
            assert opt.last_stats is collector.slot_traces[-1]
            assert opt.last_stats.fallback_stage == stage
        assert len(collector.slot_traces) == 2

    def test_record_without_telemetry_matches_traced_one(self, case):
        topo, arrivals, prices, kwargs, _ = case
        records = []
        for collector in (NullCollector(), InMemoryCollector()):
            opt = ProfitAwareOptimizer(
                topo, config=OptimizerConfig(collector=collector, **kwargs)
            )
            for _ in range(2):  # the second slot sees warm state
                opt.plan_slot(arrivals, prices)
            assert isinstance(opt.last_stats, SlotTrace)
            records.append(opt.last_stats.to_dict())
        off, on = records
        assert off.pop("residuals") == {}
        assert on.pop("residuals")
        assert off.pop("phase_times").keys() == on.pop("phase_times").keys()
        del off["total_time"], on["total_time"]
        assert off == on


class TestTracedRun:
    def test_phase_times_bounded_by_total(self, setup):
        topo, trace, market = setup
        collector = InMemoryCollector()
        run_simulation(
            ProfitAwareOptimizer(
                topo, config=OptimizerConfig(lp_method="simplex")),
            trace, market, collector=collector,
        )
        assert len(collector.slot_traces) == 6
        for t in collector.slot_traces:
            assert t.phase_time_total <= t.total_time + 1e-9

    def test_warm_hits_recorded(self, setup):
        topo, trace, market = setup
        collector = InMemoryCollector()
        run_simulation(
            ProfitAwareOptimizer(
                topo, config=OptimizerConfig(lp_method="simplex")),
            trace, market, collector=collector,
        )
        counts = collector.warm_start_counts()
        assert counts.get("cold", 0) >= 1       # first slot has no state
        assert counts.get("hit", 0) >= 1        # simplex re-uses the basis
        assert counts.get("off", 0) == 0
        assert collector.counters["controller.slots"] == 6
        assert collector.timers["controller.plan_slot"].count == 6

    def test_run_collector_restored_afterwards(self, setup):
        # run_simulation installs its collector on the dispatcher for
        # the duration of the run only; the dispatcher's own collector
        # comes back afterwards, even if the run blows up mid-loop.
        topo, trace, market = setup
        own = InMemoryCollector()
        dispatcher = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(collector=own)
        )
        run_collector = InMemoryCollector()
        run_simulation(dispatcher, trace, market, num_slots=2,
                       collector=run_collector)
        assert dispatcher.collector is own
        assert len(run_collector.slot_traces) == 2
        assert own.slot_traces == []

        class Boom(Exception):
            pass

        bad_market = MultiElectricityMarket([
            PriceTrace("a", np.array([0.08])),
            PriceTrace("b", np.array([0.08])),
        ])
        original_prices_at = bad_market.prices_at

        def explode(t):
            raise Boom()

        bad_market.prices_at = explode
        with pytest.raises(Boom):
            run_simulation(dispatcher, trace, bad_market, num_slots=1,
                           collector=run_collector)
        bad_market.prices_at = original_prices_at
        assert dispatcher.collector is own


class TestNoOpOverhead:
    def test_null_collector_is_shared_singletons(self):
        a, b = NullCollector(), NULL_COLLECTOR
        assert a.timer("x") is b.timer("y")  # one process-wide timer
        assert NULL_COLLECTOR.enabled is False

    def test_default_run_records_nothing(self, setup):
        topo, trace, market = setup
        opt = ProfitAwareOptimizer(topo)
        assert opt.collector.enabled is False
        run_simulation(opt, trace, market)
        # Still the inert default, not silently swapped.
        assert isinstance(opt.collector, NullCollector)

    def test_null_calls_are_cheap(self):
        """Generous absolute guard: ~40k no-op calls well under 0.5 s."""
        c = NULL_COLLECTOR
        start = time.perf_counter()
        for _ in range(10_000):
            c.increment("a")
            c.observe("b", 1.0)
            c.observe_time("c", 0.1)
            with c.timer("d"):
                pass
        assert time.perf_counter() - start < 0.5
