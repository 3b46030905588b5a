"""Tests for the fault-tolerant slot pipeline (fallback chain).

Covers the ISSUE acceptance points: an injected always-failing primary
solver still completes every slot with a feasible plan, the winning
chain position lands in the slot trace's ``fallback``/
``fallback_stage``/``failure`` fields (JSONL round-trip included),
and ``fallback=False`` restores the old raise-on-failure behaviour.
"""

import numpy as np
import pytest

from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.market.market import MultiElectricityMarket
from repro.market.prices import PriceTrace
from repro.obs import InMemoryCollector, SlotTrace, read_traces, write_traces
from repro.sim.slotted import run_simulation
from repro.solvers.base import SolverError
from repro.workload.traces import WorkloadTrace

#: Reliable fault injection: a 1-iteration simplex budget cannot finish
#: phase 1 on any non-trivial slot LP, so the primary stage always fails.
FAILING = dict(lp_method="simplex", solver_iteration_budget=1)


@pytest.fixture
def slot(small_topology):
    rng = np.random.default_rng(11)
    arrivals = rng.uniform(10.0, 60.0, size=(2, 2))
    prices = np.array([0.08, 0.06])
    return small_topology, arrivals, prices


@pytest.fixture
def setup(small_topology):
    rng = np.random.default_rng(4)
    trace = WorkloadTrace(rng.uniform(10.0, 60.0, size=(2, 2, 5)))
    market = MultiElectricityMarket([
        PriceTrace("a", rng.uniform(0.04, 0.12, size=5)),
        PriceTrace("b", rng.uniform(0.04, 0.12, size=5)),
    ])
    return small_topology, trace, market


class TestConfigValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="fallback_retries"):
            OptimizerConfig(fallback_retries=-1)

    def test_zero_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="solver_iteration_budget"):
            OptimizerConfig(solver_iteration_budget=0)

    def test_nonpositive_time_budget_rejected(self):
        with pytest.raises(ValueError, match="fallback_time_budget"):
            OptimizerConfig(fallback_time_budget=0.0)


class TestFallbackChain:
    def test_clean_solve_is_level_zero(self, slot):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(topo)
        optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_level == 0
        assert stats.failure == ""

    def test_failing_primary_rescued_by_alternate_backend(self, slot):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(**FAILING)
        )
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_level == 1
        assert stats.fallback_stage == "lp:highs"
        assert "iteration" in stats.failure
        assert plan.meets_deadlines()

    def test_fallback_matches_direct_alternate_solve(self, slot):
        # The rescue stage runs the exact same solve the alternate
        # backend would have run directly, so objectives agree.
        topo, arrivals, prices = slot
        rescued = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(**FAILING)
        )
        rescued.plan_slot(arrivals, prices)
        direct = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(lp_method="highs")
        )
        direct.plan_slot(arrivals, prices)
        assert rescued.last_stats.objective == pytest.approx(
            direct.last_stats.objective, rel=1e-6
        )

    def test_fallback_disabled_raises(self, slot):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(fallback=False, **FAILING)
        )
        with pytest.raises(SolverError):
            optimizer.plan_slot(arrivals, prices)

    def test_chain_order_reaches_greedy(self, slot, monkeypatch):
        # Exact LP backends all fail -> the greedy level search is next.
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(topo)

        def boom(*args, **kwargs):
            raise SolverError("injected LP failure")

        monkeypatch.setattr(optimizer, "_solve_lp", boom)
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_stage == "greedy"
        assert stats.fallback_level == 2
        assert stats.failure.count("injected LP failure") >= 2
        assert plan.meets_deadlines()

    def test_balanced_is_last_resort(self, slot, monkeypatch):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(topo)

        def boom(*args, **kwargs):
            raise SolverError("injected solver failure")

        monkeypatch.setattr(optimizer, "_solve_lp", boom)
        monkeypatch.setattr(optimizer, "_solve_greedy", boom)
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_stage == "balanced"
        assert plan.meets_deadlines()
        assert np.isfinite(stats.objective)

    def test_multilevel_milp_rescued(self, multilevel_topology, monkeypatch):
        # Both MILP backends fail -> the chain lands on greedy, which
        # handles multi-level TUFs natively.
        rng = np.random.default_rng(6)
        arrivals = rng.uniform(500.0, 2000.0, size=(2, 1))
        prices = np.array([0.08, 0.06])
        optimizer = ProfitAwareOptimizer(
            multilevel_topology, config=OptimizerConfig(level_method="milp")
        )

        def boom(*args, **kwargs):
            raise SolverError("injected MILP failure")

        monkeypatch.setattr(optimizer, "_solve_milp", boom)
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_stage == "greedy"
        assert plan.meets_deadlines()

    def test_level_search_rescued_by_milp(self, multilevel_topology,
                                          monkeypatch):
        # The default multi-level stage fails -> the HiGHS MILP rescues
        # the slot with the same optimum.
        arrivals = np.array([[9000.0], [8000.0]])
        prices = np.array([0.05, 0.09])
        optimizer = ProfitAwareOptimizer(multilevel_topology)

        def boom(*args, **kwargs):
            raise SolverError("injected level search failure")

        monkeypatch.setattr(optimizer, "_solve_levels", boom)
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.method == "levels"
        assert stats.fallback == 1
        assert stats.fallback_stage == "milp:highs"
        assert "injected level search failure" in stats.failure
        assert plan.meets_deadlines()
        reference = ProfitAwareOptimizer(multilevel_topology)
        reference.plan_slot(arrivals, prices)
        assert stats.objective == pytest.approx(
            reference.last_stats.objective, rel=1e-9)

    def test_level_search_node_budget_falls_back(self, multilevel_topology):
        # One oracle call cannot exhaust the level tree.
        optimizer = ProfitAwareOptimizer(
            multilevel_topology,
            config=OptimizerConfig(solver_iteration_budget=1),
        )
        optimizer.plan_slot(np.array([[9000.0], [8000.0]]),
                            np.array([0.05, 0.09]))
        stats = optimizer.last_stats
        assert stats.fallback_stage == "milp:highs"
        assert "node budget" in stats.failure

    def test_each_stage_gets_configured_retries(self, slot, monkeypatch):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(fallback_retries=2)
        )
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise SolverError("injected")

        monkeypatch.setattr(optimizer, "_solve_lp", boom)
        optimizer.plan_slot(arrivals, prices)
        # Primary "lp" and rescue "lp:simplex" both route through
        # _solve_lp: 2 stages x (1 + 2 retries) attempts.
        assert len(calls) == 6

    def test_time_budget_skips_to_balanced(self, slot):
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(
            topo,
            config=OptimizerConfig(
                fallback_time_budget=1e-9, fallback_retries=0, **FAILING
            ),
        )
        plan = optimizer.plan_slot(arrivals, prices)
        stats = optimizer.last_stats
        assert stats.fallback_stage == "balanced"
        assert "skipped" in stats.failure
        assert plan.meets_deadlines()

    def test_slot_counter_survives_fallback(self, slot):
        # Cold retries drop solver state but must not rewind the trace
        # slot counter (reset_warm_state does both).
        topo, arrivals, prices = slot
        optimizer = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(**FAILING)
        )
        optimizer.plan_slot(arrivals, prices)
        optimizer.plan_slot(arrivals, prices)
        assert optimizer.slot_index == 2
        optimizer.reset_warm_state()
        assert optimizer.slot_index == 0


class TestFallbackRun:
    def test_always_failing_primary_completes_run(self, setup):
        # The ISSUE acceptance scenario: every slot's primary solve
        # fails, yet the run completes with feasible plans and per-slot
        # fallback levels in the traces.
        topo, trace, market = setup
        collector = InMemoryCollector()
        optimizer = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(**FAILING)
        )
        result = run_simulation(
            optimizer, trace, market, collector=collector
        )
        assert result.num_slots == trace.num_slots
        for record in result.records:
            assert record.plan.meets_deadlines()
        traces = collector.slot_traces
        assert len(traces) == trace.num_slots
        assert all(t.fallback >= 1 for t in traces)
        assert all(t.failure for t in traces)
        assert all(t.fallback_stage == "lp:highs" for t in traces)
        assert collector.fallback_counts() == {1: trace.num_slots}

    def test_fallback_run_matches_alternate_backend_run(self, setup):
        topo, trace, market = setup
        rescued = run_simulation(
            ProfitAwareOptimizer(topo, config=OptimizerConfig(**FAILING)),
            trace, market,
        )
        direct = run_simulation(
            ProfitAwareOptimizer(
                topo, config=OptimizerConfig(lp_method="highs")
            ),
            trace, market,
        )
        assert np.allclose(rescued.net_profit_series,
                           direct.net_profit_series, rtol=1e-6)

    def test_traces_round_trip_with_fallback_fields(self, setup, tmp_path):
        topo, trace, market = setup
        collector = InMemoryCollector()
        run_simulation(
            ProfitAwareOptimizer(topo, config=OptimizerConfig(**FAILING)),
            trace, market, num_slots=3, collector=collector,
        )
        path = tmp_path / "traces.jsonl"
        write_traces(collector.slot_traces, path)
        again = read_traces(path)
        assert again == collector.slot_traces
        assert all(t.fallback == 1 for t in again)

    def test_old_trace_dicts_default_to_no_fallback(self):
        # Pre-fallback JSONL records lack the new fields; they must
        # still load, defaulting to "no fallback, no failure".
        d = dict(
            slot=0, method="lp", formulation="aggregated",
            warm_start="hit", objective=1.0, total_time=0.01,
            phase_times={}, iterations=3, nodes=0, lp_evaluations=0,
            num_variables=4, num_constraints=2, residuals={},
        )
        t = SlotTrace.from_dict(d)
        assert t.fallback == 0
        assert t.failure == ""

    def test_negative_fallback_rejected(self):
        with pytest.raises(ValueError, match="fallback"):
            SlotTrace(
                slot=0, method="lp", formulation="aggregated",
                warm_start="hit", objective=1.0, total_time=0.01,
                phase_times={}, iterations=0, nodes=0, lp_evaluations=0,
                num_variables=0, num_constraints=0, residuals={},
                fallback=-1,
            )


class TestFallbackCLI:
    def test_trace_reports_fallback_levels(self, capsys):
        from repro.cli import main
        assert main(["trace", "--scenario", "section6", "--slots", "3",
                     "--lp-method", "simplex",
                     "--iteration-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "fallback levels:" in out
        assert "level1=3" in out

    def test_trace_rejects_bad_budget(self, capsys):
        from repro.cli import main
        assert main(["trace", "--iteration-budget", "0"]) == 2
        assert "--iteration-budget" in capsys.readouterr().err
