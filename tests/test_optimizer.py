"""Tests for ProfitAwareOptimizer (all solve paths and formulations)."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter
from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.sim.failures import degraded_topology


def profits(topology, optimizer, arrivals, prices):
    plan = optimizer.plan_slot(arrivals, prices)
    return evaluate_plan(plan, arrivals, prices).net_profit


class TestConstruction:
    def test_rejects_unknown_method(self, small_topology):
        with pytest.raises(ValueError, match="level_method"):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(level_method="magic"))

    def test_rejects_unknown_formulation(self, small_topology):
        with pytest.raises(ValueError, match="formulation"):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(formulation="magic"))

    def test_lp_refused_for_multilevel(self, multilevel_topology):
        opt = ProfitAwareOptimizer(multilevel_topology, config=OptimizerConfig(level_method="lp"))
        with pytest.raises(ValueError, match="one-level"):
            opt.plan_slot(np.array([[100.0], [100.0]]), np.array([0.1, 0.1]))


class TestOneLevelPaths:
    def test_auto_selects_lp(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        opt.plan_slot(np.full((2, 2), 40.0), np.array([0.1, 0.1]))
        assert opt.last_stats.method == "lp"

    def test_plan_feasible_and_profitable(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        opt = ProfitAwareOptimizer(small_topology)
        plan = opt.plan_slot(arrivals, prices)
        assert plan.meets_deadlines()
        out = evaluate_plan(plan, arrivals, prices)
        assert out.net_profit > 0

    @pytest.mark.parametrize("formulation", ["aggregated", "per_server"])
    @pytest.mark.parametrize("lp_method", ["highs", "simplex"])
    def test_all_lp_paths_agree(self, small_topology, formulation, lp_method):
        arrivals = np.full((2, 2), 60.0)
        prices = np.array([0.05, 0.12])
        reference = profits(
            small_topology,
            ProfitAwareOptimizer(small_topology),
            arrivals, prices,
        )
        value = profits(
            small_topology,
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(formulation=formulation, lp_method=lp_method)),
            arrivals, prices,
        )
        assert value == pytest.approx(reference, rel=1e-6)

    def test_optimizer_at_least_matches_any_feasible_plan(self, small_topology):
        from repro.core.baselines import BalancedDispatcher
        arrivals = np.full((2, 2), 80.0)
        prices = np.array([0.04, 0.15])
        opt_profit = profits(
            small_topology, ProfitAwareOptimizer(small_topology),
            arrivals, prices,
        )
        balanced = BalancedDispatcher(small_topology)
        bal_plan = balanced.plan_slot(arrivals, prices)
        bal_profit = evaluate_plan(bal_plan, arrivals, prices).net_profit
        assert opt_profit >= bal_profit - 1e-6


class TestMultiLevelPaths:
    @pytest.fixture
    def setup(self, multilevel_topology):
        arrivals = np.array([[9000.0], [8000.0]])
        prices = np.array([0.05, 0.09])
        return multilevel_topology, arrivals, prices

    def test_auto_selects_level_search(self, setup):
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(topo)
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.method == "levels"
        assert opt.last_stats.fallback_stage == "levels"
        assert opt.last_stats.nodes >= 1
        assert opt.last_stats.num_variables > 0

    def test_auto_per_server_selects_milp(self, setup):
        # Per-server level vectors may mix levels inside a data center,
        # which the aggregated level search cannot express.
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(formulation="per_server"))
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.method == "milp"
        assert opt.last_stats.fallback_stage == "milp"

    def test_milp_bb_matches_highs(self, setup):
        topo, arrivals, prices = setup
        a = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="milp", milp_method="highs")), arrivals, prices)
        b = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="milp", milp_method="bb")), arrivals, prices)
        assert a == pytest.approx(b, rel=1e-6)

    def test_level_search_matches_milp(self, setup):
        topo, arrivals, prices = setup
        search = ProfitAwareOptimizer(topo)
        milp = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(level_method="milp"))
        search.plan_slot(arrivals, prices)
        milp.plan_slot(arrivals, prices)
        assert search.last_stats.objective == pytest.approx(
            milp.last_stats.objective, rel=1e-9)

    def test_greedy_close_to_milp(self, setup):
        topo, arrivals, prices = setup
        exact = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        greedy = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="greedy")),
                         arrivals, prices)
        assert greedy >= 0.9 * exact
        assert greedy <= exact + 1e-6

    def test_bigm_close_to_milp(self, setup):
        topo, arrivals, prices = setup
        exact = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        bigm = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="bigm")),
                       arrivals, prices)
        assert bigm >= 0.8 * exact

    def test_per_server_milp_at_least_matches_aggregated(self, setup):
        # The aggregated MILP targets ONE TUF level per (class, DC); the
        # per-server layout may mix levels across a DC's servers, so it
        # can only do better (and usually only marginally so).
        topo, arrivals, prices = setup
        agg = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        per = profits(
            topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(formulation="per_server")),
            arrivals, prices,
        )
        assert per >= agg - 1e-6
        assert per == pytest.approx(agg, rel=1e-2)

    def test_greedy_stats_expose_lp_evaluations(self, setup):
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="greedy"))
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.lp_evaluations >= 1

    @pytest.mark.parametrize("level_method", ["auto", "milp", "greedy", "bigm"])
    def test_recorded_objective_is_plan_profit(self, setup, level_method):
        # Without the spare-capacity pass the returned plan is the one
        # the stage scored, so the record's objective is its profit.
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method=level_method, use_spare_capacity=False))
        plan = opt.plan_slot(arrivals, prices)
        assert opt.last_stats.objective == pytest.approx(
            evaluate_plan(plan, arrivals, prices).net_profit, rel=1e-6)
        if level_method != "bigm":
            assert opt.last_stats.num_variables > 0
            assert opt.last_stats.num_constraints > 0


class TestConsolidation:
    def test_consolidated_plan_uses_fewer_servers(self, small_topology):
        arrivals = np.full((2, 2), 10.0)  # light load
        prices = np.array([0.05, 0.12])
        spread = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(consolidate=False))
        packed = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(consolidate=True))
        plan_spread = spread.plan_slot(arrivals, prices)
        plan_packed = packed.plan_slot(arrivals, prices)
        assert (plan_packed.powered_on_per_dc().sum()
                <= plan_spread.powered_on_per_dc().sum())
        # Consolidation must not change net profit (per-request energy).
        a = evaluate_plan(plan_spread, arrivals, prices).net_profit
        b = evaluate_plan(plan_packed, arrivals, prices).net_profit
        assert b == pytest.approx(a, rel=1e-6)


class TestExplodeTopology:
    """``CloudTopology.per_server``: the topology the per-server
    formulation solves on."""

    def test_structure(self, small_topology):
        exploded = small_topology.per_server()
        assert exploded.num_datacenters == small_topology.num_servers
        assert all(dc.num_servers == 1 for dc in exploded.datacenters)
        assert exploded.num_classes == small_topology.num_classes
        assert [dc.name for dc in exploded.datacenters] == [
            "dc1#srv0", "dc1#srv1", "dc1#srv2", "dc2#srv0", "dc2#srv1",
        ]

    def test_distances_replicated(self, small_topology):
        exploded = small_topology.per_server()
        # First 3 columns replicate dc1's distances, last 2 dc2's.
        assert np.allclose(exploded.distances[:, 0],
                           small_topology.distances[:, 0])
        assert np.allclose(exploded.distances[:, 4],
                           small_topology.distances[:, 1])

    def test_keeps_every_datacenter_field(self, small_topology):
        # Every field but the name and the server count carries over,
        # idle power included.
        topo = small_topology.with_datacenters([
            replace(dc, server_capacity=1.5 + l, pue=1.2 + l,
                    idle_power_kw=0.2 + l)
            for l, dc in enumerate(small_topology.datacenters)
        ])
        exploded = topo.per_server()
        dc_of = topo.arrays.dc_of_server
        for n, dc in enumerate(exploded.datacenters):
            source = topo.datacenters[dc_of[n]]
            for f in fields(DataCenter):
                if f.name not in ("name", "num_servers"):
                    assert np.array_equal(getattr(dc, f.name),
                                          getattr(source, f.name)), f.name

    def test_full_outage_plans_nothing(self, small_topology):
        # A fleet without a server up has no per-server topology; the
        # per-server formulation still plans the slot, dispatching
        # nothing, as the aggregated one does.
        topo = degraded_topology(small_topology, [0, 0])
        for method in ("lp", "milp", "greedy"):
            opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
                formulation="per_server", level_method=method))
            plan = opt.plan_slot(np.full((2, 2), 10.0), np.array([0.1, 0.2]))
            assert plan.rates.size == 0
            assert opt.last_stats.fallback == 0
            assert opt.last_stats.objective == 0.0

    def test_optimizer_builds_it_once(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(
            formulation="per_server"))
        opt.plan_slot(np.full((2, 2), 10.0), np.array([0.1, 0.2]))
        built = opt._per_server_topology
        opt.plan_slot(np.full((2, 2), 20.0), np.array([0.2, 0.1]))
        assert opt._per_server_topology is built
        assert opt.last_stats.num_variables == 5 * 2 * 2 + 5 * 2


class TestLastStats:
    def test_total_time_recorded(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        opt.plan_slot(np.full((2, 2), 10.0), np.array([0.1, 0.1]))
        assert opt.last_stats.total_time > 0
        assert opt.last_stats.formulation == "aggregated"
        assert opt.last_stats.objective > 0
