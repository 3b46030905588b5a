"""Warm-start equivalence harness.

The optimizer's warm-start layer (formulation caches + cross-slot
``SolverState`` reuse) is purely an acceleration: for the exact solve
paths, every slot must produce the same plan quality as a cold solve.
These tests pin that contract on deterministic scenarios; the
randomized counterpart lives in ``test_property_warmstart.py``.
"""

import numpy as np
import pytest

from repro.core.formulation import (
    FixedLevelLPCache,
    MultilevelMILPCache,
    SlotInputs,
    fixed_level_lp,
    multilevel_milp,
)
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.market.market import MultiElectricityMarket
from repro.market.prices import PriceTrace
from repro.sim.slotted import run_simulation
from repro.workload.traces import WorkloadTrace

REL_TOL = 1e-6


def _scenario(topology, num_slots=6, seed=7, low=10.0, high=60.0):
    """A deterministic trace/market pair sized to ``topology``."""
    rng = np.random.default_rng(seed)
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    trace = WorkloadTrace(rng.uniform(low, high, size=(K, S, num_slots)))
    market = MultiElectricityMarket([
        PriceTrace(f"m{l}", rng.uniform(0.04, 0.12, size=num_slots))
        for l in range(L)
    ])
    return trace, market


def _profits(topology, trace, market, **kwargs):
    dispatcher = ProfitAwareOptimizer(topology, config=OptimizerConfig(**kwargs))
    result = run_simulation(dispatcher, trace, market)
    return result.net_profit_series, dispatcher


def _assert_series_match(warm, cold):
    scale = np.maximum(np.abs(cold), 1.0)
    assert np.all(np.abs(warm - cold) <= REL_TOL * scale), (
        f"warm={warm}, cold={cold}"
    )


class TestLPEquivalence:
    @pytest.mark.parametrize("lp_method", ["highs", "simplex", "ipm"])
    @pytest.mark.parametrize("formulation", ["aggregated", "per_server"])
    def test_warm_matches_cold(self, small_topology, lp_method, formulation):
        trace, market = _scenario(small_topology)
        warm, _ = _profits(small_topology, trace, market,
                           lp_method=lp_method, formulation=formulation,
                           warm_start=True)
        cold, _ = _profits(small_topology, trace, market,
                           lp_method=lp_method, formulation=formulation,
                           warm_start=False)
        _assert_series_match(warm, cold)

    def test_single_class(self, single_class_topology):
        trace, market = _scenario(single_class_topology, low=50.0, high=300.0)
        warm, _ = _profits(single_class_topology, trace, market,
                           lp_method="simplex", warm_start=True)
        cold, _ = _profits(single_class_topology, trace, market,
                           lp_method="simplex", warm_start=False)
        _assert_series_match(warm, cold)


class TestMILPEquivalence:
    @pytest.mark.parametrize("milp_method", ["highs", "bb"])
    def test_warm_matches_cold(self, multilevel_topology, milp_method):
        trace, market = _scenario(multilevel_topology, num_slots=4,
                                  low=500.0, high=4000.0)
        warm, _ = _profits(multilevel_topology, trace, market,
                           milp_method=milp_method, warm_start=True)
        cold, _ = _profits(multilevel_topology, trace, market,
                           milp_method=milp_method, warm_start=False)
        _assert_series_match(warm, cold)

    def test_per_server(self, multilevel_topology):
        trace, market = _scenario(multilevel_topology, num_slots=3,
                                  low=500.0, high=4000.0)
        warm, _ = _profits(multilevel_topology, trace, market,
                           formulation="per_server", warm_start=True)
        cold, _ = _profits(multilevel_topology, trace, market,
                           formulation="per_server", warm_start=False)
        _assert_series_match(warm, cold)


class TestGreedyWarmStart:
    def test_warm_never_worse_than_seed(self, multilevel_topology):
        # Greedy is a local search, so warm and cold trajectories may
        # differ in principle; on these scenarios they agree, and the
        # warm value can never drop below its own seeded start.
        trace, market = _scenario(multilevel_topology, num_slots=4,
                                  low=500.0, high=4000.0)
        warm, _ = _profits(multilevel_topology, trace, market,
                           level_method="greedy", warm_start=True)
        cold, _ = _profits(multilevel_topology, trace, market,
                           level_method="greedy", warm_start=False)
        _assert_series_match(warm, cold)

    def test_warm_uses_fewer_lp_evaluations(self, multilevel_topology):
        trace, market = _scenario(multilevel_topology, num_slots=4,
                                  low=500.0, high=4000.0)
        warm = ProfitAwareOptimizer(multilevel_topology, config=OptimizerConfig(level_method="greedy", warm_start=True))
        cold = ProfitAwareOptimizer(multilevel_topology, config=OptimizerConfig(level_method="greedy", warm_start=False))
        warm_evals = cold_evals = 0
        for t in range(trace.num_slots):
            warm.plan_slot(trace.arrivals_at(t), market.prices_at(t))
            warm_evals += warm.last_stats.lp_evaluations
            cold.plan_slot(trace.arrivals_at(t), market.prices_at(t))
            cold_evals += cold.last_stats.lp_evaluations
        assert warm_evals <= cold_evals


class TestFormulationCache:
    def test_lp_cache_matches_fresh_build(self, small_topology):
        cache = FixedLevelLPCache(small_topology)
        rng = np.random.default_rng(0)
        for _ in range(5):
            inputs = SlotInputs(
                topology=small_topology,
                arrivals=rng.uniform(5.0, 80.0, size=(2, 2)),
                prices=rng.uniform(0.02, 0.15, size=2),
                slot_duration=float(rng.uniform(0.5, 2.0)),
            )
            fresh, _ = fixed_level_lp(inputs)
            cached, _ = cache.build(inputs)
            assert np.array_equal(fresh.c, cached.c)
            assert np.array_equal(fresh.a_ub, cached.a_ub)
            assert np.array_equal(fresh.b_ub, cached.b_ub)
            assert np.array_equal(fresh.lower, cached.lower)
            assert np.array_equal(fresh.upper, cached.upper)

    def test_milp_cache_matches_fresh_build(self, multilevel_topology):
        cache = MultilevelMILPCache(multilevel_topology)
        rng = np.random.default_rng(1)
        for _ in range(5):
            inputs = SlotInputs(
                topology=multilevel_topology,
                arrivals=rng.uniform(100.0, 5000.0, size=(2, 1)),
                prices=rng.uniform(0.02, 0.15, size=2),
            )
            fresh, _ = multilevel_milp(inputs)
            cached, _ = cache.build(inputs)
            assert np.array_equal(fresh.lp.c, cached.lp.c)
            assert np.array_equal(fresh.lp.a_ub, cached.lp.a_ub)
            assert np.array_equal(fresh.lp.b_ub, cached.lp.b_ub)
            assert np.array_equal(fresh.lp.a_eq, cached.lp.a_eq)
            assert np.array_equal(fresh.lp.b_eq, cached.lp.b_eq)
            assert np.array_equal(fresh.lp.upper, cached.lp.upper)
            assert np.array_equal(fresh.integer_mask, cached.integer_mask)

    def test_cached_problems_do_not_alias(self, multilevel_topology):
        cache = MultilevelMILPCache(multilevel_topology)
        rng = np.random.default_rng(2)

        def build(arr_scale):
            return cache.build(SlotInputs(
                topology=multilevel_topology,
                arrivals=np.full((2, 1), arr_scale),
                prices=rng.uniform(0.02, 0.15, size=2),
            ))[0]

        first = build(500.0)
        snapshot = first.lp.a_ub.copy()
        build(4000.0)  # second build patches the cache's internal matrix
        assert np.array_equal(first.lp.a_ub, snapshot)

    def test_cache_rejects_foreign_topology(self, small_topology,
                                            multilevel_topology):
        cache = FixedLevelLPCache(small_topology)
        inputs = SlotInputs(
            topology=multilevel_topology,
            arrivals=np.full((2, 1), 100.0),
            prices=np.full(2, 0.05),
        )
        with pytest.raises(ValueError, match="topology"):
            cache.build(inputs)


class TestWarmStateLifecycle:
    def test_warm_started_flag(self, small_topology):
        trace, market = _scenario(small_topology, num_slots=3)
        dispatcher = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(lp_method="simplex", warm_start=True))
        flags = []
        for t in range(3):
            dispatcher.plan_slot(trace.arrivals_at(t), market.prices_at(t))
            flags.append(dispatcher.last_stats.warm_start in ("hit", "miss"))
        assert flags == [False, True, True]

    def test_cold_never_flags(self, small_topology):
        trace, market = _scenario(small_topology, num_slots=2)
        dispatcher = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(lp_method="simplex", warm_start=False))
        for t in range(2):
            dispatcher.plan_slot(trace.arrivals_at(t), market.prices_at(t))
            assert dispatcher.last_stats.warm_start == "off"

    def test_reset_warm_state_restores_reproducibility(self, small_topology):
        trace, market = _scenario(small_topology)
        dispatcher = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(lp_method="simplex", warm_start=True))
        first = run_simulation(dispatcher, trace, market).net_profit_series
        # run_simulation resets the dispatcher itself; a second run must
        # reproduce the first bit for bit.
        second = run_simulation(dispatcher, trace, market).net_profit_series
        assert np.array_equal(first, second)
        dispatcher.reset_warm_state()
        dispatcher.plan_slot(trace.arrivals_at(0), market.prices_at(0))
        assert dispatcher.last_stats.warm_start == "cold"


class TestRegressionNeverDegrades:
    """Warm-starting must never cost profit on the seed experiments."""

    @pytest.mark.parametrize("topology_fixture,kwargs", [
        ("small_topology", {}),
        ("small_topology", {"lp_method": "simplex"}),
        ("multilevel_topology", {}),
        ("multilevel_topology", {"milp_method": "bb"}),
    ])
    def test_total_profit(self, request, topology_fixture, kwargs):
        topology = request.getfixturevalue(topology_fixture)
        low, high = ((500.0, 4000.0)
                     if topology_fixture == "multilevel_topology"
                     else (10.0, 60.0))
        trace, market = _scenario(topology, num_slots=4, low=low, high=high)
        warm, _ = _profits(topology, trace, market, warm_start=True, **kwargs)
        cold, _ = _profits(topology, trace, market, warm_start=False, **kwargs)
        assert warm.sum() >= cold.sum() - REL_TOL * max(abs(cold.sum()), 1.0)
