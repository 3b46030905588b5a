"""Tests for whole-cluster DES evaluation of dispatch plans."""

import numpy as np
import pytest

from repro.core.objective import evaluate_plan
from repro.core.optimizer import ProfitAwareOptimizer
from repro.des.cluster import ClusterSimulation, simulate_plan


@pytest.fixture
def planned(small_topology):
    arrivals = np.full((2, 2), 40.0)
    prices = np.array([0.05, 0.12])
    plan = ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices)
    return small_topology, plan, arrivals, prices


class TestClusterSimulation:
    def test_job_counts_match_rates(self, planned):
        _, plan, arrivals, prices = planned
        horizon = 50.0
        outcome = simulate_plan(plan, prices, slot_duration=horizon, seed=3)
        expected = plan.served_rates().sum() * horizon
        assert outcome.generated == pytest.approx(expected, rel=0.1)
        # Nearly all generated jobs complete once the queue drains.
        assert outcome.completed == outcome.generated

    def test_warmup_only_drops_jobs_from_sojourn_means(self, planned):
        # Warmup jobs still complete, earn revenue and cost money; only
        # the sojourn means leave them out.
        _, plan, arrivals, prices = planned
        full = simulate_plan(plan, prices, slot_duration=50.0, seed=3)
        half = simulate_plan(plan, prices, slot_duration=50.0, seed=3,
                             warmup_fraction=0.5)
        assert half.completed == half.generated == full.generated
        assert half.revenue_per_job == full.revenue_per_job
        assert half.energy_cost == full.energy_cost
        assert half.mean_sojourn != full.mean_sojourn

    def test_mean_sojourns_match_eq1(self, planned):
        _, plan, arrivals, prices = planned
        outcome = simulate_plan(plan, prices, slot_duration=120.0, seed=5,
                                warmup_fraction=0.1)
        assert outcome.mean_sojourn  # at least one VM measured
        assert outcome.max_delay_model_error < 0.15

    def test_simulated_profit_close_to_analytic(self, planned):
        _, plan, arrivals, prices = planned
        horizon = 120.0
        analytic = evaluate_plan(plan, arrivals, prices,
                                 slot_duration=horizon)
        outcome = simulate_plan(plan, prices, slot_duration=horizon, seed=7)
        assert outcome.net_profit_mean_delay == pytest.approx(
            analytic.net_profit, rel=0.1
        )

    def test_per_job_revenue_at_most_mean_delay_revenue(self, planned):
        # With a concave... actually step-downward TUF and the mean
        # sitting inside the top level, the sojourn tail can only lose
        # revenue relative to the mean-delay accounting.
        _, plan, arrivals, prices = planned
        outcome = simulate_plan(plan, prices, slot_duration=120.0, seed=9)
        assert outcome.revenue_per_job <= outcome.revenue_mean_delay + 1e-9

    def test_costs_scale_with_generated(self, planned):
        _, plan, arrivals, prices = planned
        short = simulate_plan(plan, prices, slot_duration=30.0, seed=1)
        long = simulate_plan(plan, prices, slot_duration=120.0, seed=1)
        assert long.energy_cost > 2 * short.energy_cost
        assert long.transfer_cost > 2 * short.transfer_cost

    def test_deterministic_given_seed(self, planned):
        _, plan, arrivals, prices = planned
        a = simulate_plan(plan, prices, slot_duration=40.0, seed=11)
        b = simulate_plan(plan, prices, slot_duration=40.0, seed=11)
        assert a.generated == b.generated
        assert a.revenue_per_job == pytest.approx(b.revenue_per_job)

    def test_seed_changes_realization(self, planned):
        _, plan, arrivals, prices = planned
        a = simulate_plan(plan, prices, slot_duration=40.0, seed=1)
        b = simulate_plan(plan, prices, slot_duration=40.0, seed=2)
        assert a.generated != b.generated

    def test_validation_errors(self, planned):
        _, plan, arrivals, prices = planned
        with pytest.raises(ValueError):
            ClusterSimulation(plan, slot_duration=0.0)
        with pytest.raises(ValueError):
            ClusterSimulation(plan, slot_duration=1.0, warmup_fraction=1.0)
        with pytest.raises(ValueError, match="prices"):
            simulate_plan(plan, np.array([0.1]), slot_duration=1.0)

    def test_overflowing_vm_rate_rejected(self, small_topology):
        # Two finite per-front-end rates whose sum overflows: the VM's
        # arrival rate is infinite and the simulation refuses to start.
        from repro.core.plan import DispatchPlan
        rates = np.zeros((2, 2, 5))
        rates[0, :, 0] = 1e308
        shares = np.zeros((2, 5))
        shares[0, 0] = 0.5
        plan = DispatchPlan(small_topology, rates, shares)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="rate must be finite"):
            simulate_plan(plan, np.array([0.1, 0.1]), slot_duration=1.0)

    def test_empty_plan(self, small_topology):
        from repro.core.plan import DispatchPlan
        plan = DispatchPlan.empty(small_topology)
        outcome = simulate_plan(plan, np.array([0.1, 0.1]), slot_duration=10.0)
        assert outcome.generated == 0
        assert outcome.net_profit_per_job == 0.0

    def test_multilevel_tail_effect(self, multilevel_topology):
        # Load a VM so the mean delay sits inside level 1 but near its
        # sub-deadline; the per-job accounting must earn strictly less
        # (tail jobs land in level 2 or miss entirely).
        arrivals = np.array([[9000.0], [8000.0]])
        prices = np.array([0.05, 0.09])
        plan = ProfitAwareOptimizer(multilevel_topology).plan_slot(
            arrivals, prices
        )
        outcome = simulate_plan(plan, prices, slot_duration=2.0, seed=4)
        assert outcome.revenue_per_job < outcome.revenue_mean_delay
        # ...but the optimistic accounting error stays bounded.
        assert outcome.revenue_per_job > 0.5 * outcome.revenue_mean_delay
