"""Tests for the idle-power extension (beyond the paper's energy model)."""

import dataclasses

import numpy as np
import pytest

from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.rightsizing import consolidate_plan
from repro.experiments.section6 import section6_experiment
from repro.sim.slotted import run_simulation


def with_idle(topology, idle_kw):
    return topology.with_datacenters([
        dataclasses.replace(dc, idle_power_kw=idle_kw)
        for dc in topology.datacenters
    ])


class TestIdleCostAccounting:
    def test_zero_idle_reproduces_paper(self, small_topology):
        arrivals = np.full((2, 2), 30.0)
        prices = np.array([0.1, 0.1])
        plan = ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices)
        out = evaluate_plan(plan, arrivals, prices)
        assert out.idle_cost == 0.0

    def test_idle_cost_hand_computed(self, small_topology):
        topo = with_idle(small_topology, idle_kw=0.4)
        arrivals = np.full((2, 2), 30.0)
        prices = np.array([0.10, 0.20])
        plan = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        out = evaluate_plan(plan, arrivals, prices, slot_duration=2.0)
        powered = plan.powered_on_per_dc()
        expected = (0.4 * powered[0] * 2.0 * 0.10
                    + 0.4 * powered[1] * 2.0 * 0.20)
        assert out.idle_cost == pytest.approx(expected)
        assert out.total_cost == pytest.approx(
            out.energy_cost + out.transfer_cost + out.idle_cost
        )

    def test_idle_energy_counted_in_kwh(self, small_topology):
        topo = with_idle(small_topology, idle_kw=0.4)
        arrivals = np.full((2, 2), 30.0)
        prices = np.array([0.1, 0.1])
        plan = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        base = evaluate_plan(plan, arrivals, prices)
        plain = evaluate_plan(
            ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices),
            arrivals, prices,
        )
        assert base.energy_kwh > plain.energy_kwh

    def test_pue_multiplies_idle(self, small_topology):
        topo = with_idle(small_topology, idle_kw=0.4)
        topo_pue = topo.with_datacenters([
            dataclasses.replace(dc, pue=1.5) for dc in topo.datacenters
        ])
        arrivals = np.full((2, 2), 30.0)
        prices = np.array([0.1, 0.1])
        plan = ProfitAwareOptimizer(topo_pue).plan_slot(arrivals, prices)
        without = evaluate_plan(plan, arrivals, prices, apply_pue=False)
        with_pue = evaluate_plan(plan, arrivals, prices, apply_pue=True)
        assert with_pue.idle_cost == pytest.approx(1.5 * without.idle_cost)


class TestIdlePowerMakesConsolidationPay:
    def test_consolidation_strictly_profitable(self, small_topology):
        # Under the paper's model consolidation is profit-neutral; with
        # idle power it saves real dollars.
        topo = with_idle(small_topology, idle_kw=0.4)
        arrivals = np.full((2, 2), 10.0)  # light load, spread plan
        prices = np.array([0.10, 0.15])
        spread = ProfitAwareOptimizer(topo, config=OptimizerConfig(consolidate=False, use_spare_capacity=False)).plan_slot(arrivals, prices)
        packed = consolidate_plan(spread)
        profit_spread = evaluate_plan(spread, arrivals, prices).net_profit
        profit_packed = evaluate_plan(packed, arrivals, prices).net_profit
        assert packed.powered_on_per_dc().sum() < spread.powered_on_per_dc().sum()
        assert profit_packed > profit_spread

    def test_savings_scale_with_idle_power(self, small_topology):
        arrivals = np.full((2, 2), 10.0)
        prices = np.array([0.10, 0.15])
        gains = []
        for idle in (0.2, 0.8):
            topo = with_idle(small_topology, idle)
            spread = ProfitAwareOptimizer(topo, config=OptimizerConfig(consolidate=False, use_spare_capacity=False)).plan_slot(arrivals, prices)
            packed = consolidate_plan(spread)
            gains.append(
                evaluate_plan(packed, arrivals, prices).net_profit
                - evaluate_plan(spread, arrivals, prices).net_profit
            )
        assert gains[1] > gains[0] > 0


class TestLedgerCountsIdleCost:
    def test_run_totals_match_the_slot_outcomes(self):
        # The ledger's totals are the sums of the slots' outcomes, idle
        # dollars included.
        exp = section6_experiment()
        topo = with_idle(exp.topology, idle_kw=0.2)
        result = run_simulation(ProfitAwareOptimizer(topo), exp.trace,
                                exp.market, num_slots=6)
        outcomes = [record.outcome for record in result.records]
        assert sum(outcome.idle_cost for outcome in outcomes) > 0.0
        assert result.total_net_profit == pytest.approx(
            float(result.net_profit_series.sum()), rel=1e-12)
        assert result.total_cost == pytest.approx(
            sum(outcome.total_cost for outcome in outcomes), rel=1e-12)
        assert np.allclose(result.ledger.net_profits,
                           result.net_profit_series, rtol=1e-12, atol=0.0)
