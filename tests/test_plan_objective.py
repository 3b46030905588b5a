"""Tests for DispatchPlan and net-profit evaluation."""

import dataclasses

import numpy as np
import pytest

from repro.cloud import energy, topology, transfer
from repro.core.objective import evaluate_plan
from repro.core.plan import DispatchPlan


def make_plan(topology, load_per_server=50.0, share=0.8):
    """Uniform single-class plan helper for single_class_topology."""
    K, S, N = (topology.num_classes, topology.num_frontends,
               topology.num_servers)
    rates = np.full((K, S, N), load_per_server)
    shares = np.full((K, N), share)
    return DispatchPlan(topology=topology, rates=rates, shares=shares)


class TestDispatchPlan:
    def test_shape_validation(self, single_class_topology):
        with pytest.raises(ValueError, match="rates"):
            DispatchPlan(single_class_topology, np.zeros((1, 1, 3)),
                         np.zeros((1, 4)))
        with pytest.raises(ValueError, match="shares"):
            DispatchPlan(single_class_topology, np.zeros((1, 1, 4)),
                         np.zeros((1, 3)))

    def test_share_budget_enforced(self, small_topology):
        rates = np.zeros((2, 2, 5))
        shares = np.full((2, 5), 0.6)  # sums to 1.2 per server
        with pytest.raises(ValueError, match="exceed"):
            DispatchPlan(small_topology, rates, shares)

    def test_server_loads(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=30.0)
        assert plan.server_loads().tolist() == [[30.0] * 4]

    def test_dc_aggregation(self, small_topology):
        rates = np.zeros((2, 2, 5))
        rates[0, 0, 0] = 10.0  # dc1 server
        rates[0, 1, 4] = 20.0  # dc2 server
        plan = DispatchPlan(small_topology, rates, np.full((2, 5), 0.25))
        dc_rates = plan.dc_rates()
        assert dc_rates[0, 0, 0] == 10.0
        assert dc_rates[0, 1, 1] == 20.0
        assert plan.dc_loads()[0].tolist() == [10.0, 20.0]

    def test_delays_match_eq1(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=50.0, share=0.8)
        # effective rate = 0.8*150 = 120, delay = 1/(120-50)
        expected = 1.0 / (0.8 * 150.0 - 50.0)
        assert plan.delays()[0, 0] == pytest.approx(expected)

    def test_delays_nan_when_unloaded(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=0.0)
        assert np.all(np.isnan(plan.delays()))

    def test_delay_inf_when_overloaded(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=130.0, share=0.8)
        assert np.all(np.isinf(plan.delays()))

    def test_active_servers(self, single_class_topology):
        rates = np.zeros((1, 1, 4))
        rates[0, 0, :2] = 10.0
        plan = DispatchPlan(single_class_topology, rates, np.full((1, 4), 0.5))
        assert plan.active_server_mask().tolist() == [True, True, False, False]
        assert plan.powered_on_per_dc().tolist() == [2]

    def test_meets_deadlines(self, single_class_topology):
        good = make_plan(single_class_topology, load_per_server=50.0, share=0.8)
        assert good.meets_deadlines()
        # effective 120, load 119 -> delay 1.0 >> 0.02 deadline
        bad = make_plan(single_class_topology, load_per_server=119.0, share=0.8)
        assert not bad.meets_deadlines()

    def test_empty_plan(self, small_topology):
        plan = DispatchPlan.empty(small_topology)
        assert plan.served_rates().tolist() == [0.0, 0.0]
        assert plan.powered_on_per_dc().tolist() == [0, 0]


class TestEvaluatePlan:
    def test_profit_breakdown_hand_computed(self, single_class_topology):
        topo = single_class_topology
        rates = np.zeros((1, 1, 4))
        rates[0, 0, 0] = 50.0
        plan = DispatchPlan(topo, rates, np.full((1, 4), 0.8))
        arrivals = np.array([[80.0]])
        prices = np.array([0.1])
        out = evaluate_plan(plan, arrivals, prices, slot_duration=2.0)
        # delay = 1/(120-50) < 0.02 -> full 10$/request
        assert out.revenue == pytest.approx(10.0 * 50.0 * 2.0)
        # energy: 3e-4 kWh * 0.1 $/kWh * 50 req/u * 2
        assert out.energy_cost == pytest.approx(3e-5 * 50 * 2)
        # transfer: 0.003 $/mile/req * 500 miles * 50 * 2
        assert out.transfer_cost == pytest.approx(1.5 * 50 * 2)
        assert out.net_profit == pytest.approx(
            out.revenue - out.energy_cost - out.transfer_cost
        )
        assert out.served_requests == pytest.approx(100.0)
        assert out.dropped_rates.tolist() == [30.0]
        assert out.completion_fractions[0] == pytest.approx(50.0 / 80.0)

    def test_zero_utility_past_deadline_still_costs(self, single_class_topology):
        topo = single_class_topology
        rates = np.zeros((1, 1, 4))
        rates[0, 0, 0] = 119.0  # delay = 1.0 >> deadline 0.02
        plan = DispatchPlan(topo, rates, np.full((1, 4), 0.8))
        out = evaluate_plan(plan, np.array([[119.0]]), np.array([0.1]))
        assert out.revenue == 0.0
        assert out.total_cost > 0.0
        assert out.net_profit < 0.0

    def test_overdispatch_rejected(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=50.0)
        with pytest.raises(ValueError, match="more than the offered"):
            evaluate_plan(plan, np.array([[10.0]]), np.array([0.1]))

    def test_energy_kwh_tracked(self, single_class_topology):
        plan = make_plan(single_class_topology, load_per_server=25.0)
        out = evaluate_plan(plan, np.array([[100.0]]), np.array([0.1]),
                            slot_duration=1.0)
        assert out.energy_kwh == pytest.approx(3e-4 * 100.0)

    def test_pue_raises_energy_cost(self, single_class_topology):
        topo = single_class_topology
        dc = topo.datacenters[0]
        import dataclasses
        dc_pue = dataclasses.replace(dc, pue=1.5)
        topo_pue = topo.with_datacenters([dc_pue])
        plan = make_plan(topo_pue, load_per_server=25.0)
        base = evaluate_plan(plan, np.array([[100.0]]), np.array([0.1]))
        with_pue = evaluate_plan(plan, np.array([[100.0]]), np.array([0.1]),
                                 apply_pue=True)
        assert with_pue.energy_cost == pytest.approx(1.5 * base.energy_cost)

    def test_shape_validation(self, single_class_topology):
        plan = make_plan(single_class_topology, 10.0)
        with pytest.raises(ValueError, match="arrivals"):
            evaluate_plan(plan, np.zeros((2, 1)), np.array([0.1]))
        with pytest.raises(ValueError, match="prices"):
            evaluate_plan(plan, np.array([[100.0]]), np.array([0.1, 0.2]))

    def test_multilevel_realized_levels(self, multilevel_topology):
        topo = multilevel_topology
        K, S, N = 2, 1, 6
        rates = np.zeros((K, S, N))
        shares = np.zeros((K, N))
        # Class 0 on server 0: delay in level 1 (between 0.002 and 0.006).
        shares[0, 0] = 0.1  # effective = 500; load 200 -> delay 1/300 = 0.0033
        rates[0, 0, 0] = 200.0
        plan = DispatchPlan(topo, rates, shares)
        out = evaluate_plan(plan, np.array([[200.0], [0.0]]),
                            np.array([0.1, 0.1]))
        # Level-2 utility (4 $) earned, not level-1 (10 $).
        assert out.revenue == pytest.approx(4.0 * 200.0)


class TestScoringReadsTheRecord:
    @pytest.mark.parametrize("apply_pue", [False, True])
    def test_scoring_builds_no_cost_models(self, small_topology, monkeypatch,
                                           apply_pue):
        """50 plans of one topology: the record is built once, on first
        use, and scoring constructs no EnergyModel or TransferModel."""
        topo = small_topology.with_datacenters([
            dataclasses.replace(dc, idle_power_kw=0.2, pue=1.4)
            for dc in small_topology.datacenters
        ])
        rng = np.random.default_rng(5)
        plans = []
        for _ in range(50):
            shares = rng.uniform(0.0, 0.5, size=(2, 5))
            rates = rng.uniform(0.0, 20.0, size=(2, 2, 5))
            rates[rng.uniform(size=rates.shape) < 0.3] = 0.0
            plans.append(DispatchPlan(topo, rates, shares))
        assert "arrays" not in vars(topo)

        built = {"record": 0, "energy": 0, "transfer": 0}

        def counting(cls, key):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                built[key] += 1
                init(self, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(topology.TopologyArrays, "__init__",
                            counting(topology.TopologyArrays, "record"))
        monkeypatch.setattr(energy.EnergyModel, "__init__",
                            counting(energy.EnergyModel, "energy"))
        monkeypatch.setattr(transfer.TransferModel, "__init__",
                            counting(transfer.TransferModel, "transfer"))
        prices = np.array([0.1, 0.07])
        for plan in plans:
            arrivals = plan.rates.sum(axis=2) + 1.0
            evaluate_plan(plan, arrivals, prices, apply_pue=apply_pue)
        assert built == {"record": 1, "energy": 0, "transfer": 0}
