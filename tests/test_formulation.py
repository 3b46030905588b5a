"""Tests for the slot-problem formulations (LP and MILP builders)."""

import numpy as np
import pytest

from repro.core.formulation import (
    DEADLINE_SAFETY,
    SlotInputs,
    feasibility_margin,
    fixed_level_lp,
    multilevel_milp,
)
from repro.core.objective import evaluate_plan
from repro.solvers.branch_bound import solve_milp
from repro.solvers.linprog import solve_lp


def slot_inputs(topology, arrival=40.0, price=0.1):
    K, S = topology.num_classes, topology.num_frontends
    L = topology.num_datacenters
    return SlotInputs(
        topology=topology,
        arrivals=np.full((K, S), arrival),
        prices=np.full((L,), price),
        slot_duration=1.0,
    )


class TestSlotInputs:
    def test_shape_validation(self, small_topology):
        with pytest.raises(ValueError, match="arrivals"):
            SlotInputs(small_topology, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="prices"):
            SlotInputs(small_topology, np.zeros((2, 2)), np.zeros(3))

    def test_cost_per_request(self, small_topology):
        inputs = slot_inputs(small_topology, price=0.1)
        cost = inputs.cost_per_request()
        assert cost.shape == (2, 2, 2)
        # class 0, fe 0, dc 0: energy 2e-4*0.1 + transfer 0.001*300
        assert cost[0, 0, 0] == pytest.approx(2e-5 + 0.3)

    def test_lambda_max_caps(self, small_topology):
        inputs = slot_inputs(small_topology, arrival=1e9)
        lam_max = inputs.lambda_max()
        # Bounded by raw data-center capacity, not offered load.
        assert lam_max[0, 0] == pytest.approx(3 * 120.0)

    def test_feasibility_margin(self, small_topology):
        margin = feasibility_margin(small_topology)
        assert margin.shape == (2,)
        assert np.all(margin > 0)

    def test_infeasible_topology_detected(self, small_topology):
        # Shrink deadlines so minimum shares cannot fit on one server.
        from repro.core.request import RequestClass
        from repro.core.tuf import ConstantTUF
        tight = tuple(
            RequestClass(rc.name, ConstantTUF(rc.tuf.max_value, 0.004),
                         rc.transfer_unit_cost)
            for rc in small_topology.request_classes
        )
        import dataclasses
        bad = dataclasses.replace(small_topology, request_classes=tight)
        assert np.any(feasibility_margin(bad) < 0)
        with pytest.raises(ValueError, match="infeasible topology"):
            fixed_level_lp(slot_inputs(bad))


class TestFixedLevelLP:
    def test_plan_respects_all_constraints(self, small_topology):
        inputs = slot_inputs(small_topology)
        lp, decoder = fixed_level_lp(inputs)
        sol = solve_lp(lp).require_ok()
        plan = decoder(sol.x)
        assert plan.meets_deadlines()
        # No overdispatch per (k, s).
        assert np.all(plan.rates.sum(axis=2) <= inputs.arrivals + 1e-6)
        # Share budget.
        assert np.all(plan.shares.sum(axis=0) <= 1.0 + 1e-9)

    def test_lp_objective_matches_evaluation(self, small_topology):
        # For one-level TUFs the LP objective equals realized net profit.
        inputs = slot_inputs(small_topology)
        lp, decoder = fixed_level_lp(inputs)
        sol = solve_lp(lp).require_ok()
        plan = decoder(sol.x)
        out = evaluate_plan(plan, inputs.arrivals, inputs.prices,
                            inputs.slot_duration)
        assert out.net_profit == pytest.approx(-sol.objective, rel=1e-6)

    def test_aggregated_equals_per_server(self, small_topology):
        # The per-server layout is the aggregated LP on the per-server
        # topology, each server at its data center's price.
        inputs = slot_inputs(small_topology, arrival=60.0)
        per_server = slot_inputs(small_topology.per_server(), arrival=60.0)
        lp_a, _ = fixed_level_lp(inputs)
        lp_p, _ = fixed_level_lp(per_server)
        assert lp_p.num_variables == 5 * lp_a.num_variables // 2
        obj_a = solve_lp(lp_a).require_ok().objective
        obj_p = solve_lp(lp_p).require_ok().objective
        assert obj_a == pytest.approx(obj_p, rel=1e-8)

    def test_unprofitable_requests_dropped(self, single_class_topology):
        # Price so high that serving loses money: optimal rate is zero.
        inputs = SlotInputs(
            single_class_topology,
            arrivals=np.array([[100.0]]),
            prices=np.array([1e6]),
        )
        lp, decoder = fixed_level_lp(inputs)
        sol = solve_lp(lp).require_ok()
        plan = decoder(sol.x)
        assert plan.served_rates()[0] == pytest.approx(0.0, abs=1e-9)

    def test_levels_shape_validated(self, small_topology):
        inputs = slot_inputs(small_topology)
        with pytest.raises(ValueError, match="levels"):
            fixed_level_lp(inputs, levels=np.zeros((3, 3), dtype=int))

    def test_level_out_of_range(self, small_topology):
        inputs = slot_inputs(small_topology)
        with pytest.raises(ValueError, match="out of range"):
            fixed_level_lp(inputs, levels=np.full((2, 2), 5, dtype=int))

    def test_capacity_saturation(self, single_class_topology):
        # Offered load above total capacity: LP serves at most capacity.
        inputs = SlotInputs(
            single_class_topology,
            arrivals=np.array([[10_000.0]]),
            prices=np.array([0.1]),
        )
        lp, decoder = fixed_level_lp(inputs)
        plan = decoder(solve_lp(lp).require_ok().x)
        max_possible = 4 * 150.0  # 4 servers at mu=150
        assert plan.served_rates()[0] < max_possible
        assert plan.served_rates()[0] > 0.9 * (max_possible - 4 / 0.02)


class TestMultilevelMILP:
    def test_milp_plan_feasible(self, multilevel_topology):
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip, decoder = multilevel_milp(inputs)
        sol = solve_milp(mip, "highs").require_ok()
        plan = decoder(sol.x)
        assert plan.meets_deadlines()
        assert np.all(plan.rates.sum(axis=2) <= inputs.arrivals + 1e-6)

    def test_milp_objective_matches_evaluation(self, multilevel_topology):
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip, decoder = multilevel_milp(inputs)
        sol = solve_milp(mip, "highs").require_ok()
        plan = decoder(sol.x)
        out = evaluate_plan(plan, inputs.arrivals, inputs.prices)
        # Realized profit can only match or beat the MILP's plan (delays
        # strictly inside a better level earn more).
        assert out.net_profit >= -sol.objective - 1e-6

    def test_milp_beats_worst_level_lp(self, multilevel_topology):
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip, _ = multilevel_milp(inputs)
        milp_obj = solve_milp(mip, "highs").require_ok().objective
        # LP pinned at the last (cheapest) level everywhere.
        K, L = 2, 2
        last = np.array([[1, 1], [1, 1]])
        lp, _ = fixed_level_lp(inputs, levels=last)
        lp_obj = solve_lp(lp).require_ok().objective
        assert milp_obj <= lp_obj + 1e-9

    def test_milp_equals_best_fixed_level_enumeration(self, multilevel_topology):
        # Exhaustive check on a small instance: the MILP must match the
        # best fixed-level LP over all 2^(K*L) level assignments.
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        import itertools
        best = np.inf
        for combo in itertools.product([0, 1], repeat=4):
            levels = np.asarray(combo).reshape(2, 2)
            lp, _ = fixed_level_lp(inputs, levels=levels)
            sol = solve_lp(lp)
            if sol.ok:
                best = min(best, sol.objective)
        mip, _ = multilevel_milp(inputs)
        milp_obj = solve_milp(mip, "highs").require_ok().objective
        assert milp_obj == pytest.approx(best, rel=1e-7)

    def test_tight_bounds_equals_historical_envelope(
        self, multilevel_topology
    ):
        # The deadline-aware per-level McCormick caps (tight_bounds,
        # now the default) strengthen the B&B node relaxations but must
        # not cut any integer-feasible point: both MILPs reach the same
        # optimum, on both backends.
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip_tight, _ = multilevel_milp(inputs)
        mip_loose, _ = multilevel_milp(inputs, tight_bounds=False)
        for method in ("highs", "bb"):
            obj_tight = solve_milp(mip_tight, method).require_ok().objective
            obj_loose = solve_milp(mip_loose, method).require_ok().objective
            assert obj_tight == pytest.approx(obj_loose, rel=1e-7)

    def test_tight_bounds_strengthens_relaxation(self, multilevel_topology):
        # The tight caps must never *loosen* the model: every variable
        # upper bound and every McCormick row coefficient is at least as
        # restrictive as the historical envelope's.
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[9000.0], [8000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip_tight, _ = multilevel_milp(inputs)
        mip_loose, _ = multilevel_milp(inputs, tight_bounds=False)
        assert np.all(mip_tight.lp.upper <= mip_loose.lp.upper + 1e-12)

    def test_bb_and_highs_agree(self, multilevel_topology):
        inputs = SlotInputs(
            multilevel_topology,
            arrivals=np.array([[5000.0], [4000.0]]),
            prices=np.array([0.05, 0.09]),
        )
        mip, _ = multilevel_milp(inputs)
        obj_bb = solve_milp(mip, "bb").require_ok().objective
        obj_hi = solve_milp(mip, "highs").require_ok().objective
        assert obj_bb == pytest.approx(obj_hi, rel=1e-7)

    def test_deadline_safety_applied(self, small_topology):
        inputs = slot_inputs(small_topology)
        lp, decoder = fixed_level_lp(inputs)
        plan = decoder(solve_lp(lp).require_ok().x)
        delays = plan.delays()
        for k, rc in enumerate(small_topology.request_classes):
            loaded = ~np.isnan(delays[k])
            if np.any(loaded):
                assert np.all(
                    delays[k][loaded]
                    <= rc.deadline * (1 - DEADLINE_SAFETY / 2)
                )
