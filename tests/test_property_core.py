"""Property-based tests for core invariants: queueing, plans, optimizer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.energy import EnergyModel
from repro.core.baselines import BalancedDispatcher
from repro.core.objective import NetProfitBreakdown, evaluate_plan
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.plan import DispatchPlan
from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, StepDownwardTUF
from repro.queueing.mm1 import mm1_max_rate, mm1_mean_delay, mm1_required_capacity
from repro.solvers.tolerances import ZERO_TOL

rate_floats = st.floats(1.0, 500.0, allow_nan=False)


class TestQueueingProperties:
    @given(mu=rate_floats, frac=st.floats(0.01, 0.99))
    def test_delay_positive_and_above_service_time(self, mu, frac):
        lam = frac * mu
        delay = mm1_mean_delay(mu, lam)
        assert delay >= 1.0 / mu - 1e-12

    @given(mu=rate_floats, f1=st.floats(0.01, 0.49), f2=st.floats(0.5, 0.99))
    def test_delay_monotone_in_load(self, mu, f1, f2):
        assert mm1_mean_delay(mu, f1 * mu) <= mm1_mean_delay(mu, f2 * mu)

    @given(lam=rate_floats, d=st.floats(0.001, 10.0))
    def test_capacity_rate_roundtrip(self, lam, d):
        mu = mm1_required_capacity(lam, d)
        back = mm1_max_rate(mu, d)
        assert abs(back - lam) < 1e-6 * (1.0 + lam)

    @given(mu=rate_floats, d=st.floats(0.001, 10.0))
    def test_max_rate_meets_deadline(self, mu, d):
        lam = mm1_max_rate(mu, d)
        if lam > 0:
            assert mm1_mean_delay(mu, lam * 0.999999) <= d / 0.99


@st.composite
def topologies_and_arrivals(draw):
    """Random small, feasible one-level topologies with arrivals."""
    K = draw(st.integers(1, 3))
    S = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    classes = []
    for k in range(K):
        value = draw(st.floats(1.0, 50.0))
        deadline = draw(st.floats(0.05, 0.5))
        classes.append(RequestClass(
            f"r{k}", ConstantTUF(value, deadline),
            transfer_unit_cost=draw(st.floats(0.0, 1e-4)),
        ))
    datacenters = []
    for l in range(L):
        rates = np.array([draw(st.floats(100.0, 400.0)) for _ in range(K)])
        energy = np.array([draw(st.floats(1e-5, 1e-3)) for _ in range(K)])
        datacenters.append(DataCenter(
            f"d{l}", num_servers=draw(st.integers(1, 4)),
            service_rates=rates, energy_per_request=energy,
        ))
    frontends = [FrontEnd(f"f{s}") for s in range(S)]
    distances = np.array(
        [[draw(st.floats(10.0, 3000.0)) for _ in range(L)] for _ in range(S)]
    )
    topo = CloudTopology(tuple(classes), tuple(frontends), tuple(datacenters),
                         distances)
    arrivals = np.array(
        [[draw(st.floats(0.0, 300.0)) for _ in range(S)] for _ in range(K)]
    )
    prices = np.array([draw(st.floats(0.01, 0.2)) for _ in range(L)])
    return topo, arrivals, prices


class TestOptimizerProperties:
    @given(setup=topologies_and_arrivals())
    @settings(max_examples=25, deadline=None)
    def test_plan_always_feasible(self, setup):
        topo, arrivals, prices = setup
        plan = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        assert plan.meets_deadlines()
        assert np.all(plan.rates.sum(axis=2) <= arrivals + 1e-6)
        assert np.all(plan.shares.sum(axis=0) <= 1.0 + 1e-9)
        assert np.all(plan.rates >= 0)

    @given(setup=topologies_and_arrivals())
    @settings(max_examples=25, deadline=None)
    def test_optimizer_profit_nonnegative(self, setup):
        # Dropping everything is always available, so the optimum earns
        # at least (close to) zero.
        topo, arrivals, prices = setup
        plan = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        out = evaluate_plan(plan, arrivals, prices)
        assert out.net_profit >= -1e-6

    @given(setup=topologies_and_arrivals())
    @settings(max_examples=20, deadline=None)
    def test_optimizer_dominates_balanced(self, setup):
        topo, arrivals, prices = setup
        opt_plan = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        bal_plan = BalancedDispatcher(topo).plan_slot(arrivals, prices)
        opt = evaluate_plan(opt_plan, arrivals, prices).net_profit
        bal = evaluate_plan(bal_plan, arrivals, prices).net_profit
        assert opt >= bal - max(1e-6, 1e-9 * abs(bal))

    @given(setup=topologies_and_arrivals(), scale=st.floats(1.1, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_profit_monotone_in_offered_load(self, setup, scale):
        # More offered work can never hurt the optimum (serving the
        # original subset remains feasible).
        topo, arrivals, prices = setup
        base = evaluate_plan(
            ProfitAwareOptimizer(topo).plan_slot(arrivals, prices),
            arrivals, prices,
        ).net_profit
        more_arrivals = arrivals * scale
        more = evaluate_plan(
            ProfitAwareOptimizer(topo).plan_slot(more_arrivals, prices),
            more_arrivals, prices,
        ).net_profit
        assert more >= base - max(1e-6, 1e-7 * abs(base))

    @given(setup=topologies_and_arrivals())
    @settings(max_examples=15, deadline=None)
    def test_balanced_plan_feasible(self, setup):
        topo, arrivals, prices = setup
        plan = BalancedDispatcher(topo).plan_slot(arrivals, prices)
        assert plan.meets_deadlines()
        assert np.all(plan.rates.sum(axis=2) <= arrivals + 1e-6)



# --------------------------------------------------------------------------
# evaluate_plan is pinned, bit for bit, to the loop-based scorer below: the
# one that rebuilt the plan geometry, the cost models and each class's TUF
# lookup on every call.


def _reference_geometry(topo):
    """Flat-server prefix offsets and ``(K, N)`` full-capacity service
    rates, rebuilt from the topology with a per-DC fill loop."""
    offsets = topo.server_offsets()
    dc_of = np.empty(topo.num_servers, dtype=int)
    for l, dc in enumerate(topo.datacenters):
        dc_of[offsets[l]:offsets[l] + dc.num_servers] = l
    service = topo.service_rates[:, dc_of] * topo.server_capacities[dc_of][None, :]
    return offsets, service


def _reference_delays(plan, service):
    loads = plan.rates.sum(axis=1)
    return np.where(loads > ZERO_TOL,
                    mm1_mean_delay(plan.shares * service, loads), np.nan)


def _reference_evaluate(plan, arrivals, prices, slot_duration, apply_pue):
    """The loop-based ``evaluate_plan`` body (inputs assumed valid): one
    TUF lookup per class, fresh cost models, per-DC slice loops."""
    topo = plan.topology
    K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
    offsets, service = _reference_geometry(topo)
    delays = _reference_delays(plan, service)
    loads = plan.rates.sum(axis=1)
    revenue = 0.0
    for k, rc in enumerate(topo.request_classes):
        row_delays = delays[k]
        row_loads = loads[k]
        loaded = row_loads > 0
        if not np.any(loaded):
            continue
        util = rc.tuf.utility(np.nan_to_num(row_delays[loaded], nan=0.0,
                                            posinf=np.inf))
        util = np.where(np.isfinite(row_delays[loaded]), util, 0.0)
        revenue += float(np.sum(util * row_loads[loaded]) * slot_duration)

    dc_rates = np.zeros((K, S, L))
    for l in range(L):
        dc_rates[:, :, l] = plan.rates[:, :, offsets[l]:offsets[l + 1]].sum(axis=2)
    dc_loads = dc_rates.sum(axis=1)
    energy_model = EnergyModel(topo.datacenters, apply_pue=apply_pue)
    energy_cost = energy_model.slot_cost(dc_loads, prices, slot_duration)
    energy_kwh = energy_model.slot_energy_kwh(dc_loads, slot_duration)
    transfer_cost = topo.transfer_model().slot_cost(dc_rates, slot_duration)

    active = loads.sum(axis=0) > ZERO_TOL
    powered = np.array([int(active[offsets[l]:offsets[l + 1]].sum())
                        for l in range(L)])
    idle_cost = 0.0
    idle_kwh = 0.0
    for l, dc in enumerate(topo.datacenters):
        if dc.idle_power_kw <= 0.0 or powered[l] == 0:
            continue
        pue = dc.pue if apply_pue else 1.0
        kwh = dc.idle_power_kw * pue * powered[l] * slot_duration
        idle_kwh += kwh
        idle_cost += kwh * float(prices[l])

    return NetProfitBreakdown(
        revenue=revenue,
        energy_cost=energy_cost,
        transfer_cost=transfer_cost,
        served_rates=plan.rates.sum(axis=(1, 2)),
        offered_rates=arrivals.sum(axis=1),
        dc_loads=dc_loads,
        energy_kwh=energy_kwh + idle_kwh,
        slot_duration=slot_duration,
        idle_cost=idle_cost,
    )


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


def assert_same_breakdown(got, want):
    for f in dataclasses.fields(NetProfitBreakdown):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name
    assert _bits(got.net_profit) == _bits(want.net_profit)


#: Per-(class, server) load regimes: no load, a load in (0, ZERO_TOL]
#: (nan delay), a load the VM serves, and one it cannot (inf delay).
_REGIMES = ("off", "tiny", "served", "over")


@st.composite
def scoring_cases(draw):
    """A plan on a random topology plus the other ``evaluate_plan`` inputs.

    TUFs have 1-4 levels; data centers may have no servers, idle power
    and a PUE above 1; every load regime of ``_REGIMES`` can occur; and
    one finite delay may be pinned exactly onto a class's sub-deadline.
    Rows of more than 8 servers make numpy's pairwise summation group
    terms, so a changed summation order shows up in the low bits.
    """
    K = draw(st.integers(1, 3))
    S = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    floats = st.floats
    datacenters = tuple(
        DataCenter(
            f"d{l}", num_servers=draw(st.integers(0, 10)),
            service_rates=np.array([draw(floats(50.0, 400.0)) for _ in range(K)]),
            energy_per_request=np.array([draw(floats(0.0, 1e-3)) for _ in range(K)]),
            server_capacity=draw(st.sampled_from([1.0, 0.5, 2.0])),
            pue=draw(floats(1.0, 2.0)),
            idle_power_kw=draw(st.sampled_from([0.0, 0.0, 0.15, 0.4])),
        )
        for l in range(L)
    )
    tufs = []
    for _ in range(K):
        q = draw(st.integers(1, 4))
        values = draw(st.lists(floats(0.1, 50.0), min_size=q, max_size=q,
                               unique=True))
        deadlines = draw(st.lists(floats(1e-3, 1.0), min_size=q, max_size=q,
                                  unique=True))
        tufs.append((sorted(values, reverse=True), sorted(deadlines)))
    frontends = tuple(FrontEnd(f"f{s}") for s in range(S))
    distances = np.array([[draw(floats(10.0, 3000.0)) for _ in range(L)]
                          for _ in range(S)])
    unit_costs = [draw(floats(0.0, 1e-4)) for _ in range(K)]

    def topology():
        classes = tuple(
            RequestClass(f"r{k}", StepDownwardTUF(*tufs[k]),
                         transfer_unit_cost=unit_costs[k])
            for k in range(K)
        )
        return CloudTopology(classes, frontends, datacenters, distances)

    topo = topology()
    N = topo.num_servers
    shares = np.array([[draw(floats(0.0, 1.0)) for _ in range(N)]
                       for _ in range(K)]).reshape(K, N)
    shares = shares / np.maximum(1.0, shares.sum(axis=0))
    _, service = _reference_geometry(topo)
    rates = np.zeros((K, S, N))
    for k in range(K):
        for n in range(N):
            regime = draw(st.sampled_from(_REGIMES))
            effective = shares[k, n] * service[k, n]
            if regime == "tiny":
                s = draw(st.integers(0, S - 1))
                rates[k, s, n] = draw(floats(0.0, ZERO_TOL, exclude_min=True))
                continue
            if regime == "served" and effective > 1.0:
                load = effective * draw(floats(0.05, 0.95))
            elif regime != "off":
                load = max(effective, 1.0) * draw(floats(1.0, 3.0))
            else:
                continue
            weights = np.array([draw(floats(0.0, 1.0)) for _ in range(S)])
            weights = weights / weights.sum() if weights.sum() > 0 else np.eye(S)[0]
            rates[k, :, n] = load * weights

    delays = _reference_delays(DispatchPlan(topo, rates, shares), service)
    finite = np.argwhere(np.isfinite(delays))
    if finite.size and draw(st.booleans()):
        k, n = finite[draw(st.integers(0, len(finite) - 1))]
        values, deadlines = tufs[k]
        j = draw(st.integers(0, len(deadlines) - 1))
        pinned = float(delays[k, n])
        tufs[k] = (values, [pinned * 1.5 ** (i - j) for i in range(len(deadlines))])
        topo = topology()
    arrivals = rates.sum(axis=2) * draw(st.sampled_from([1.0, 1.25]))
    prices = np.array([draw(floats(0.0, 0.3)) for _ in range(L)])
    slot_duration = draw(st.sampled_from([1.0, 0.25, 3.0]))
    apply_pue = draw(st.booleans())
    return (DispatchPlan(topo, rates, shares), arrivals, prices,
            slot_duration, apply_pue)


class TestScorerEquivalence:
    # Subnormal shares can overflow 1/headroom to an inf delay; both
    # scorers see the same RuntimeWarning.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(case=scoring_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference_bit_for_bit(self, case):
        got = evaluate_plan(*case)
        assert_same_breakdown(got, _reference_evaluate(*case))

    def test_edge_case_plan_matches_reference(self):
        """One hand-built plan with every edge at once: a 4-level TUF, a
        delay exactly on a sub-deadline, an overloaded and a nan-delay
        VM, a zero-server DC, and idle power with PUE on and off."""
        classes = (
            RequestClass("r0", StepDownwardTUF([9.0, 6.0, 3.0, 1.0],
                                               [0.01, 0.02, 0.05, 0.1]),
                         transfer_unit_cost=1e-5),
            RequestClass("r1", ConstantTUF(4.0, 0.05), transfer_unit_cost=2e-5),
        )
        datacenters = (
            DataCenter("d0", num_servers=3, service_rates=np.array([200.0, 150.0]),
                       energy_per_request=np.array([3e-4, 2e-4]), pue=1.3,
                       idle_power_kw=0.2),
            DataCenter("d1", num_servers=0, service_rates=np.array([100.0, 90.0]),
                       energy_per_request=np.array([1e-4, 1e-4])),
            DataCenter("d2", num_servers=2, service_rates=np.array([120.0, 80.0]),
                       energy_per_request=np.array([2e-4, 5e-4]), pue=1.6),
        )
        distances = np.array([[100.0, 900.0, 400.0], [700.0, 300.0, 50.0]])
        frontends = (FrontEnd("f0"), FrontEnd("f1"))
        topo = CloudTopology(classes, frontends, datacenters, distances)
        shares = np.array([[0.5, 0.5, 0.2, 0.6, 0.0],
                           [0.5, 0.4, 0.0, 0.4, 0.0]])
        rates = np.zeros((2, 2, 5))
        # Class 0 on server 0: effective 100, load 50 -> delay 0.02, the
        # second sub-deadline exactly.
        rates[0, :, 0] = [30.0, 20.0]
        rates[0, 0, 1] = 60.0       # delay 0.025: third level
        rates[0, 1, 2] = 45.0       # effective 40: overloaded, inf delay
        rates[1, 0, 0] = ZERO_TOL   # nan delay, load still > 0
        rates[1, 1, 3] = 20.0       # DC d2, class 1
        plan = DispatchPlan(topo, rates, shares)
        delays = plan.delays()
        assert delays[0, 0] == 0.02 and np.isinf(delays[0, 2])
        assert np.isnan(delays[1, 0]) and plan.server_loads()[1, 0] > 0
        arrivals = rates.sum(axis=2) + 1.0
        prices = np.array([0.05, 0.2, 0.11])
        for apply_pue in (False, True):
            case = (plan, arrivals, prices, 2.0, apply_pue)
            got = evaluate_plan(*case)
            assert got.idle_cost > 0.0
            assert_same_breakdown(got, _reference_evaluate(*case))
