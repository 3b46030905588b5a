"""Property pins of the exact level search.

``level_method="auto"`` on multi-level TUFs runs a depth-first
branch-and-bound over (class, data center) level vectors, every node a
warm restart of the one compiled fixed-level LP.  These tests hold it,
with certification on, to two exact references on random topologies
with 1-4-level TUFs — exhaustive enumeration of the fixed-level LP over
every level vector, and the own MILP branch-and-bound at ``rel_gap=0``
— and to the HiGHS MILP on the §VII day, one-sided, since HiGHS stops
at its default 1e-4 relative MILP gap.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.config import OptimizerConfig
from repro.core.formulation import (
    FixedLevelLPCache,
    SlotInputs,
    fixed_level_lp,
    multilevel_milp,
)
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.request import RequestClass
from repro.core.tuf import StepDownwardTUF
from repro.experiments.section7 import section7_experiment
from repro.solvers.base import SolveStatus
from repro.solvers.branch_bound import solve_milp
from repro.solvers.linprog import solve_lp

REL_TOL = 1e-6


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


@st.composite
def step_tuf(draw, min_levels=1):
    """A step-downward TUF with 1-4 levels.  The loosest sub-deadline
    keeps every topology feasible; tighter ones may leave no room for
    the share reserve, so the search's screen gets exercised."""
    levels = draw(st.integers(min_levels, 4))
    values = [draw(st.floats(20.0, 30.0))]
    deadlines = [draw(st.floats(0.003, 0.05))]
    for _ in range(levels - 1):
        values.append(values[-1] - draw(st.floats(0.5, 5.0)))
        deadlines.append(deadlines[-1] / draw(st.floats(1.5, 6.0)))
    return StepDownwardTUF(values=values, deadlines=deadlines[::-1])


@st.composite
def multilevel_topologies(draw):
    """Small random topologies whose first class has 2-4 levels (so
    ``auto`` takes the level search); zero-server data centers
    included, at least one kept."""
    K = draw(st.integers(1, 2))
    S = draw(st.integers(1, 2))
    L = draw(st.integers(1, 2))
    classes = tuple(
        RequestClass(
            f"c{k}", draw(step_tuf(min_levels=2 if k == 0 else 1)),
            transfer_unit_cost=draw(st.floats(1e-5, 1e-3)),
        )
        for k in range(K)
    )
    counts = [draw(st.integers(0, 3)) for _ in range(L)]
    if all(count == 0 for count in counts):
        counts[0] = 1
    datacenters = tuple(
        DataCenter(
            f"dc{l}",
            num_servers=counts[l],
            service_rates=np.array(
                [draw(st.floats(3000.0, 8000.0)) for _ in range(K)]
            ),
            energy_per_request=np.array(
                [draw(st.floats(0.1, 100.0)) for _ in range(K)]
            ),
        )
        for l in range(L)
    )
    distances = np.array(
        [[draw(st.floats(100.0, 2000.0)) for _ in range(L)]
         for _ in range(S)]
    )
    return CloudTopology(
        request_classes=classes,
        frontends=tuple(FrontEnd(f"fe{s}") for s in range(S)),
        datacenters=datacenters,
        distances=distances,
    )


@st.composite
def slots(draw, topology, count=1):
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    out = []
    for _ in range(count):
        arrivals = np.array(
            [[draw(st.floats(0.0, 20000.0)) for _ in range(S)]
             for _ in range(K)]
        )
        prices = np.array([draw(st.floats(0.02, 0.15)) for _ in range(L)])
        out.append((arrivals, prices))
    return out


@st.composite
def warm_cold_cases(draw):
    topology = draw(multilevel_topologies())
    return topology, draw(slots(topology, count=3))


#: A serverless ``dc1`` once let the cold search's winning leaf route
#: 1e-10 req/s into it (violating its delay and arrival rows by 1e-10,
#: inside every solver tolerance), which doubled the slot-1 objective.
SERVERLESS_DC_CASE = (
    CloudTopology(
        request_classes=(RequestClass(
            "c0", StepDownwardTUF(values=[20.0, 19.0],
                                  deadlines=[0.015625, 0.03125]),
            transfer_unit_cost=0.0008599487111091065,
        ),),
        frontends=(FrontEnd("fe0"),),
        datacenters=tuple(
            DataCenter(f"dc{l}", num_servers=count,
                       service_rates=np.array([3000.0]),
                       energy_per_request=np.array([1.0]))
            for l, count in enumerate([1, 0])
        ),
        distances=np.array([[100.0, 100.0]]),
    ),
    [(np.array([[arrival]]), np.array([0.125, 0.125]))
     for arrival in (1.0, 1e-10, 0.0)],
)

#: Slot 1's zero arrivals box every dispatch variable at 0, so its
#: optimal basis may hold one at either bound; slot 2 opens ``c0``'s
#: box at ``fe0``.  A warm restart that skipped the bound flip because
#: ``c`` was unchanged stopped at a point that was not optimal: warm
#: -0.0 against cold 19.79.
BOX_OPENING_CASE = (
    CloudTopology(
        request_classes=(
            RequestClass(
                "c0", StepDownwardTUF(values=[20.0, 19.0],
                                      deadlines=[0.015625, 0.03125]),
                transfer_unit_cost=0.000832729962819131,
            ),
            RequestClass(
                "c1", StepDownwardTUF(values=[20.0], deadlines=[0.003]),
                transfer_unit_cost=1e-05,
            ),
        ),
        frontends=(FrontEnd("fe0"), FrontEnd("fe1")),
        datacenters=tuple(
            DataCenter(f"dc{l}", num_servers=count,
                       service_rates=np.array([3000.0, 3000.0]),
                       energy_per_request=np.array([1.0, 1.0]))
            for l, count in enumerate([1, 0])
        ),
        distances=np.full((2, 2), 100.0),
    ),
    [(np.array(arrivals), np.array([0.125, 0.125]))
     for arrivals in ([[1.0, 0.0], [0.0, 2635.0]], [[0.0, 0.0], [0.0, 0.0]],
                      [[1.0, 0.0], [0.0, 0.0]])],
)


def _level_vectors(topology):
    L = topology.num_datacenters
    sizes = [rc.tuf.num_levels for rc in topology.request_classes
             for _ in range(L)]
    for vector in itertools.product(*(range(n) for n in sizes)):
        yield np.asarray(vector, dtype=int).reshape(-1, L)


def _enumerated_optimum(inputs):
    """Best profit over every level vector's fixed-level LP."""
    best = -np.inf
    for levels in _level_vectors(inputs.topology):
        lp, _ = fixed_level_lp(inputs, levels=levels)
        solution = solve_lp(lp, "highs")
        if solution.ok:
            best = max(best, -solution.objective)
    return best


class TestLevelSearchIsExact:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_enumeration_and_exact_milp(self, data):
        topology = data.draw(multilevel_topologies())
        (arrivals, prices), = data.draw(slots(topology))
        opt = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(certify="error"))
        opt.plan_slot(arrivals, prices)
        stats = opt.last_stats
        assert stats.method == "levels"
        assert stats.fallback == 0
        assert stats.nodes >= 1
        inputs = SlotInputs(topology, arrivals=arrivals, prices=prices)
        assert _close(stats.objective, _enumerated_optimum(inputs))
        mip, _ = multilevel_milp(inputs)
        bb = solve_milp(mip, "bb").require_ok()
        assert _close(stats.objective, -bb.objective)

    @given(case=warm_cold_cases())
    @example(case=SERVERLESS_DC_CASE)
    @example(case=BOX_OPENING_CASE)
    @settings(max_examples=15, deadline=None)
    def test_warm_equals_cold(self, case):
        topology, sequence = case
        warm = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            certify="error", warm_start=True))
        cold = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            certify="error", warm_start=False))
        outcomes = []
        for arrivals, prices in sequence:
            warm.plan_slot(arrivals, prices)
            cold.plan_slot(arrivals, prices)
            assert warm.last_stats.fallback == cold.last_stats.fallback == 0
            assert _close(warm.last_stats.objective,
                          cold.last_stats.objective, tol=1e-9)
            assert cold.last_stats.warm_start == "off"
            outcomes.append(warm.last_stats.warm_start)
        assert outcomes[0] == "cold"
        assert set(outcomes[1:]) <= {"hit", "miss"}


class TestLevelFill:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_leaf_is_build_bit_for_bit_and_screen_is_exact(self, data):
        topology = data.draw(multilevel_topologies())
        (arrivals, prices), = data.draw(slots(topology))
        inputs = SlotInputs(topology, arrivals=arrivals, prices=prices)
        cache = FixedLevelLPCache(topology, sparse=True)
        nodes = cache.level_fill(inputs)
        for levels in _level_vectors(topology):
            fits = nodes.fill(tuple(levels.ravel()))
            ref, _ = cache.build(inputs, levels=levels)
            if fits:
                assert nodes.lp.c.tobytes() == ref.c.tobytes()
                assert nodes.lp.b_ub.tobytes() == ref.b_ub.tobytes()
            else:
                # Screened: the share reserve cannot fit, so HiGHS
                # finds the leaf infeasible too.
                solution = solve_lp(ref, "highs")
                assert solution.status is SolveStatus.INFEASIBLE


class TestSection7AgainstHighs:
    def test_day_within_highs_gap(self):
        exp = section7_experiment()
        search = exp.optimizer(config=OptimizerConfig(certify="error"))
        milp = exp.optimizer(config=OptimizerConfig(level_method="milp"))
        for t in range(exp.trace.num_slots):
            arrivals = exp.trace.arrivals_at(t)
            prices = exp.market.prices_at(t)
            search.plan_slot(arrivals, prices)
            milp.plan_slot(arrivals, prices)
            got = search.last_stats.objective
            highs = milp.last_stats.objective
            assert search.last_stats.method == "levels"
            assert search.last_stats.fallback == 0
            # Never below HiGHS; above it by at most HiGHS's default
            # 1e-4 relative MILP gap.
            assert got >= highs - 1e-9 * abs(highs)
            assert got <= highs + 1e-4 * abs(highs)
