"""Property-based warm-start equivalence tests.

Randomized counterpart of ``test_warmstart.py``: across random LPs,
topologies, TUF shapes, price paths, and arrival sequences, a
warm-started solve must match the cold solve's objective to 1e-6
relative tolerance and stay feasible.  Together the suites exercise
well over 200 randomized cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.formulation import (
    FixedLevelLPCache,
    MultilevelMILPCache,
    SlotInputs,
    fixed_level_lp,
    multilevel_milp,
)
from repro.core.optimizer import (OptimizerConfig,
                                  ProfitAwareOptimizer)
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, StepDownwardTUF
from repro.solvers.base import LinearProgram
from repro.solvers.interior_point import InteriorPointSolver
from repro.solvers.linprog import solve_lp
from repro.solvers.simplex import SimplexSolver

REL_TOL = 1e-6

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


@st.composite
def lp_pairs(draw, max_vars=7, max_rows=5):
    """A bounded LP plus a same-structure perturbation (new c, new b)."""
    n = draw(st.integers(2, max_vars))
    m = draw(st.integers(1, max_rows))
    a = draw(arrays(float, (m, n), elements=finite))
    upper = np.full(n, draw(st.floats(1.0, 5.0)))

    def instance():
        c = draw(arrays(float, n, elements=finite))
        b = draw(arrays(float, m,
                        elements=st.floats(0.5, 4.0, allow_nan=False)))
        return LinearProgram(c=c, a_ub=a, b_ub=b, upper=upper)

    return instance(), instance()


@st.composite
def random_tufs(draw, max_levels=3):
    """A feasible step-downward (or one-level constant) TUF."""
    num_levels = draw(st.integers(1, max_levels))
    d0 = draw(st.floats(0.01, 0.05))
    v0 = draw(st.floats(5.0, 20.0))
    if num_levels == 1:
        return ConstantTUF(value=v0, deadline=d0)
    deadlines = [d0]
    values = [v0]
    for _ in range(num_levels - 1):
        deadlines.append(deadlines[-1] * draw(st.floats(1.5, 3.0)))
        values.append(values[-1] * draw(st.floats(0.3, 0.8)))
    return StepDownwardTUF(values, deadlines)


@st.composite
def random_topologies(draw, max_levels=3):
    """Small random topologies, feasible by construction.

    With ``mu >= 2000`` and every sub-deadline ``>= 0.01`` each class
    needs at most ``1/(0.01 * 2000) = 5%`` of a server, so even both
    classes at their tightest levels fit comfortably.
    """
    K = draw(st.integers(1, 2))
    S = draw(st.integers(1, 2))
    L = draw(st.integers(1, 2))
    classes = tuple(
        RequestClass(
            f"c{k}", draw(random_tufs(max_levels)),
            transfer_unit_cost=draw(st.floats(1e-5, 1e-3)),
        )
        for k in range(K)
    )
    datacenters = tuple(
        DataCenter(
            f"dc{l}",
            num_servers=draw(st.integers(1, 3)),
            service_rates=np.array(
                [draw(st.floats(2000.0, 6000.0)) for _ in range(K)]
            ),
            energy_per_request=np.array(
                [draw(st.floats(1e-4, 5e-4)) for _ in range(K)]
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
def slot_sequences(draw, topology, num_slots=2):
    """Random (arrivals, prices) per slot for ``topology``."""
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    slots = []
    for _ in range(num_slots):
        arrivals = np.array(
            [[draw(st.floats(10.0, 3000.0)) for _ in range(S)]
             for _ in range(K)]
        )
        prices = np.array([draw(st.floats(0.02, 0.15)) for _ in range(L)])
        slots.append((arrivals, prices))
    return slots


class TestSolverLevelEquivalence:
    @given(pair=lp_pairs())
    @settings(max_examples=50, deadline=None)
    def test_simplex_warm_equals_cold(self, pair, certify):
        first, second = pair
        solver = SimplexSolver()
        state = solver.solve(first).state
        warm = solver.solve(second, state=state)
        cold = solver.solve(second)
        assert warm.ok and cold.ok
        assert _close(warm.objective, cold.objective)
        assert second.is_feasible(warm.x, tol=1e-6)
        certify(second, warm)
        certify(second, cold)

    @given(pair=lp_pairs())
    @settings(max_examples=30, deadline=None)
    def test_ipm_warm_equals_cold(self, pair, certify):
        first, second = pair
        solver = InteriorPointSolver()
        state = solver.solve(first).state
        warm = solver.solve(second, state=state)
        reference = solve_lp(second, "highs")
        assert warm.ok and reference.ok
        assert _close(warm.objective, reference.objective)
        assert second.is_feasible(warm.x, tol=1e-6)
        certify(second, warm)
        certify(second, reference)


class TestPipelineEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_lp_pipeline(self, data):
        topology = data.draw(random_topologies(max_levels=1))
        slots = data.draw(slot_sequences(topology))
        # certify="error" makes every plan_slot fail loudly if the
        # returned solution flunks an independent CT0xx certificate.
        warm = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            lp_method="simplex", warm_start=True, certify="error"))
        cold = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            lp_method="simplex", warm_start=False, certify="error"))
        for arrivals, prices in slots:
            wp = warm.plan_slot(arrivals, prices)
            w_obj = warm.last_stats.objective
            cold.plan_slot(arrivals, prices)
            c_obj = cold.last_stats.objective
            assert _close(w_obj, c_obj)
            assert np.all(wp.rates >= -1e-9)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_milp_pipeline(self, data):
        topology = data.draw(random_topologies(max_levels=3))
        slots = data.draw(slot_sequences(topology))
        warm = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="milp", milp_method="bb", warm_start=True,
            certify="error"))
        cold = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="milp", milp_method="bb", warm_start=False,
            certify="error"))
        for arrivals, prices in slots:
            warm.plan_slot(arrivals, prices)
            cold.plan_slot(arrivals, prices)
            assert _close(warm.last_stats.objective,
                          cold.last_stats.objective)


class TestFormulationCacheProperties:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_cache_equals_fresh_build(self, data):
        topology = data.draw(random_topologies(max_levels=3))
        slots = data.draw(slot_sequences(topology, num_slots=3))
        lp_cache = FixedLevelLPCache(topology)
        milp_cache = MultilevelMILPCache(topology)
        for arrivals, prices in slots:
            inputs = SlotInputs(topology=topology, arrivals=arrivals,
                                prices=prices)
            fresh_lp, _ = fixed_level_lp(inputs)
            cached_lp, _ = lp_cache.build(inputs)
            assert np.array_equal(fresh_lp.c, cached_lp.c)
            assert np.array_equal(fresh_lp.a_ub, cached_lp.a_ub)
            assert np.array_equal(fresh_lp.b_ub, cached_lp.b_ub)
            assert np.array_equal(fresh_lp.upper, cached_lp.upper)
            fresh_mip, _ = multilevel_milp(inputs)
            cached_mip, _ = milp_cache.build(inputs)
            assert np.array_equal(fresh_mip.lp.c, cached_mip.lp.c)
            assert np.array_equal(fresh_mip.lp.a_ub, cached_mip.lp.a_ub)
            assert np.array_equal(fresh_mip.lp.b_ub, cached_mip.lp.b_ub)
            assert np.array_equal(fresh_mip.lp.upper, cached_mip.lp.upper)
            assert np.array_equal(fresh_mip.integer_mask,
                                  cached_mip.integer_mask)
