"""Property-based sparse==dense equivalence harness.

Randomized counterpart of ``test_sparse_solver.py``, in the style of
``test_property_warmstart.py``: across random topologies, slot
sequences, and synthetic LPs, the sparse path (CSR formulation, direct
dual simplex, decomposition, optimizer wiring) must reproduce the dense
path's objectives and plans to 1e-6 relative tolerance — warm and cold,
with and without presolve.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.config import OptimizerConfig
from repro.core.formulation import FixedLevelLPCache, SlotInputs
from repro.core.objective import evaluate_plan
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.solvers.base import LinearProgram
from repro.solvers.linprog import solve_lp
from repro.solvers.presolve import presolve
from repro.solvers.sparse import (
    class_blocks,
    compile_decomposition,
    solve_decomposed,
    solve_sparse_lp,
)

REL_TOL = 1e-6


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


@st.composite
def boxable_lp_pairs(draw, max_vars=7, max_rows=5):
    """A direct-solvable LP plus a same-structure perturbation.

    One all-positive row guarantees the implied-bound boxing succeeds,
    mirroring the arrival-cap rows of the slot LPs.
    """
    n = draw(st.integers(2, max_vars))
    m = draw(st.integers(2, max_rows))
    a = draw(arrays(float, (m, n),
                    elements=st.floats(0.0, 3.0, allow_nan=False)))
    signs = draw(arrays(bool, (m, n)))
    a = np.where(signs, a, -a)
    a[0] = np.abs(a[0]) + 0.1  # boxing row

    def instance():
        c = draw(arrays(float, n,
                        elements=st.floats(-3.0, 3.0, allow_nan=False)))
        b = draw(arrays(float, m,
                        elements=st.floats(0.5, 4.0, allow_nan=False)))
        from scipy import sparse
        return LinearProgram(c=c, a_ub=sparse.csr_matrix(a), b_ub=b)

    return instance(), instance()


@st.composite
def random_topologies(draw):
    """Small random one-level topologies, feasible by construction.

    Server counts start at **zero** so degenerate fleets (a fully
    failed DC) flow through the whole sparse path; at least one DC
    always keeps a server.
    """
    K = draw(st.integers(1, 2))
    S = draw(st.integers(1, 2))
    L = draw(st.integers(1, 2))
    classes = tuple(
        RequestClass(
            f"c{k}",
            ConstantTUF(value=draw(st.floats(5.0, 20.0)),
                        deadline=draw(st.floats(0.01, 0.05))),
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
    """Random (arrivals, prices) per slot; arrivals may hit zero."""
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    slots = []
    for _ in range(num_slots):
        arrivals = np.array(
            [[draw(st.floats(0.0, 3000.0)) for _ in range(S)]
             for _ in range(K)]
        )
        prices = np.array([draw(st.floats(0.02, 0.15)) for _ in range(L)])
        slots.append((arrivals, prices))
    return slots


class TestSparseMatrixEquivalence:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_csr_cache_equals_dense_cache(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology))
        for per_server in (False, True):
            dense_cache = FixedLevelLPCache(topology, per_server=per_server)
            sparse_cache = FixedLevelLPCache(
                topology, per_server=per_server, sparse=True
            )
            for arrivals, prices in slots:
                inputs = SlotInputs(topology=topology, arrivals=arrivals,
                                    prices=prices)
                dense_lp, _ = dense_cache.build(inputs)
                sparse_lp, _ = sparse_cache.build(inputs)
                assert np.array_equal(dense_lp.a_ub,
                                      sparse_lp.a_ub.toarray())
                assert np.array_equal(dense_lp.b_ub, sparse_lp.b_ub)
                assert np.array_equal(dense_lp.c, sparse_lp.c)
                assert np.array_equal(dense_lp.lower, sparse_lp.lower)
                assert np.array_equal(dense_lp.upper, sparse_lp.upper)


class TestSparseSolverEquivalence:
    @given(pair=boxable_lp_pairs())
    @settings(max_examples=50, deadline=None)
    def test_cold_and_warm_match_highs(self, pair, certify):
        first, second = pair
        cold1 = solve_sparse_lp(first)
        ref1 = solve_lp(first, "highs")
        assert cold1.ok == ref1.ok
        if not ref1.ok:
            return
        assert _close(cold1.objective, ref1.objective)
        assert first.is_feasible(cold1.x, tol=1e-6)
        certify(first, cold1)
        # Warm re-solve of the perturbation (new c AND new b).
        warm = solve_sparse_lp(second, state=cold1.state)
        ref2 = solve_lp(second, "highs")
        assert warm.ok == ref2.ok
        if ref2.ok:
            assert _close(warm.objective, ref2.objective)
            assert second.is_feasible(warm.x, tol=1e-6)
            certify(second, warm)

    @given(pair=boxable_lp_pairs())
    @settings(max_examples=40, deadline=None)
    def test_presolved_sparse_matches_highs(self, pair, certify):
        lp, _ = pair
        result = presolve(lp)
        ref = solve_lp(lp, "highs")
        if result.verdict is not None:
            assert not ref.ok
            return
        if result.reduced is None:
            return
        inner = solve_sparse_lp(result.reduced)
        assert inner.ok == ref.ok
        if ref.ok:
            restored = result.restore(inner.x)
            assert _close(
                inner.objective + result.objective_offset, ref.objective
            )
            assert lp.is_feasible(restored, tol=1e-6)
            certify(result.reduced, inner)


class TestDecompositionEquivalence:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_accepted_decomposition_is_optimal(self, data, certify):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology))
        K, S, L = (topology.num_classes, topology.num_frontends,
                   topology.num_datacenters)
        blocks, coupling = class_blocks(K, S, L)
        cache = FixedLevelLPCache(topology, sparse=True)
        states = compiled = None
        for arrivals, prices in slots:
            inputs = SlotInputs(topology=topology, arrivals=arrivals,
                                prices=prices)
            lp, _ = cache.build(inputs)
            if compiled is None:
                compiled = compile_decomposition(lp, blocks, coupling)
            result = solve_decomposed(lp, compiled, states=states)
            ref = solve_lp(lp, "highs").require_ok()
            if result is None:
                continue  # coupling bound; the caller joint-solves
            states = result.states
            assert _close(result.solution.objective, ref.objective)
            assert lp.is_feasible(result.solution.x, tol=1e-6)
            certify(lp, result.solution, coupling_rows=coupling)


class TestOptimizerSparseEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sparse_optimizer_equals_dense(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology))
        dense = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(level_method="lp")
        )
        sparse_opt = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(level_method="lp", sparse=True)
        )
        for arrivals, prices in slots:
            dp = dense.plan_slot(arrivals, prices)
            sp = sparse_opt.plan_slot(arrivals, prices)
            assert sparse_opt.last_stats.fallback_level == 0
            assert _close(sparse_opt.last_stats.objective,
                          dense.last_stats.objective)
            # The LP can have alternative optima (near-idle fleets make
            # many share splits optimal), so plans are compared by the
            # realized profit they achieve, not elementwise.
            dense_profit = evaluate_plan(dp, arrivals, prices).net_profit
            sparse_profit = evaluate_plan(sp, arrivals, prices).net_profit
            assert _close(sparse_profit, dense_profit)
            assert np.all(sp.rates >= -1e-9)
            assert np.all(sp.shares >= -1e-9)
            assert np.all(sp.shares.sum(axis=0) <= 1.0 + 1e-6)
            assert np.all(
                sp.rates.sum(axis=2) <= arrivals * (1.0 + REL_TOL) + 1e-6
            )

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_sparse_warm_equals_sparse_cold(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology, num_slots=3))
        warm = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="lp", sparse=True, warm_start=True,
        ))
        cold = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="lp", sparse=True, warm_start=False,
        ))
        for arrivals, prices in slots:
            warm.plan_slot(arrivals, prices)
            cold.plan_slot(arrivals, prices)
            assert _close(warm.last_stats.objective,
                          cold.last_stats.objective)
