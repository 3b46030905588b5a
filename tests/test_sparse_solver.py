"""Unit tests for the sparse solver core (boxing, dual simplex,
decomposition) and its optimizer wiring — including the degenerate-slot
edges: zero-arrival frontends, zero-server data centers, single-server
data centers."""

import time

import numpy as np
import pytest
from scipy import sparse

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.config import OptimizerConfig
from repro.core.formulation import FixedLevelLPCache, SlotInputs, fixed_level_lp
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.experiments.section6 import SERVERS_PER_DC, section6_experiment
from repro.obs.collectors import InMemoryCollector
from repro.sim.failures import degraded_topology
from repro.solvers.base import LinearProgram, SolveStatus
from repro.solvers.linprog import solve_lp
from repro.solvers.sparse import (
    ImpliedBounds,
    class_blocks,
    compile_decomposition,
    implied_upper_bounds,
    solve_decomposed,
    solve_sparse_lp,
)

REL_TOL = 1e-6


def _random_boxable_lp(rng, n=8, m=5):
    """An LP the direct dual simplex covers: nonnegative rows box it."""
    a = rng.uniform(0.0, 2.0, (m, n)) * (rng.random((m, n)) < 0.6)
    a[0] = rng.uniform(0.5, 2.0, n)  # one dense nonnegative row boxes all
    b = rng.uniform(1.0, 5.0, m)
    c = rng.uniform(-2.0, 2.0, n)
    return LinearProgram(c=c, a_ub=sparse.csr_matrix(a), b_ub=b)


def _small_topology(servers=(3, 2), mu=3000.0):
    classes = (
        RequestClass("c0", ConstantTUF(8.0, 0.05), transfer_unit_cost=1e-4),
        RequestClass("c1", ConstantTUF(6.0, 0.08), transfer_unit_cost=2e-4),
    )
    datacenters = tuple(
        DataCenter(
            f"dc{l}", num_servers=count,
            service_rates=np.array([mu, mu * 1.2]),
            energy_per_request=np.array([2e-4, 3e-4]),
        )
        for l, count in enumerate(servers)
    )
    frontends = (FrontEnd("fe0"), FrontEnd("fe1"))
    distances = np.array([[200.0, 800.0], [500.0, 300.0]])
    return CloudTopology(
        request_classes=classes, frontends=frontends,
        datacenters=datacenters, distances=distances,
    )


def _slot_lp(topology, arrivals, prices):
    inputs = SlotInputs(topology, arrivals=arrivals, prices=prices)
    return fixed_level_lp(inputs, sparse=True)


def _section6_day_10x():
    """The §VI day's topology at 10x fleet plus its 24 slot inputs."""
    exp = section6_experiment()
    topo = exp.topology.with_servers_per_datacenter(SERVERS_PER_DC * 10)
    slots = [
        (exp.trace.arrivals_at(t), exp.market.prices_at(t))
        for t in range(exp.trace.num_slots)
    ]
    return topo, slots, exp.trace.slot_duration


class TestImpliedUpperBounds:
    def test_boxes_every_variable(self):
        lp = _random_boxable_lp(np.random.default_rng(0))
        upper = implied_upper_bounds(lp)
        assert upper is not None
        assert np.all(np.isfinite(upper))
        assert np.all(upper >= lp.lower)

    def test_bounds_do_not_cut_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lp = _random_boxable_lp(rng)
            upper = implied_upper_bounds(lp)
            boxed = LinearProgram(
                c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub,
                lower=lp.lower, upper=upper,
            )
            ref = solve_lp(lp, "highs").require_ok()
            tight = solve_lp(boxed, "highs").require_ok()
            assert tight.objective == pytest.approx(ref.objective, rel=1e-8)

    def test_unboxable_negative_cost_returns_none(self):
        # x1 has c < 0 and appears only in a mixed-sign row: no implied
        # bound, so the direct solver must decline.
        a = sparse.csr_matrix(np.array([[1.0, -1.0]]))
        lp = LinearProgram(c=np.array([0.5, -1.0]), a_ub=a,
                           b_ub=np.array([1.0]))
        assert implied_upper_bounds(lp) is None

    def test_unboxable_when_a_lower_bound_is_infinite(self):
        a = sparse.csr_matrix(np.array([[1.0, 1.0]]))
        lp = LinearProgram(c=np.array([-1.0, -1.0]), a_ub=a,
                           b_ub=np.array([1.0]),
                           lower=np.array([-np.inf, 0.0]))
        assert ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper) is None
        assert implied_upper_bounds(lp) is None

    def test_compiled_unboxable_negative_cost_returns_none(self):
        # The c < 0 test belongs to evaluation: the same compiled map
        # declines a slot whose cost wants the unboxed variable up and
        # serves one whose cost does not.
        a = sparse.csr_matrix(np.array([[1.0, -1.0]]))
        lp = LinearProgram(c=np.array([0.5, -1.0]), a_ub=a,
                           b_ub=np.array([1.0]))
        bounds = ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper)
        assert bounds is not None
        for b in (1.0, 4.0):
            assert bounds.evaluate(lp.c, np.array([b])) is None
        upper = bounds.evaluate(np.array([0.5, 1.0]), np.array([1.0]))
        assert upper is not None and np.all(np.isinf(upper))

    def test_compiled_bounds_match_fresh_slot_lps(self):
        # Compile once from the first slot, then evaluate later slots'
        # c/b_ub the way the decomposed solve does: bit-identical to
        # implied_upper_bounds of each freshly built LP.
        topo = _small_topology()
        rng = np.random.default_rng(10)
        first, _ = _slot_lp(topo, rng.uniform(100.0, 800.0, (2, 2)),
                            rng.uniform(0.03, 0.1, 2))
        bounds = ImpliedBounds.compile(first.a_ub, first.lower, first.upper)
        assert bounds is not None
        for _ in range(8):
            lp, _ = _slot_lp(topo, rng.uniform(0.0, 800.0, (2, 2)),
                             rng.uniform(0.03, 0.1, 2))
            fresh = implied_upper_bounds(lp)
            got = bounds.evaluate(lp.c, lp.b_ub)
            assert fresh is not None and got is not None
            assert got.tobytes() == fresh.tobytes()

    def test_compiled_bounds_match_fresh_random_lps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lp = _random_boxable_lp(rng)
            dense = lp.a_ub.toarray()
            bounds = ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper)
            for _ in range(5):
                c = rng.uniform(-2.0, 2.0, lp.c.size)
                b = rng.uniform(-1.0, 5.0, lp.b_ub.size)
                fresh = implied_upper_bounds(LinearProgram(
                    c=c, a_ub=sparse.csr_matrix(dense), b_ub=b,
                ))
                got = bounds.evaluate(c, b)
                assert (got is None) == (fresh is None)
                if got is not None:
                    assert got.tobytes() == fresh.tobytes()

    def test_slot_lp_is_boxable(self):
        topo = _small_topology()
        lp, _ = _slot_lp(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        upper = implied_upper_bounds(lp)
        assert upper is not None and np.all(np.isfinite(upper))


class TestSparseDualSimplex:
    def test_cold_matches_highs(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            lp = _random_boxable_lp(rng)
            got = solve_sparse_lp(lp)
            ref = solve_lp(lp, "highs").require_ok()
            assert got.ok
            assert got.objective == pytest.approx(ref.objective, rel=REL_TOL,
                                                  abs=1e-9)
            assert lp.is_feasible(got.x, tol=1e-6)

    def test_rhs_only_warm_resolve(self):
        rng = np.random.default_rng(3)
        lp = _random_boxable_lp(rng)
        first = solve_sparse_lp(lp)
        assert first.ok and first.state is not None
        # Same objective vector, perturbed rhs: the saved basis is still
        # dual feasible and the re-solve starts from it directly.
        nudged = LinearProgram(
            c=lp.c, a_ub=lp.a_ub,
            b_ub=lp.b_ub * rng.uniform(0.9, 1.1, lp.b_ub.size),
        )
        warm = solve_sparse_lp(nudged, state=first.state)
        ref = solve_lp(nudged, "highs").require_ok()
        assert warm.ok and warm.warm_start_used
        assert warm.objective == pytest.approx(ref.objective, rel=REL_TOL,
                                               abs=1e-9)

    def test_changed_objective_warm_resolve(self):
        rng = np.random.default_rng(4)
        lp = _random_boxable_lp(rng)
        first = solve_sparse_lp(lp)
        changed = LinearProgram(
            c=lp.c + rng.uniform(-0.5, 0.5, lp.c.size),
            a_ub=lp.a_ub, b_ub=lp.b_ub,
        )
        warm = solve_sparse_lp(changed, state=first.state)
        ref = solve_lp(changed, "highs").require_ok()
        assert warm.ok
        assert warm.objective == pytest.approx(ref.objective, rel=REL_TOL,
                                               abs=1e-9)

    def test_warm_saves_pivots_on_slot_sequence(self):
        topo = _small_topology()
        rng = np.random.default_rng(5)
        prices = rng.uniform(0.03, 0.12, 2)
        state = None
        cold_iters = warm_iters = 0
        for t in range(6):
            arrivals = rng.uniform(100.0, 800.0, (2, 2))
            lp, _ = _slot_lp(topo, arrivals, prices)
            cold = solve_sparse_lp(lp)
            warm = solve_sparse_lp(lp, state=state)
            state = warm.state or cold.state
            cold_iters += cold.iterations
            if t:
                warm_iters += warm.iterations
        assert warm_iters < cold_iters

    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(6)
        lp = _random_boxable_lp(rng)
        capped = solve_sparse_lp(lp, max_iterations=1)
        if capped.status is SolveStatus.ITERATION_LIMIT:
            assert not capped.ok
        else:  # one pivot genuinely sufficed
            assert capped.ok

    def test_equality_rows_fall_back_to_highs(self):
        collector = InMemoryCollector()
        lp = LinearProgram(
            c=np.array([1.0, 2.0]),
            a_eq=sparse.csr_matrix(np.array([[1.0, 1.0]])),
            b_eq=np.array([1.0]),
            upper=np.array([2.0, 2.0]),
        )
        got = solve_sparse_lp(lp, collector=collector)
        assert got.ok
        assert got.objective == pytest.approx(1.0, rel=1e-8)
        assert "sparse.cold_solves" not in collector.counters

    def test_tall_programs_route_to_highs(self, monkeypatch):
        import repro.solvers.sparse as sparse_mod

        monkeypatch.setattr(sparse_mod, "SPARSE_DIRECT_ROW_LIMIT", 2)
        collector = InMemoryCollector()
        lp = _random_boxable_lp(np.random.default_rng(7))
        got = solve_sparse_lp(lp, collector=collector)
        ref = solve_lp(lp, "highs").require_ok()
        assert got.ok
        assert got.objective == pytest.approx(ref.objective, rel=1e-8)
        assert "sparse.cold_solves" not in collector.counters

    def test_infeasible_lp_detected(self):
        # x <= 1 but x >= 2 by bounds: infeasible however it is solved.
        lp = LinearProgram(
            c=np.array([1.0]),
            a_ub=sparse.csr_matrix(np.array([[1.0]])),
            b_ub=np.array([1.0]),
            lower=np.array([2.0]), upper=np.array([3.0]),
        )
        assert not solve_sparse_lp(lp).ok


class TestDecomposition:
    def _lp_and_blocks(self, topo, arrivals, prices):
        lp, _ = _slot_lp(topo, arrivals, prices)
        K, S, L = (topo.num_classes, topo.num_frontends,
                   topo.num_datacenters)
        blocks, coupling = class_blocks(K, S, L)
        return lp, blocks, coupling

    def test_accepts_and_matches_joint_solve(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        result = solve_decomposed(
            lp, compile_decomposition(lp, blocks, coupling)
        )
        assert result is not None
        ref = solve_lp(lp, "highs").require_ok()
        assert result.solution.objective == pytest.approx(
            ref.objective, rel=REL_TOL, abs=1e-9
        )
        assert lp.is_feasible(result.solution.x, tol=1e-6)
        assert result.num_blocks == topo.num_classes
        assert len(result.states) == topo.num_classes

    def test_rejects_when_coupling_binds(self):
        # A starved fleet (low mu, one server per DC, heavy arrivals)
        # makes the share-budget rows bind; each block alone would grab
        # the whole budget, so the optimistic recombination must reject.
        topo = _small_topology(servers=(1, 1), mu=400.0)
        collector = InMemoryCollector()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[400.0, 400.0], [400.0, 400.0]]),
            prices=np.array([0.0001, 0.0001]),
        )
        result = solve_decomposed(
            lp, compile_decomposition(lp, blocks, coupling),
            collector=collector,
        )
        assert result is None
        assert collector.counters.get("sparse.coupling_rejects", 0) == 1

    def test_validate_rejects_overlapping_blocks(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        bad = [blocks[0], blocks[0]]
        with pytest.raises(ValueError, match="overlap"):
            compile_decomposition(lp, bad, coupling)

    def test_validate_rejects_partial_cover(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        with pytest.raises(ValueError, match="partition"):
            compile_decomposition(lp, blocks[:1], coupling)

    @pytest.mark.parametrize("other", [
        {"mu": 4000.0},          # another constraint matrix
        {"servers": (4, 2)},     # same matrix, other share bounds
    ])
    def test_rejects_lp_of_another_topology(self, other):
        arrivals = np.array([[500.0, 300.0], [200.0, 400.0]])
        prices = np.array([0.05, 0.08])
        lp, blocks, coupling = self._lp_and_blocks(
            _small_topology(), arrivals, prices
        )
        compiled = compile_decomposition(lp, blocks, coupling)
        foreign, _ = _slot_lp(_small_topology(**other), arrivals, prices)
        with pytest.raises(ValueError, match="compiled decomposition"):
            solve_decomposed(foreign, compiled)
        # An equal matrix from another cache of the same topology is the
        # compiled one, even though it is a different object.
        again, _ = _slot_lp(_small_topology(), arrivals, prices)
        assert again.a_ub is not lp.a_ub
        assert solve_decomposed(again, compiled) is not None


class TestCompiledSlotPath:
    """After the first slot compiles the blocks, a slot only gathers."""

    def test_later_slots_slice_and_construct_no_sparse_matrix(
        self, monkeypatch
    ):
        from scipy.sparse._compressed import _cs_matrix
        from scipy.sparse._index import IndexMixin

        counts = {"slices": 0, "constructions": 0}
        get_item, init = IndexMixin.__getitem__, _cs_matrix.__init__

        def counted_get_item(self, key):
            counts["slices"] += 1
            return get_item(self, key)

        def counted_init(self, *args, **kwargs):
            counts["constructions"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(IndexMixin, "__getitem__", counted_get_item)
        monkeypatch.setattr(_cs_matrix, "__init__", counted_init)
        topo, slots, duration = _section6_day_10x()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(sparse=True))
        opt.plan_slot(*slots[0], slot_duration=duration)
        # The first slot compiles: the counters do see scipy's work.
        assert counts["slices"] > 0 and counts["constructions"] > 0
        counts.update(slices=0, constructions=0)
        for arrivals, prices in slots[1:]:
            opt.plan_slot(arrivals, prices, slot_duration=duration)
            assert opt.last_stats.fallback_level == 0
        assert counts == {"slices": 0, "constructions": 0}

    def test_compiled_blocks_pivot_like_freshly_sliced_ones(self):
        # Reference: slice each block per slot and let solve_sparse_lp
        # build its own CSC and transpose.  The compiled route must give
        # the same points, pivots and warm states bit for bit, warm and
        # cold, with the objective changing on every other slot.
        topo = _small_topology()
        rng = np.random.default_rng(12)
        cache = FixedLevelLPCache(topo, sparse=True)
        blocks, coupling = class_blocks(
            topo.num_classes, topo.num_frontends, topo.num_datacenters
        )
        compiled = states = None
        ref_states = [None] * len(blocks)
        prices = rng.uniform(0.03, 0.1, 2)
        for t in range(8):
            if t % 2:
                prices = rng.uniform(0.03, 0.1, 2)
            lp, _ = cache.build(SlotInputs(
                topo, arrivals=rng.uniform(100.0, 800.0, (2, 2)),
                prices=prices,
            ))
            if compiled is None:
                compiled = compile_decomposition(lp, blocks, coupling)
            result = solve_decomposed(lp, compiled, states=states)
            assert result is not None
            states = result.states
            pivots = 0
            for k, blk in enumerate(blocks):
                ref = solve_sparse_lp(LinearProgram(
                    c=lp.c[blk.var_idx],
                    a_ub=lp.a_ub[blk.row_idx][:, blk.var_idx],
                    b_ub=lp.b_ub[blk.row_idx],
                    lower=lp.lower[blk.var_idx],
                    upper=lp.upper[blk.var_idx],
                ), state=ref_states[k])
                ref_states[k] = ref.state
                pivots += ref.iterations
                got = result.solution.x[blk.var_idx]
                assert ref.x.tobytes() == got.tobytes()
                assert np.array_equal(ref.state.basis, states[k].basis)
                assert np.array_equal(ref.state.slack, states[k].slack)
            assert pivots == result.solution.iterations

    def test_block_solves_report_sparse_counters(self):
        topo, slots, duration = _section6_day_10x()
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            sparse=True, collector=collector,
        ))
        for arrivals, prices in slots:
            opt.plan_slot(arrivals, prices, slot_duration=duration)
        counters = collector.counters
        pivots = sum(trace.iterations for trace in collector.slot_traces)
        assert counters["sparse.iterations"] == pivots == 33
        assert counters["sparse.decomposed_solves"] == len(slots)
        block_solves = (counters.get("sparse.warm_hits", 0)
                        + counters.get("sparse.cold_solves", 0))
        assert block_solves == (
            topo.num_classes * counters["sparse.decomposed_solves"]
        )


class TestBlockFailureAttribution:
    """A crash inside one decomposed block must name its class block."""

    def _decomposable(self):
        topo = _small_topology()
        lp, _ = _slot_lp(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        K, S, L = (topo.num_classes, topo.num_frontends,
                   topo.num_datacenters)
        blocks, coupling = class_blocks(K, S, L)
        return lp, compile_decomposition(lp, blocks, coupling)

    def test_serial_block_crash_carries_class_label(self, monkeypatch):
        from repro.sim.parallel import WorkerError
        from repro.solvers import sparse as sparse_mod

        def boom(*args):
            raise FloatingPointError("synthetic block crash")

        monkeypatch.setattr(sparse_mod, "_solve_block", boom)
        with pytest.raises(
            WorkerError,
            match=r"block\[class=0\]: FloatingPointError",
        ):
            lp, compiled = self._decomposable()
            solve_decomposed(lp, compiled)

    def test_serial_block_crash_chains_original_cause(self, monkeypatch):
        from repro.sim.parallel import WorkerError
        from repro.solvers import sparse as sparse_mod

        def boom(*args):
            raise FloatingPointError("synthetic block crash")

        monkeypatch.setattr(sparse_mod, "_solve_block", boom)
        lp, compiled = self._decomposable()
        with pytest.raises(WorkerError) as excinfo:
            solve_decomposed(lp, compiled)
        assert isinstance(excinfo.value.__cause__, FloatingPointError)


class TestOptimizerSparsePath:
    def _configs(self, **kw):
        dense = OptimizerConfig(level_method="lp", **kw)
        return dense, dense.replace(sparse=True)

    def _compare(self, topo, slots, **kw):
        dense_cfg, sparse_cfg = self._configs(**kw)
        dense = ProfitAwareOptimizer(topo, config=dense_cfg)
        sparse_opt = ProfitAwareOptimizer(topo, config=sparse_cfg)
        for arrivals, prices in slots:
            dp = dense.plan_slot(arrivals, prices)
            sp = sparse_opt.plan_slot(arrivals, prices)
            assert sparse_opt.last_stats.fallback_level == 0
            assert sparse_opt.last_stats.objective == pytest.approx(
                dense.last_stats.objective, rel=REL_TOL, abs=1e-9
            )
            assert np.allclose(dp.rates, sp.rates, rtol=REL_TOL, atol=1e-6)
        return sparse_opt

    def test_matches_dense_and_traces_stages(self):
        topo = _small_topology()
        rng = np.random.default_rng(8)
        slots = [
            (rng.uniform(100, 800, (2, 2)), rng.uniform(0.03, 0.1, 2))
            for _ in range(4)
        ]
        collector = InMemoryCollector()
        opt = self._compare(topo, slots, collector=collector)
        trace = collector.slot_traces[-1]
        assert {"build", "decompose", "solve", "expand"} <= set(
            trace.phase_times
        )
        assert opt.last_stats.active_servers > 0
        assert opt.last_stats.warm_outcome == "hit"

    def test_per_server_collapse_stage(self):
        topo = _small_topology()
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="lp", formulation="per_server", sparse=True,
            collector=collector,
        ))
        opt.plan_slot(np.array([[500.0, 300.0], [200.0, 400.0]]),
                      np.array([0.05, 0.08]))
        assert "collapse" in collector.slot_traces[-1].phase_times

    def test_zero_arrival_frontend(self):
        topo = _small_topology()
        slots = [(np.array([[0.0, 600.0], [0.0, 300.0]]),
                  np.array([0.05, 0.08]))]
        self._compare(topo, slots)

    def test_zero_arrival_class(self):
        topo = _small_topology()
        slots = [(np.array([[0.0, 0.0], [300.0, 300.0]]),
                  np.array([0.05, 0.08]))]
        self._compare(topo, slots)

    def test_all_zero_arrivals(self):
        topo = _small_topology()
        slots = [(np.zeros((2, 2)), np.array([0.05, 0.08]))]
        self._compare(topo, slots)

    def test_zero_server_datacenter(self):
        # A fully failed DC (as degraded_topology now produces) must
        # survive collapse and decomposition: its load pins to zero.
        topo = degraded_topology(_small_topology(), [3, 0])
        slots = [(np.array([[400.0, 200.0], [150.0, 250.0]]),
                  np.array([0.05, 0.08]))]
        opt = self._compare(topo, slots)
        plan = opt.plan_slot(*slots[0])
        offsets = topo.server_offsets()
        assert np.all(plan.rates[:, :, offsets[1]:] == 0.0)

    def test_single_server_datacenters(self):
        topo = _small_topology(servers=(1, 1))
        slots = [(np.array([[300.0, 200.0], [150.0, 250.0]]),
                  np.array([0.05, 0.08]))]
        self._compare(topo, slots)

    def test_reset_warm_state_clears_sparse_states(self):
        topo = _small_topology()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="lp", sparse=True,
        ))
        arrivals = np.array([[400.0, 200.0], [150.0, 250.0]])
        prices = np.array([0.05, 0.08])
        opt.plan_slot(arrivals, prices)
        assert (opt._sparse_block_states is not None
                or opt._sparse_joint_state is not None)
        opt.reset_warm_state()
        assert opt._sparse_block_states is None
        assert opt._sparse_joint_state is None
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_outcome == "cold"


class TestSparseFormulationScale:
    def test_fleet_scale_csr_build_and_audit_wall_time(self):
        # Satellite guard: the MD030-MD036 diagnostics must stay
        # structure-driven (nonzeros only).  At fleet_100x scale the old
        # dense row/column iteration took minutes; the CSR version runs
        # the whole pass in well under the budget below.
        topo = _small_topology().with_servers_per_datacenter(900)
        inputs = SlotInputs(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        start = time.perf_counter()
        lp, _ = fixed_level_lp(inputs, per_server=True, sparse=True)
        from repro.analysis import Finding
        from repro.analysis.model.matrix import analyze_program, matrix_details

        def make(code, severity, component, message, **data):
            return Finding(code=code, severity=severity,
                                component=component, message=message,
                                data=data)

        findings = list(analyze_program(lp, "lp", make))
        details = matrix_details(lp)
        elapsed = time.perf_counter() - start
        assert lp.a_ub.shape[0] > 3600  # genuinely fleet-sized
        assert details["columns"] == lp.num_variables
        assert not [f for f in findings if f.severity == "error"]
        assert elapsed < 5.0

    def test_sparse_cache_matches_dense_cache(self):
        topo = _small_topology()
        inputs = SlotInputs(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        for per_server in (False, True):
            dense_lp, _ = FixedLevelLPCache(
                topo, per_server=per_server
            ).build(inputs)
            sparse_lp, _ = FixedLevelLPCache(
                topo, per_server=per_server, sparse=True
            ).build(inputs)
            assert sparse.issparse(sparse_lp.a_ub)
            assert np.array_equal(dense_lp.a_ub,
                                  sparse_lp.a_ub.toarray())
            assert np.array_equal(dense_lp.b_ub, sparse_lp.b_ub)
            assert np.array_equal(dense_lp.c, sparse_lp.c)
            assert np.array_equal(dense_lp.upper, sparse_lp.upper)
