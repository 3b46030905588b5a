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
from repro.obs.collectors import InMemoryCollector
from repro.sim.failures import degraded_topology
from repro.sim.parallel import parallel_map
from repro.solvers.base import LinearProgram, SolveStatus
from repro.solvers.linprog import solve_lp
from repro.solvers.sparse import (
    class_blocks,
    implied_upper_bounds,
    solve_decomposed,
    solve_sparse_lp,
    validate_block_plan,
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
        validate_block_plan(lp, blocks, coupling)
        return lp, blocks, coupling

    def test_accepts_and_matches_joint_solve(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        result = solve_decomposed(lp, blocks, coupling)
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
        result = solve_decomposed(lp, blocks, coupling,
                                  collector=collector)
        assert result is None
        assert collector.counters.get("sparse.coupling_rejects", 0) == 1

    def test_worker_pool_matches_serial(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        serial = solve_decomposed(lp, blocks, coupling)
        pooled = solve_decomposed(lp, blocks, coupling, workers=2)
        assert serial is not None and pooled is not None
        assert pooled.solution.objective == pytest.approx(
            serial.solution.objective, rel=1e-9
        )

    def test_validate_rejects_overlapping_blocks(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        bad = [blocks[0], blocks[0]]
        with pytest.raises(ValueError, match="overlap"):
            validate_block_plan(lp, bad, coupling)

    def test_validate_rejects_partial_cover(self):
        topo = _small_topology()
        lp, blocks, coupling = self._lp_and_blocks(
            topo,
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.array([0.05, 0.08]),
        )
        with pytest.raises(ValueError, match="partition"):
            validate_block_plan(lp, blocks[:1], coupling)


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(lambda v: v * v, [3, 1, 2]) == [9, 1, 4]

    def test_preserves_order_pooled(self):
        assert parallel_map(_square, list(range(8)), workers=2) == [
            v * v for v in range(8)
        ]

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            parallel_map(_square, [1], workers=0)

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_explode, [1])

    def test_unlabeled_exception_type_unchanged(self):
        # Without labels the original exception class must survive —
        # callers may be catching it specifically.
        from repro.sim.parallel import WorkerError

        with pytest.raises(RuntimeError) as excinfo:
            parallel_map(_explode, [1, 2])
        assert not isinstance(excinfo.value, WorkerError)

    def test_labels_attribute_failures_serial(self):
        from repro.sim.parallel import WorkerError

        with pytest.raises(WorkerError, match=r"item\[1\]: RuntimeError"):
            parallel_map(
                _explode_on_two, [1, 2], labels=["item[0]", "item[1]"]
            )

    def test_labels_attribute_failures_pooled(self):
        from repro.sim.parallel import WorkerError

        items = list(range(4))
        with pytest.raises(WorkerError, match=r"item\[2\]: RuntimeError"):
            parallel_map(
                _explode_on_two, items, workers=2,
                labels=[f"item[{i}]" for i in items],
            )

    def test_labels_chain_original_cause_serial(self):
        from repro.sim.parallel import WorkerError

        with pytest.raises(WorkerError) as excinfo:
            parallel_map(_explode, [1], labels=["only"])
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parallel_map(_square, [1, 2], labels=["just-one"])

    def test_successful_labeled_map_returns_results(self):
        assert parallel_map(
            _square, [1, 2, 3], labels=["a", "b", "c"]
        ) == [1, 4, 9]


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
        return lp, blocks, coupling

    def test_serial_block_crash_carries_class_label(self, monkeypatch):
        from repro.sim.parallel import WorkerError
        from repro.solvers import sparse as sparse_mod

        def boom(task):
            raise FloatingPointError("synthetic block crash")

        monkeypatch.setattr(sparse_mod, "_solve_block_task", boom)
        with pytest.raises(
            WorkerError,
            match=r"block\[class=0\]: FloatingPointError",
        ):
            lp, blocks, coupling = self._decomposable()
            solve_decomposed(lp, blocks, coupling)

    def test_pooled_block_crash_carries_class_label(self, monkeypatch):
        # Force the pooled branch with workers=2; the label must
        # survive the process boundary (no __cause__ there, so the
        # class name is folded into the message).
        from repro.sim.parallel import WorkerError
        from repro.solvers import sparse as sparse_mod

        lp, blocks, coupling = self._decomposable()
        monkeypatch.setattr(
            sparse_mod, "_solve_block_task", _explode_block
        )
        with pytest.raises(WorkerError, match=r"block\[class="):
            solve_decomposed(lp, blocks, coupling, workers=2)


def _square(v):
    return v * v


def _explode(v):
    raise RuntimeError("boom")


def _explode_on_two(v):
    if v == 2:
        raise RuntimeError("boom at two")
    return v


def _explode_block(task):
    raise FloatingPointError("synthetic block crash")


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
