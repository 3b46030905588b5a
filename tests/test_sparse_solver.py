"""Unit tests for the sparse solver core (boxing, dual simplex, the
compiled program) and its optimizer wiring — including the
degenerate-slot edges: zero-arrival frontends, zero-server data centers,
single-server data centers."""

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
    SparseProgram,
    implied_upper_bounds,
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


def _section6_day(multiplier):
    """The §VI day's topology at ``multiplier``x fleet plus its 24 slot
    inputs and slot duration."""
    exp = section6_experiment()
    topo = exp.topology
    if multiplier != 1:
        topo = topo.with_servers_per_datacenter(SERVERS_PER_DC * multiplier)
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
        # c/b_ub the way a compiled program does: bit-identical to
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

    def test_point_failing_terminal_check_goes_to_highs(self, monkeypatch):
        # Shift every primal point the restart and the pivots compute
        # off its rows: the terminal feasibility check must reject the
        # clipped point and hand the program to HiGHS.
        import repro.solvers.sparse as sparse_mod

        point = sparse_mod._primal_point

        def shifted(r):
            worst = point(r)
            r.x[:r.program.n] += 10.0
            return worst

        monkeypatch.setattr(sparse_mod, "_primal_point", shifted)
        collector = InMemoryCollector()
        lp = _random_boxable_lp(np.random.default_rng(13))
        got = solve_sparse_lp(lp, collector=collector)
        ref = solve_lp(lp, "highs").require_ok()
        assert got.ok and got.state is None
        assert got.objective == pytest.approx(ref.objective, rel=1e-8)
        assert collector.counters["sparse.highs_fallbacks"] == 1
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


class TestCompiledProgram:
    def test_equality_rows_are_rejected(self):
        # x0 - x2 = 0 ties columns 0 and 2 together; a program compiled
        # from the inequality rows alone must not serve the LP that has
        # the equality row.
        a_ub = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0],
                                           [0.0, 0.0, 1.0, 1.0],
                                           [1.0, 0.0, 1.0, 0.0]]))
        lp = LinearProgram(
            c=np.array([-1.0, -1.5, -2.0, -1.0]),
            a_ub=a_ub, b_ub=np.array([4.0, 4.0, 8.0]),
            a_eq=sparse.csr_matrix(np.array([[1.0, 0.0, -1.0, 0.0]])),
            b_eq=np.array([0.0]),
        )
        with pytest.raises(ValueError, match="equality rows"):
            SparseProgram.compile(lp)
        program = SparseProgram.compile(
            LinearProgram(c=lp.c, a_ub=a_ub, b_ub=lp.b_ub)
        )
        assert not program.matches(lp)
        with pytest.raises(ValueError, match="compiled program"):
            program.solve(lp)
        ref = solve_lp(lp, "highs").require_ok()
        assert np.allclose(ref.x, [4.0, 0.0, 4.0, 0.0])
        assert solve_sparse_lp(lp).x.tolist() == ref.x.tolist()

    @pytest.mark.parametrize("other", [
        {"mu": 4000.0},          # another constraint matrix
        {"servers": (4, 2)},     # same matrix, other share bounds
    ])
    def test_rejects_lp_of_another_topology(self, other):
        arrivals = np.array([[500.0, 300.0], [200.0, 400.0]])
        prices = np.array([0.05, 0.08])
        lp, _ = _slot_lp(_small_topology(), arrivals, prices)
        program = SparseProgram.compile(lp)
        foreign, _ = _slot_lp(_small_topology(**other), arrivals, prices)
        with pytest.raises(ValueError, match="compiled program"):
            program.solve(foreign)
        # An equal matrix from another cache of the same topology is the
        # compiled one, even though it is a different object.
        again, _ = _slot_lp(_small_topology(), arrivals, prices)
        assert again.a_ub is not lp.a_ub
        assert program.solve(again).ok


class TestCompiledSlotPath:
    """After the first slot compiles the program, a slot only gathers."""

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
        for multiplier in (1, 10):
            topo, slots, duration = _section6_day(multiplier)
            opt = ProfitAwareOptimizer(
                topo, config=OptimizerConfig(sparse=True)
            )
            counts.update(slices=0, constructions=0)
            opt.plan_slot(*slots[0], slot_duration=duration)
            # The first slot compiles: the counters do see scipy's work.
            assert counts["constructions"] > 0
            counts.update(slices=0, constructions=0)
            for arrivals, prices in slots[1:]:
                opt.plan_slot(arrivals, prices, slot_duration=duration)
                assert opt.last_stats.fallback_level == 0
            assert counts == {"slices": 0, "constructions": 0}, multiplier

    def test_warm_slot_factors_once_and_builds_no_program(
        self, monkeypatch
    ):
        # A warm slot restarts the compiled program: at most one
        # np.linalg.inv, for a token basis the program has not factored
        # before, and no LinearProgram (only a HiGHS fallback would
        # build one).  Over the day each distinct basis is inverted
        # once; the program keeps its inverses across reset_warm_state,
        # so a replayed day inverts nothing.
        counts = {"inv": 0, "programs": 0}
        offered = []
        inside = [False]
        inv, post_init = np.linalg.inv, LinearProgram.__post_init__
        solve = SparseProgram.solve

        def counted_inv(*args, **kwargs):
            counts["inv"] += inside[0]
            return inv(*args, **kwargs)

        def counted_post_init(self):
            counts["programs"] += inside[0]
            post_init(self)

        def traced_solve(*args, **kwargs):
            state = kwargs.get("state")
            offered.append(None if state is None else state.basis.tobytes())
            inside[0] = True
            try:
                return solve(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(LinearProgram, "__post_init__", counted_post_init)
        monkeypatch.setattr(SparseProgram, "solve", traced_solve)
        for multiplier in (1, 10):
            topo, slots, duration = _section6_day(multiplier)
            opt = ProfitAwareOptimizer(
                topo, config=OptimizerConfig(sparse=True)
            )
            seen = set()
            for day in range(2):
                opt.reset_warm_state()
                counts.update(inv=0, programs=0)
                opt.plan_slot(*slots[0], slot_duration=duration)
                assert opt.last_stats.warm_start == "cold"
                assert counts == {"inv": 0, "programs": 0}
                inverted = 0
                for arrivals, prices in slots[1:]:
                    counts.update(inv=0, programs=0)
                    opt.plan_slot(arrivals, prices, slot_duration=duration)
                    assert opt.last_stats.warm_start == "hit"
                    basis = offered[-1]
                    assert counts == {
                        "inv": int(basis not in seen), "programs": 0,
                    }, (multiplier, day)
                    inverted += counts["inv"]
                    seen.add(basis)
                if day == 0:
                    # Some basis recurs within the day and costs nothing.
                    assert 1 <= inverted == len(seen) < len(slots) - 1
                else:
                    assert inverted == 0

    def test_section6_day_restarts_warm_from_slot_one(self):
        # One program, one token: slot 0 starts cold and every later
        # slot restarts from the previous slot's token.
        topo, slots, duration = _section6_day(1)
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            sparse=True, collector=collector,
        ))
        for arrivals, prices in slots:
            opt.plan_slot(arrivals, prices, slot_duration=duration)
        traces = collector.slot_traces
        assert [t.warm_start for t in traces] == ["cold"] + ["hit"] * 23
        counters = collector.counters
        assert counters["sparse.warm_hits"] == 23
        assert counters["sparse.cold_solves"] == 1
        assert counters["sparse.iterations"] == sum(
            t.iterations for t in traces
        )


class TestSection6SlotLP:
    """The traffic the one-program sparse path rests on."""

    @pytest.mark.parametrize("multiplier", [1, 10, 100])
    def test_every_slot_solves_on_the_direct_dual_simplex(self, multiplier):
        # The symmetry collapse keeps the §VI slot LP at 24 x 45 at any
        # fleet size, far below SPARSE_DIRECT_ROW_LIMIT, and every slot
        # of the day solves on the dual simplex without a fallback.
        topo, slots, duration = _section6_day(multiplier)
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            sparse=True, collector=collector,
        ))
        dense = ProfitAwareOptimizer(topo, config=OptimizerConfig())
        for arrivals, prices in slots:
            opt.plan_slot(arrivals, prices, slot_duration=duration)
            dense.plan_slot(arrivals, prices, slot_duration=duration)
            trace = opt.last_stats
            assert (trace.num_constraints, trace.num_variables) == (24, 45)
            assert trace.fallback == 0
            assert trace.objective == pytest.approx(
                dense.last_stats.objective, rel=REL_TOL, abs=1e-9
            )
        counters = collector.counters
        assert "sparse.highs_fallbacks" not in counters
        assert "sparse.box_fallbacks" not in counters
        assert (counters["sparse.warm_hits"]
                + counters["sparse.cold_solves"]) == len(slots)


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
        assert {"build", "solve", "expand"} <= set(trace.phase_times)
        assert "decompose" not in trace.phase_times
        assert opt.last_stats.active_servers > 0
        assert opt.last_stats.warm_start == "hit"

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
        assert opt._sparse_state is not None
        opt.reset_warm_state()
        assert opt._sparse_state is None
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_start == "cold"


class TestSparseFormulationScale:
    def test_fleet_scale_csr_build_and_audit_wall_time(self):
        # Satellite guard: the MD030-MD036 diagnostics must stay
        # structure-driven (nonzeros only).  At fleet_100x scale the old
        # dense row/column iteration took minutes; the CSR version runs
        # the whole pass in well under the budget below.
        # The per-server layout: every one of the 1800 servers is its
        # own data center, at its data center's price.
        topo = _small_topology().with_servers_per_datacenter(900)
        inputs = SlotInputs(
            topo.per_server(),
            arrivals=np.array([[500.0, 300.0], [200.0, 400.0]]),
            prices=np.repeat([0.05, 0.08], 900),
        )
        start = time.perf_counter()
        lp, _ = fixed_level_lp(inputs, sparse=True)
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
        per_server = SlotInputs(
            topo.per_server(),
            arrivals=inputs.arrivals,
            prices=np.repeat(inputs.prices, topo.servers_per_datacenter),
        )
        for slot in (inputs, per_server):
            dense_lp, _ = FixedLevelLPCache(slot.topology).build(slot)
            sparse_lp, _ = FixedLevelLPCache(
                slot.topology, sparse=True
            ).build(slot)
            assert sparse.issparse(sparse_lp.a_ub)
            assert np.array_equal(dense_lp.a_ub,
                                  sparse_lp.a_ub.toarray())
            assert np.array_equal(dense_lp.b_ub, sparse_lp.b_ub)
            assert np.array_equal(dense_lp.c, sparse_lp.c)
            assert np.array_equal(dense_lp.upper, sparse_lp.upper)
