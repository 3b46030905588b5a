"""Tests for branch-and-bound MILP, penalty NLP, and level search."""

import itertools

import numpy as np
import pytest

from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    SolveStatus,
)
from repro.solvers.branch_bound import BranchAndBoundSolver, solve_milp
from repro.solvers.levels import (
    branch_and_bound_levels,
    coordinate_descent_levels,
)
from repro.solvers.penalty import NonlinearProgram, PenaltySolver


class TestBranchAndBound:
    def test_knapsack(self):
        # max 10a+6b+4c st a+b+c<=2 (binary) -> pick a,b = 16.
        lp = LinearProgram(
            c=[-10.0, -6.0, -4.0],
            a_ub=[[1.0, 1.0, 1.0]],
            b_ub=[2.0],
            upper=[1.0, 1.0, 1.0],
        )
        mip = MixedIntegerProgram(lp, integer_mask=[True] * 3)
        sol = BranchAndBoundSolver().solve(mip)
        assert sol.ok
        assert sol.objective == pytest.approx(-16.0)
        assert sorted(sol.x.tolist()) == pytest.approx([0.0, 1.0, 1.0])

    def test_integer_rounding_not_valid(self):
        # Fractional relaxation optimum (x=2.5) must branch to x=2.
        lp = LinearProgram(c=[-1.0], a_ub=[[2.0]], b_ub=[5.0])
        mip = MixedIntegerProgram(lp, integer_mask=[True])
        sol = BranchAndBoundSolver().solve(mip)
        assert sol.ok
        assert sol.x == pytest.approx([2.0])

    def test_mixed_continuous_and_integer(self):
        # max x + 10y, x cont <= 3.7, y binary, x + y <= 4.
        lp = LinearProgram(
            c=[-1.0, -10.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[4.0],
            upper=[3.7, 1.0],
        )
        mip = MixedIntegerProgram(lp, integer_mask=[False, True])
        sol = BranchAndBoundSolver().solve(mip)
        assert sol.ok
        assert sol.x == pytest.approx([3.0, 1.0])

    def test_infeasible_integrality(self):
        # 0.4 <= x <= 0.6 with x integer: infeasible.
        lp = LinearProgram(c=[1.0], lower=[0.4], upper=[0.6])
        mip = MixedIntegerProgram(lp, integer_mask=[True])
        sol = BranchAndBoundSolver().solve(mip)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0])
        mip = MixedIntegerProgram(lp, integer_mask=[True])
        assert BranchAndBoundSolver().solve(mip).status is SolveStatus.UNBOUNDED

    def test_node_budget(self):
        rng = np.random.default_rng(0)
        n = 12
        lp = LinearProgram(
            c=-rng.uniform(1, 2, size=n),
            a_ub=rng.uniform(0.1, 1.0, size=(4, n)),
            b_ub=np.full(4, 2.0),
            upper=np.ones(n),
        )
        mip = MixedIntegerProgram(lp, integer_mask=[True] * n)
        sol = BranchAndBoundSolver(max_nodes=2).solve(mip)
        assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.OPTIMAL)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_scipy_milp(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 3
        lp = LinearProgram(
            c=rng.normal(size=n),
            a_ub=rng.uniform(-1, 1, size=(m, n)),
            b_ub=rng.uniform(1, 3, size=m),
            upper=np.full(n, 3.0),
        )
        mask = rng.random(n) < 0.5
        mip = MixedIntegerProgram(lp, integer_mask=mask)
        ours = solve_milp(mip, "bb")
        ref = solve_milp(mip, "highs")
        assert ours.status == ref.status
        if ref.ok:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
            # Integrality of our solution.
            assert np.allclose(ours.x[mask], np.round(ours.x[mask]))

    def test_rel_gap_early_stop(self):
        lp = LinearProgram(
            c=[-5.0, -4.0, -3.0],
            a_ub=[[2.0, 3.0, 1.0], [4.0, 1.0, 2.0]],
            b_ub=[5.0, 11.0],
            upper=[10.0] * 3,
        )
        mip = MixedIntegerProgram(lp, integer_mask=[True] * 3)
        sol = BranchAndBoundSolver(rel_gap=0.5).solve(mip)
        assert sol.x is not None

    def test_solve_milp_unknown_method(self):
        lp = LinearProgram(c=[1.0])
        mip = MixedIntegerProgram(lp, integer_mask=[True])
        with pytest.raises(ValueError):
            solve_milp(mip, "magic")


class TestPenaltySolver:
    def test_bound_constrained_quadratic(self):
        nlp = NonlinearProgram(
            objective=lambda x: float((x[0] - 3.0) ** 2),
            lower=np.array([0.0]), upper=np.array([10.0]),
        )
        sol = PenaltySolver().solve(nlp)
        assert sol.ok
        assert sol.x[0] == pytest.approx(3.0, abs=1e-4)

    def test_inequality_constraint(self):
        # min (x-3)^2 st x <= 1 -> x = 1.
        nlp = NonlinearProgram(
            objective=lambda x: float((x[0] - 3.0) ** 2),
            lower=np.array([0.0]), upper=np.array([10.0]),
            ineq=lambda x: np.array([x[0] - 1.0]),
        )
        sol = PenaltySolver().solve(nlp)
        assert sol.ok
        assert sol.x[0] == pytest.approx(1.0, abs=1e-3)

    def test_equality_constraint(self):
        # min x^2+y^2 st x+y=2 -> (1,1).
        nlp = NonlinearProgram(
            objective=lambda x: float(x @ x),
            lower=np.full(2, -5.0), upper=np.full(2, 5.0),
            eq=lambda x: np.array([x[0] + x[1] - 2.0]),
        )
        sol = PenaltySolver().solve(nlp)
        assert sol.ok
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_violation_metric(self):
        nlp = NonlinearProgram(
            objective=lambda x: 0.0,
            lower=np.array([0.0]), upper=np.array([1.0]),
            ineq=lambda x: np.array([x[0] - 0.5]),
        )
        assert nlp.violation(np.array([0.8])) == pytest.approx(0.3)
        assert nlp.violation(np.array([0.2])) == 0.0

    def test_infeasible_reported(self):
        # x <= -1 with x in [0, 1]: no feasible point.
        nlp = NonlinearProgram(
            objective=lambda x: float(x[0]),
            lower=np.array([0.0]), upper=np.array([1.0]),
            ineq=lambda x: np.array([x[0] + 1.0]),
        )
        sol = PenaltySolver(multi_start=1).solve(nlp)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_threading_contract_state_and_collector(self):
        # RP004 contract: solve accepts state/collector, emits a reusable
        # state, and a warm re-solve from it lands on the same optimum.
        from repro.obs.collectors import InMemoryCollector

        nlp = NonlinearProgram(
            objective=lambda x: float((x[0] - 3.0) ** 2),
            lower=np.array([0.0]), upper=np.array([10.0]),
        )
        collector = InMemoryCollector()
        cold = PenaltySolver().solve(nlp, collector=collector)
        assert cold.ok
        assert cold.state is not None and cold.state.method == "penalty"
        assert not cold.warm_start_used
        assert collector.counters.get("penalty.starts", 0) > 0

        warm = PenaltySolver().solve(nlp, state=cold.state,
                                     collector=collector)
        assert warm.ok
        assert warm.warm_start_used
        assert warm.x[0] == pytest.approx(cold.x[0], abs=1e-6)
        assert collector.counters.get("penalty.warm_hits", 0) == 1

    def test_stale_state_rejected(self):
        # A state from a different variable count is ignored, not fatal.
        nlp1 = NonlinearProgram(
            objective=lambda x: float(x @ x),
            lower=np.full(2, -1.0), upper=np.full(2, 1.0),
        )
        nlp2 = NonlinearProgram(
            objective=lambda x: float((x[0] - 0.5) ** 2),
            lower=np.array([0.0]), upper=np.array([1.0]),
        )
        state = PenaltySolver().solve(nlp1).state
        sol = PenaltySolver().solve(nlp2, state=state)
        assert sol.ok
        assert not sol.warm_start_used
        assert sol.x[0] == pytest.approx(0.5, abs=1e-4)


class TestCoordinateDescentLevels:
    def test_finds_separable_optimum(self):
        target = (1, 0, 2)

        def evaluate(vec):
            return -sum((a - b) ** 2 for a, b in zip(vec, target))

        best, value, evals = coordinate_descent_levels([3, 2, 3], evaluate)
        assert best == target
        assert value == 0.0
        assert evals >= 1

    def test_respects_initial(self):
        calls = []

        def evaluate(vec):
            calls.append(vec)
            return 0.0

        best, _, _ = coordinate_descent_levels([2], evaluate, initial=[1])
        assert calls[0] == (1,)
        assert best == (1,)

    def test_handles_minus_inf(self):
        def evaluate(vec):
            return -np.inf if vec[0] == 1 else float(vec[0] == 0)

        best, value, _ = coordinate_descent_levels([2], evaluate)
        assert best == (0,)
        assert value == 1.0

    def test_validates_sizes(self):
        with pytest.raises(ValueError):
            coordinate_descent_levels([0], lambda v: 0.0)
        with pytest.raises(ValueError):
            coordinate_descent_levels([2], lambda v: 0.0, initial=[5])


def _separable_oracle(values, calls=None):
    """Node oracle over a table of per-(position, level) values: a
    prefix's bound adds each free position's best value."""
    def evaluate(prefix):
        if calls is not None:
            calls.append(prefix)
        fixed = sum(values[p][q] for p, q in enumerate(prefix))
        free = sum(max(row) for row in values[len(prefix):])
        return fixed + free
    return evaluate


class TestBranchAndBoundLevels:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_on_coupled_objectives(self, seed):
        # f(v) = sum_p a[p][v_p] + sum_{p<r} b[p][r][v_p][v_r] with
        # b <= 0: a prefix's bound counts the free positions' best a
        # and no pair that touches a free position.
        rng = np.random.default_rng(seed)
        sizes = list(rng.integers(1, 4, size=4))
        a = [rng.normal(size=n) for n in sizes]
        b = {(p, r): -rng.exponential(size=(sizes[p], sizes[r]))
             for p in range(4) for r in range(p + 1, 4)}

        def evaluate(prefix):
            d = len(prefix)
            value = sum(a[p][q] for p, q in enumerate(prefix))
            value += sum(a[p].max() for p in range(d, 4))
            value += sum(b[p, r][prefix[p], prefix[r]]
                         for p in range(d) for r in range(p + 1, d))
            return value

        best, value, evals, exhausted = branch_and_bound_levels(
            sizes, evaluate)
        vectors = list(itertools.product(*(range(n) for n in sizes)))
        reference = max(vectors, key=evaluate)
        assert exhausted
        assert value == evaluate(reference)
        assert best == reference
        assert evals <= 1 + sum(np.cumprod(sizes))

    def test_prunes_dominated_subtrees(self):
        values = [[5.0, 1.0], [4.0, 0.0], [3.0, 2.0]]
        calls = []
        best, value, evals, exhausted = branch_and_bound_levels(
            [2, 2, 2], _separable_oracle(values, calls))
        assert (best, value, exhausted) == ((0, 0, 0), 12.0, True)
        # The first dive reaches the optimum; every sibling's bound is
        # then no better, so nothing else is evaluated.
        assert calls == [(), (0,), (0, 0), (0, 0, 0)]
        assert evals == 4

    def test_one_choice_positions_cost_no_evaluation(self):
        calls = []
        best, _, evals, _ = branch_and_bound_levels(
            [1, 2, 1], _separable_oracle([[1.0], [0.0, 2.0], [3.0]], calls))
        assert best == (0, 1, 0)
        assert all(len(prefix) in (1, 3) for prefix in calls)
        assert evals == 3

    def test_infeasible_nodes_are_pruned(self):
        def evaluate(prefix):
            if prefix[:1] == (0,):
                return -np.inf
            return float(sum(prefix) + 2 - len(prefix))

        best, value, _, exhausted = branch_and_bound_levels([2, 2], evaluate)
        assert exhausted
        assert best == (1, 1)
        assert value == 2.0

    def test_no_feasible_leaf(self):
        best, value, evals, exhausted = branch_and_bound_levels(
            [2, 2], lambda prefix: -np.inf)
        assert best is None
        assert value == -np.inf
        assert evals == 1
        assert exhausted

    def test_budget_reports_an_unfinished_tree(self):
        values = [[1.0, 5.0], [1.0, 5.0]]
        best, _, evals, exhausted = branch_and_bound_levels(
            [2, 2], _separable_oracle(values), max_evaluations=2)
        assert evals == 2
        assert not exhausted

    def test_ties_resolve_to_the_first_level(self):
        best, _, _, _ = branch_and_bound_levels(
            [3, 3], lambda prefix: 0.0)
        assert best == (0, 0)

    def test_validates_sizes(self):
        with pytest.raises(ValueError):
            branch_and_bound_levels([2, 0], lambda prefix: 0.0)
