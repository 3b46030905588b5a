"""Best-first branch-and-bound MILP solver.

Solves :class:`~repro.solvers.base.MixedIntegerProgram` instances by
branching on fractional integer variables over LP relaxations — the
machinery the paper delegates to CPLEX.  A best-first node queue keyed
by the relaxation bound keeps the search focused; an optional relative
gap allows early termination.

Tests cross-check this solver against ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import optimize as scipy_optimize

from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    Solution,
    SolverState,
    SolveStatus,
    problem_signature,
)
from repro.solvers.linprog import solve_lp
from repro.solvers.tolerances import (
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    STRICT_TOL,
    ZERO_TOL,
)

__all__ = ["BranchAndBoundSolver", "solve_milp"]


@dataclass(order=True)
class _Node:
    bound: float
    tie: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBoundSolver:
    """Branch and bound over LP relaxations.

    Parameters
    ----------
    lp_method:
        LP backend for relaxations ("highs" or "simplex").
    max_nodes:
        Node budget; exceeding it returns ``ITERATION_LIMIT`` with the
        incumbent (if any).
    int_tol:
        A value within ``int_tol`` of an integer counts as integral.
    rel_gap:
        Terminate once ``(incumbent - bound) <= rel_gap * |incumbent|``.
    """

    def __init__(
        self,
        lp_method: str = "highs",
        max_nodes: int = 100_000,
        int_tol: float = INTEGRALITY_TOL,
        rel_gap: float = 0.0,
    ) -> None:
        self.lp_method = lp_method
        self.max_nodes = int(max_nodes)
        self.int_tol = float(int_tol)
        self.rel_gap = float(rel_gap)

    def _most_fractional(self, x: np.ndarray, mask: np.ndarray) -> Optional[int]:
        frac = np.abs(x - np.round(x))
        frac[~mask] = 0.0
        j = int(np.argmax(frac))
        if frac[j] <= self.int_tol:
            return None
        return j

    def _seed_incumbent(
        self, mip: MixedIntegerProgram, state: SolverState
    ) -> Tuple[Optional[np.ndarray], float, int]:
        """Build a starting incumbent from a prior solution's levels.

        Fixes every integer variable to the (rounded) value it took in
        the previous solve and re-optimizes the continuous variables —
        one LP.  If that restriction is feasible under the new data, its
        solution is a valid incumbent whose objective prunes the tree
        from node one.  Purely an acceleration: the search still
        explores everything strictly better, so the returned optimum is
        unchanged.
        """
        lp = mip.lp
        mask = mip.integer_mask
        prev = np.asarray(state.point, dtype=float)
        if prev.shape != (lp.num_variables,):
            return None, np.inf, 0
        vals = np.round(prev[mask])
        if np.any(vals < lp.lower[mask] - ZERO_TOL) \
                or np.any(vals > lp.upper[mask] + ZERO_TOL):
            return None, np.inf, 0
        lower = lp.lower.copy()
        upper = lp.upper.copy()
        lower[mask] = vals
        upper[mask] = vals
        restricted = LinearProgram(
            c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub,
            a_eq=lp.a_eq, b_eq=lp.b_eq,
            lower=lower, upper=upper,
        )
        sol = solve_lp(restricted, method=self.lp_method)
        if not sol.ok:
            return None, np.inf, sol.iterations
        x = sol.x.copy()
        x[mask] = np.round(x[mask])
        if not lp.is_feasible(x, tol=FEASIBILITY_TOL):
            return None, np.inf, sol.iterations
        return x, float(lp.c @ x), sol.iterations

    def solve(
        self,
        mip: MixedIntegerProgram,
        state: Optional[SolverState] = None,
        collector: Optional[Collector] = None,
    ) -> Solution:
        """Solve the MILP; returns the incumbent and node statistics.

        ``state`` may carry a previous solve's solution
        (:attr:`Solution.state`); its integer assignment seeds the
        incumbent (see :meth:`_seed_incumbent`), which typically prunes
        most of the tree when consecutive problems share their optimal
        level choices — the common case across the paper's hourly slots.
        ``collector`` (see :mod:`repro.obs`) receives node/iteration
        counters and incumbent-seeding hit/miss counts.
        """
        collector = collector if collector is not None else NULL_COLLECTOR
        lp = mip.lp
        mask = mip.integer_mask
        counter = itertools.count()

        root = _Node(
            bound=-np.inf, tie=next(counter),
            lower=lp.lower.copy(), upper=lp.upper.copy(),
        )
        heap = [root]
        incumbent_x: Optional[np.ndarray] = None
        incumbent_obj = np.inf
        nodes = 0
        iterations = 0
        warm_used = False
        any_feasible_relaxation = False
        if (
            state is not None
            and state.method == "bb"
            and state.point is not None
            and tuple(state.signature) == problem_signature(lp)
        ):
            with collector.timer("bb.seed_incumbent"):
                incumbent_x, incumbent_obj, seed_iters = self._seed_incumbent(
                    mip, state
                )
            iterations += seed_iters
            warm_used = incumbent_x is not None
        if state is not None:
            collector.increment(
                "bb.warm_hits" if warm_used else "bb.warm_misses"
            )

        while heap and nodes < self.max_nodes:
            node = heapq.heappop(heap)
            if node.bound >= incumbent_obj - self._gap_slack(incumbent_obj):
                continue  # pruned by bound
            nodes += 1
            relaxed = LinearProgram(
                c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub,
                a_eq=lp.a_eq, b_eq=lp.b_eq,
                lower=node.lower, upper=node.upper,
            )
            sol = solve_lp(relaxed, method=self.lp_method)
            iterations += sol.iterations
            if sol.status is SolveStatus.UNBOUNDED and node.depth == 0:
                return Solution(status=SolveStatus.UNBOUNDED, nodes=nodes,
                                iterations=iterations)
            if not sol.ok:
                continue  # infeasible subproblem
            any_feasible_relaxation = True
            if sol.objective >= incumbent_obj - self._gap_slack(incumbent_obj):
                continue
            branch_var = self._most_fractional(sol.x, mask)
            if branch_var is None:
                # Integral: new incumbent.
                x = sol.x.copy()
                x[mask] = np.round(x[mask])
                obj = float(lp.c @ x)
                if obj < incumbent_obj:
                    incumbent_obj = obj
                    incumbent_x = x
                continue
            value = sol.x[branch_var]
            floor_val = np.floor(value)
            # Down branch: x_j <= floor(value).
            down_upper = node.upper.copy()
            down_upper[branch_var] = floor_val
            if node.lower[branch_var] <= down_upper[branch_var]:
                heapq.heappush(heap, _Node(
                    bound=sol.objective, tie=next(counter),
                    lower=node.lower.copy(), upper=down_upper,
                    depth=node.depth + 1,
                ))
            # Up branch: x_j >= floor(value) + 1.
            up_lower = node.lower.copy()
            up_lower[branch_var] = floor_val + 1.0
            if up_lower[branch_var] <= node.upper[branch_var]:
                heapq.heappush(heap, _Node(
                    bound=sol.objective, tie=next(counter),
                    lower=up_lower, upper=node.upper.copy(),
                    depth=node.depth + 1,
                ))

        collector.increment("bb.nodes", nodes)
        collector.increment("bb.lp_iterations", iterations)
        if incumbent_x is not None:
            # Nodes left in the heap are only unexplored if the budget ran
            # out; otherwise every remaining node was prunable by bound.
            remaining = [n.bound for n in heap
                         if n.bound < incumbent_obj - self._gap_slack(incumbent_obj)]
            exhausted = nodes >= self.max_nodes and bool(remaining)
            remaining_bound = min(remaining, default=incumbent_obj)
            gap = max(0.0, incumbent_obj - remaining_bound)
            return Solution(
                status=SolveStatus.ITERATION_LIMIT if exhausted else SolveStatus.OPTIMAL,
                x=incumbent_x, objective=incumbent_obj,
                nodes=nodes, iterations=iterations, gap=gap,
                state=SolverState(
                    method="bb", signature=problem_signature(lp),
                    point=incumbent_x.copy(),
                ),
                warm_start_used=warm_used,
            )
        if nodes >= self.max_nodes:
            return Solution(status=SolveStatus.ITERATION_LIMIT, nodes=nodes,
                            iterations=iterations, message="node budget exhausted")
        message = ("LP relaxation infeasible" if not any_feasible_relaxation
                   else "no integral feasible point found")
        return Solution(status=SolveStatus.INFEASIBLE, nodes=nodes,
                        iterations=iterations, message=message)

    def _gap_slack(self, incumbent_obj: float) -> float:
        if not np.isfinite(incumbent_obj) or self.rel_gap <= 0.0:
            return STRICT_TOL
        return self.rel_gap * abs(incumbent_obj) + STRICT_TOL


def solve_milp(
    mip: MixedIntegerProgram,
    method: str = "bb",
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
    max_nodes: Optional[int] = None,
) -> Solution:
    """Solve a MILP with the own B&B (``"bb"``) or scipy HiGHS (``"highs"``).

    ``"bb"`` runs at ``rel_gap=0`` and is exact.  ``"highs"`` stops at
    HiGHS's default relative MILP gap of 1e-4: on the 280 slots of one
    seed-1 ``milp_audit`` pass (perfbench) it returned an objective
    short of the optimum on 6 slots, by up to 3.1e-5 relative.

    ``state`` seeds the branch-and-bound incumbent from a previous
    solution (see :meth:`BranchAndBoundSolver.solve`); the HiGHS bridge
    has no warm-start API and ignores it, but still emits a state so a
    later ``"bb"`` solve can pick it up.  ``collector`` (see
    :mod:`repro.obs`) receives node counters and solve timings.
    ``max_nodes`` caps the node count of either backend (``None`` keeps
    the defaults); exhausting it yields ``ITERATION_LIMIT``.
    """
    collector = collector if collector is not None else NULL_COLLECTOR
    if method == "bb":
        solver = (BranchAndBoundSolver() if max_nodes is None
                  else BranchAndBoundSolver(max_nodes=max_nodes))
        with collector.timer("bb.solve"):
            return solver.solve(mip, state=state, collector=collector)
    if method != "highs":
        raise ValueError(f"unknown MILP method {method!r}")

    lp = mip.lp
    constraints = []
    if lp.a_ub is not None:
        constraints.append(
            scipy_optimize.LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)
        )
    if lp.a_eq is not None:
        constraints.append(
            scipy_optimize.LinearConstraint(lp.a_eq, lp.b_eq, lp.b_eq)
        )
    # Tighten integer variables' bounds to integral values first — an
    # equivalent transformation that sidesteps a HiGHS-via-scipy bug
    # where fractional bounds on integer variables yield suboptimal
    # answers (observed on scipy 1.17: ub=1.25 behaves like ub=0).
    lower = lp.lower.copy()
    upper = lp.upper.copy()
    mask = mip.integer_mask
    lower[mask] = np.ceil(lower[mask] - ZERO_TOL)
    upper[mask] = np.floor(upper[mask] + ZERO_TOL)
    if np.any(lower > upper):
        return Solution(status=SolveStatus.INFEASIBLE,
                        message="no integral point within bounds")
    if state is not None:
        # The scipy bridge cannot consume a state; count the offer so
        # warm-start accounting stays truthful for the HiGHS path.
        collector.increment("highs.milp_warm_misses")
    options = {} if max_nodes is None else {"node_limit": int(max_nodes)}
    with collector.timer("highs.milp_solve"):
        result = scipy_optimize.milp(
            c=lp.c,
            constraints=constraints or None,
            integrality=mask.astype(int),
            bounds=scipy_optimize.Bounds(lower, upper),
            options=options or None,
        )
    if result.status == 0 and result.x is not None:
        x = np.clip(result.x, lower, upper)
        return Solution(status=SolveStatus.OPTIMAL, x=x,
                        objective=float(lp.c @ x),
                        message=str(result.message or ""),
                        state=SolverState(
                            method="bb", signature=problem_signature(lp),
                            point=np.asarray(x, dtype=float).copy(),
                        ))
    status = {2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}.get(
        result.status, SolveStatus.NUMERICAL_ERROR
    )
    if result.status == 1:
        status = SolveStatus.ITERATION_LIMIT
    return Solution(status=status, message=str(result.message or ""))
