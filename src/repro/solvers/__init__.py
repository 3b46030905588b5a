"""Optimization solver substrate.

The paper solves its slot problems with commercial tools (ILOG CPLEX and
AIMMS).  This package provides the equivalent machinery from scratch:

* :mod:`repro.solvers.base` — problem/solution datatypes;
* :mod:`repro.solvers.simplex` — a dense two-phase primal simplex LP
  solver (no external dependencies);
* :mod:`repro.solvers.linprog` — a unified LP front-end that can route
  to the own simplex or scipy's HiGHS;
* :mod:`repro.solvers.branch_bound` — a best-first branch-and-bound MILP
  solver built on LP relaxations;
* :mod:`repro.solvers.penalty` — a quadratic-penalty + SLSQP nonlinear
  solver used for the paper's literal big-M constraint series;
* :mod:`repro.solvers.levels` — a greedy level-assignment heuristic for
  the multi-level TUF problem.
"""

from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    SolveStatus,
    Solution,
    SolverError,
    SolverState,
    problem_signature,
)
from repro.solvers.linprog import solve_lp
from repro.solvers.simplex import SimplexSolver
from repro.solvers.branch_bound import BranchAndBoundSolver, solve_milp
from repro.solvers.penalty import PenaltySolver
from repro.solvers.interior_point import InteriorPointSolver

__all__ = [
    "SolverState",
    "problem_signature",
    "InteriorPointSolver",
    "LinearProgram",
    "MixedIntegerProgram",
    "SolveStatus",
    "Solution",
    "SolverError",
    "solve_lp",
    "SimplexSolver",
    "BranchAndBoundSolver",
    "solve_milp",
    "PenaltySolver",
]
