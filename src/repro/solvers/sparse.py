"""Sparse solver core: boxed-variable dual simplex plus decomposition.

This module is the fleet-scale solve path of the reproduction (the
paper's Fig. 11 computation-time claim at 10-100x its sizes).  It
provides three pieces that ride the CSR constraint matrices built by
:class:`repro.core.formulation.FixedLevelLPCache` with ``sparse=True``:

* :func:`solve_sparse_lp` — an in-house **bounded-variable dual
  simplex** whose tableau never densifies: the constraint matrix stays
  CSR/CSC, only the small ``m x m`` basis inverse is dense.  Slot LPs
  are *boxable* (every variable gets a finite upper bound, either given
  or implied by a nonnegative row such as the arrival caps), which makes
  the all-slack basis dual feasible for free — no phase-1.  Problems
  the direct solver does not cover (equality rows, unboxable variables,
  very tall programs) fall back to HiGHS fed with the sparse matrix.
* an **RHS-only dual re-solve fast path** — between the controller's
  slots only prices (objective) and arrivals (right-hand side) change.
  When the objective is bit-identical to the previous slot's, the saved
  optimal basis is still dual feasible and the dual simplex restarts
  from it directly; when the objective changed, nonbasic variables are
  flipped to their dual-feasible bound first.  Both ride the standard
  :class:`~repro.solvers.base.SolverState` token.
* per-class block decomposition — request classes couple only through
  the share-budget rows, so dropping those rows splits the slot LP into
  independent blocks that solve separately.  The split is **compiled
  once** per constraint matrix by :func:`compile_decomposition`, which
  validates the block plan and cuts everything slot-invariant: each
  block's CSR, CSC and transpose, its bounds and implied-upper-bound
  entry map (:class:`ImpliedBounds`), and the coupling rows' CSR.  Per
  slot, :func:`solve_decomposed` only gathers each block's slice of
  ``c`` and ``b_ub``, solves the blocks (optionally across the
  :func:`repro.sim.parallel.parallel_map` process pool), and
  recombines.  If the recombined point satisfies the dropped coupling
  rows, the relaxation optimum is feasible and hence globally optimal;
  otherwise the caller joint-solves (the optimistic check —
  over-provisioned fleets virtually never trip it).

Dense solvers remain untouched and serve as the equivalence oracle in
the property-based test harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.solvers.base import (
    LinearProgram,
    Solution,
    SolverState,
    SolveStatus,
    problem_signature,
)
from repro.solvers.linprog import solve_lp
from repro.solvers.tolerances import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    ZERO_TOL,
)

__all__ = [
    "SPARSE_DIRECT_ROW_LIMIT",
    "solve_sparse_lp",
    "ImpliedBounds",
    "implied_upper_bounds",
    "BlockPlan",
    "class_blocks",
    "CompiledBlock",
    "CompiledDecomposition",
    "compile_decomposition",
    "DecomposedSolution",
    "solve_decomposed",
]

#: Above this many inequality rows the dense ``m x m`` basis inverse of
#: the direct dual simplex stops being cheap; taller programs route to
#: HiGHS (which consumes the sparse matrix natively).
SPARSE_DIRECT_ROW_LIMIT = 600

_TOL = ZERO_TOL
_PIVOT_TOL = PIVOT_TOL

#: 1-norm condition estimate above which a refactorized basis counts as
#: ill-conditioned (``sparse.ill_conditioned_bases``).  Telemetry only:
#: the eta-update NaN/inf guard and the terminal feasibility re-check
#: are what actually reject a numerically broken solve.
_CONDITION_LIMIT = 1e12

# Nonbasic-at-lower / nonbasic-at-upper / basic variable statuses.
_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


def _count(collector: Optional[Collector], name: str, value: int = 1) -> None:
    (collector if collector is not None else NULL_COLLECTOR).increment(
        name, value
    )


def _as_csr(a: object) -> "sp.csr_matrix":
    if sp.issparse(a):
        return a.tocsr()
    return sp.csr_matrix(np.asarray(a, dtype=float))


# ---------------------------------------------------------------------------
# Boxing: finite upper bounds implied by nonnegative rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpliedBounds:
    """Slot-invariant half of :func:`implied_upper_bounds`.

    :meth:`compile` keeps, once per constraint matrix and bound pair,
    every entry ``a_rj > 0`` of a row that can imply a bound, with that
    row's activity at the lower bounds; :meth:`evaluate` applies one
    slot's ``c`` and ``b_ub``.  Between the controller's slots only
    those two vectors change, so the decomposed solve compiles each
    block once and evaluates it per slot.
    """

    #: Row, column, coefficient, row activity at the lower bounds, and
    #: column lower bound of each bounding entry (CSR entry order).
    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    row_act: np.ndarray
    col_lower: np.ndarray
    #: The compiled program's variable bounds.
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def compile(
        cls, a_ub: object, lower: np.ndarray, upper: np.ndarray
    ) -> Optional["ImpliedBounds"]:
        """Entry maps of ``a_ub`` under ``lower``/``upper``.

        ``None`` when a lower bound is infinite: no row then implies a
        bound, and the program counts as unboxable.
        """
        if not np.all(np.isfinite(lower)):
            return None
        a = _as_csr(a_ub)
        m = a.shape[0]
        data, indices, indptr = a.data, a.indices, a.indptr
        entry_row = np.repeat(np.arange(m), np.diff(indptr))
        # Row-wise minimum coefficient (rows with any negative entry give
        # no implied bound) and activity at the lower bounds.
        row_min = np.full(m, np.inf)
        np.minimum.at(row_min, entry_row, data)
        row_act = np.zeros(m)
        np.add.at(row_act, entry_row, data * lower[indices])
        valid = (row_min >= 0.0)[entry_row] & (data > _TOL)
        return cls(
            rows=entry_row[valid],
            cols=indices[valid],
            coef=data[valid],
            row_act=row_act[entry_row[valid]],
            col_lower=lower[indices[valid]],
            lower=lower,
            upper=upper,
        )

    def evaluate(
        self, c: np.ndarray, b_ub: np.ndarray
    ) -> Optional[np.ndarray]:
        """Finite upper bounds (float64) under ``c``/``b_ub``, or ``None``.

        ``None`` when a variable with a negative objective coefficient
        stays unboxed.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            implied = (b_ub[self.rows] - self.row_act) / self.coef + self.col_lower
        cand = np.full(self.upper.size, np.inf)
        ok = np.isfinite(implied)
        np.minimum.at(cand, self.cols[ok], implied[ok])
        upper = np.minimum(self.upper, np.maximum(cand, self.lower))
        if np.any((c < 0) & ~np.isfinite(upper)):
            return None
        return upper


def implied_upper_bounds(lp: LinearProgram) -> Optional[np.ndarray]:
    """Finite upper bounds (float64) per variable, or ``None`` if impossible.

    For an inequality row ``r`` whose coefficients are all nonnegative
    and whose variables all have finite lower bounds,

        ``a_rj * x_j <= b_r - sum_{i != j} a_ri * l_i``

    is a valid (redundant) upper bound on ``x_j``.  In the slot LPs the
    arrival-cap rows box every dispatch variable this way and the share
    variables carry explicit bounds, so the whole program is boxable.
    The feasible set is unchanged — only variables whose objective
    coefficient is negative *need* a finite box (they start nonbasic at
    their upper bound); ``None`` is returned when one of those cannot be
    boxed (the caller falls back to HiGHS, which also catches genuinely
    unbounded programs).  Compiles an :class:`ImpliedBounds` and
    evaluates it once.
    """
    if lp.a_ub is None or lp.b_ub is None:
        return None
    bounds = ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper)
    return None if bounds is None else bounds.evaluate(lp.c, lp.b_ub)


# ---------------------------------------------------------------------------
# Bounded-variable dual simplex with a dense basis inverse
# ---------------------------------------------------------------------------

def _basis_inverse(
    ac: "sp.csc_matrix", basis: np.ndarray, n: int, m: int
) -> Optional[np.ndarray]:
    """Inverse of the basis matrix ``[A | I][:, basis]``, or ``None``."""
    b_mat = np.zeros((m, m))
    for col, var in enumerate(basis):
        if var < n:
            start, end = ac.indptr[var], ac.indptr[var + 1]
            b_mat[ac.indices[start:end], col] = ac.data[start:end]
        else:
            b_mat[var - n, col] = 1.0
    try:
        inv = np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inv)):
        return None
    return inv


def _basis_norm1(
    ac: "sp.csc_matrix", basis: np.ndarray, n: int
) -> float:
    """1-norm (max column abs-sum) of the basis matrix ``[A | I][:, basis]``.

    Built column-by-column from the CSC data so the sanitizer's
    condition estimate (``norm1(B) * norm1(B^{-1})``) never assembles
    the dense basis matrix a second time.
    """
    worst = 0.0
    for var in basis:
        if var < n:
            start, end = ac.indptr[var], ac.indptr[var + 1]
            col_sum = float(np.abs(ac.data[start:end]).sum())
        else:
            col_sum = 1.0
        if col_sum > worst:
            worst = col_sum
    return worst


def _restore_state(
    state: Optional[SolverState],
    lp: LinearProgram,
    n: int,
    m: int,
    upper: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, bool]]:
    """Validate a warm-start token; return (basis, vstat, rhs_only)."""
    if (
        state is None
        or state.method != "sparse"
        or not state.matches(lp)
        or state.basis is None
        or state.slack is None
    ):
        return None
    basis = np.asarray(state.basis, dtype=int)
    vstat = np.asarray(state.slack, dtype=int)
    if basis.shape != (m,) or vstat.shape != (n + m,):
        return None
    if basis.min(initial=0) < 0 or basis.max(initial=0) >= n + m:
        return None
    if int((vstat == _BASIC).sum()) != m or not np.all(vstat[basis] == _BASIC):
        return None
    # A nonbasic-at-upper variable needs a finite bound to sit on.
    at_upper = vstat[:n] == _AT_UPPER
    if np.any(at_upper & ~np.isfinite(upper[:n])):
        return None
    rhs_only = (
        state.dual is not None
        and np.asarray(state.dual).shape == lp.c.shape
        and bool(np.array_equal(state.dual, lp.c))
    )
    return basis.copy(), vstat.copy(), rhs_only


def _dual_simplex(
    lp: LinearProgram,
    boxed_upper: np.ndarray,
    state: Optional[SolverState],
    max_iterations: Optional[int],
    collector: Optional[Collector] = None,
    ac: Optional["sp.csc_matrix"] = None,
    at: Optional["sp.csc_matrix"] = None,
) -> Solution:
    """Bounded-variable dual simplex on ``A x + s = b`` (minimization).

    ``ac`` (CSC) and ``at`` (the transpose of the CSR ``lp.a_ub``) are
    the column-access forms of the constraint matrix; a caller solving
    one matrix slot after slot passes them precompiled, otherwise they
    are built once here.  Row products ``v @ A`` are formed as
    ``at @ v``, the CSC mat-vec scipy's ``__rmatmul__`` runs after
    transposing, so both routes pivot identically.

    ``collector`` receives the numerical-sanitizer telemetry: NaN/inf
    guard trips at the eta update (``sparse.nonfinite_guard_trips`` —
    the iteration recovers through an early refactorization when the
    fresh inverse is finite), 1-norm basis condition estimates at every
    refactorization point (histogram ``sparse.basis_condition``), and
    ill-conditioned bases above :data:`_CONDITION_LIMIT`
    (``sparse.ill_conditioned_bases``).
    """
    a = _as_csr(lp.a_ub)
    if ac is None:
        ac = a.tocsc()
    if at is None:
        at = a.T
    m, n = a.shape
    total = n + m
    c_ext = np.concatenate([lp.c, np.zeros(m)])
    lower = np.concatenate([lp.lower, np.zeros(m)])
    upper = np.concatenate([boxed_upper, np.full(m, np.inf)])
    fixed = upper - lower <= _TOL
    limit = (
        int(max_iterations) if max_iterations is not None
        else 200 + 50 * (m + n)
    )

    warm_used = False
    basis: np.ndarray
    vstat: np.ndarray
    binv: Optional[np.ndarray] = None
    restored = _restore_state(state, lp, n, m, upper)
    if restored is not None:
        basis, vstat, rhs_only = restored
        binv = _basis_inverse(ac, basis, n, m)
        if binv is not None:
            warm_used = True
            if not rhs_only:
                # Objective changed: re-establish dual feasibility by
                # flipping nonbasic variables onto the bound their new
                # reduced cost prefers (a bound flip moves no basis).
                y = c_ext[basis] @ binv
                d = c_ext.copy()
                d[:n] -= at @ y
                d[n:] -= y
                flip_up = (vstat == _AT_LOWER) & (d < -_TOL)
                flip_down = (vstat == _AT_UPPER) & (d > _TOL)
                if np.any(flip_up & ~np.isfinite(upper)) or np.any(
                    flip_down & ~np.isfinite(lower)
                ):
                    binv = None
                    warm_used = False
                else:
                    vstat[flip_up] = _AT_UPPER
                    vstat[flip_down] = _AT_LOWER
    if binv is None:
        # Cold start: all-slack basis, nonbasics at their dual-feasible
        # bound.  Boxing guarantees the c<0 variables have one.
        basis = n + np.arange(m)
        vstat = np.full(total, _AT_LOWER, dtype=int)
        vstat[:n][(lp.c < 0) & np.isfinite(upper[:n])] = _AT_UPPER
        vstat[basis] = _BASIC
        binv = np.eye(m)
        warm_used = False

    iterations = 0
    since_refactor = 0
    alpha = np.empty(total)  # pivot-row scratch, reused every iteration
    while True:
        # Primal point at the current basis/statuses.
        x = np.where(vstat == _AT_UPPER, upper, lower)
        x[~np.isfinite(x)] = 0.0
        x[basis] = 0.0
        rhs_eff = lp.b_ub - a @ x[:n]
        x[basis] = binv @ rhs_eff

        viol_low = lower[basis] - x[basis]
        viol_up = x[basis] - upper[basis]
        viol = np.maximum(viol_low, viol_up)
        worst = float(viol.max(initial=0.0))
        if not np.isfinite(worst):
            return Solution(
                status=SolveStatus.NUMERICAL_ERROR,
                message="non-finite basic solution",
                iterations=iterations,
                warm_start_used=warm_used,
            )
        if worst <= OPTIMALITY_TOL:
            x_struct = x[:n].copy()
            np.clip(x_struct, lp.lower, lp.upper, out=x_struct)
            if not lp.is_feasible(x_struct, tol=FEASIBILITY_TOL):
                return Solution(
                    status=SolveStatus.NUMERICAL_ERROR,
                    message="terminal point failed feasibility check",
                    iterations=iterations,
                    warm_start_used=warm_used,
                )
            y = c_ext[basis] @ binv
            out_state = SolverState(
                method="sparse",
                signature=problem_signature(lp),
                basis=basis.copy(),
                slack=vstat.astype(float),
                dual=lp.c.copy(),
                point=x_struct.copy(),
            )
            # The duals certify the *boxed* problem.  They transfer to
            # the original LP unless a structural variable ends nonbasic
            # at an artificial box (original upper infinite) with a
            # meaningfully negative reduced cost — the box is redundant
            # for the feasible set (so x stays optimal), but its
            # multiplier belongs to the rows implying the bound, and
            # emitting it as-is would fail an independent reduced-cost
            # certificate.  Degrade to primal-only in that case.
            marginals: Optional[np.ndarray] = y.copy()
            at_box = (
                (vstat[:n] == _AT_UPPER) & ~np.isfinite(lp.upper)
            )
            if np.any(at_box):
                d_box = lp.c[at_box] - (at @ y)[at_box]
                tol_box = OPTIMALITY_TOL * max(
                    1.0, float(np.abs(lp.c).max(initial=0.0))
                )
                if np.any(d_box < -tol_box):
                    marginals = None
            return Solution(
                status=SolveStatus.OPTIMAL,
                x=x_struct,
                objective=float(lp.c @ x_struct),
                iterations=iterations,
                ineq_marginals=marginals,
                state=out_state,
                warm_start_used=warm_used,
            )
        if iterations >= limit:
            return Solution(
                status=SolveStatus.ITERATION_LIMIT,
                message=f"dual simplex hit {limit} iterations",
                iterations=iterations,
                warm_start_used=warm_used,
            )

        i = int(np.argmax(viol))
        below = viol_low[i] >= viol_up[i]
        rho = binv[i]
        alpha[:n] = at @ rho
        alpha[n:] = rho
        y = c_ext[basis] @ binv
        d = c_ext.copy()
        d[:n] -= at @ y
        d[n:] -= y

        abar = alpha if below else -alpha
        eligible = ~fixed & (
            ((vstat == _AT_LOWER) & (abar < -_TOL))
            | ((vstat == _AT_UPPER) & (abar > _TOL))
        )
        eligible[basis] = False
        if not np.any(eligible):
            return Solution(
                status=SolveStatus.INFEASIBLE,
                message="dual simplex: no entering column (primal infeasible)",
                iterations=iterations,
                warm_start_used=warm_used,
            )
        idx = np.flatnonzero(eligible)
        ratios = d[idx] / -abar[idx]
        ratios = np.maximum(ratios, 0.0)  # clamp dual-feasibility roundoff
        best = float(ratios.min())
        near = idx[ratios <= best + _TOL]
        q = int(near[np.argmax(np.abs(abar[near]))])

        if q < n:
            start, end = ac.indptr[q], ac.indptr[q + 1]
            u = binv[:, ac.indices[start:end]] @ ac.data[start:end]
        else:
            u = binv[:, q - n].copy()
        if abs(u[i]) < _PIVOT_TOL:
            return Solution(
                status=SolveStatus.NUMERICAL_ERROR,
                message="vanishing pivot",
                iterations=iterations,
                warm_start_used=warm_used,
            )
        leaving = int(basis[i])
        vstat[leaving] = _AT_LOWER if below else _AT_UPPER
        vstat[q] = _BASIC
        basis[i] = q
        binv[i, :] /= u[i]
        col = u.copy()
        col[i] = 0.0
        binv -= np.outer(col, binv[i])
        iterations += 1
        since_refactor += 1
        if not np.all(np.isfinite(binv)):
            # Sanitizer: the eta update blew up (overflow/NaN through a
            # tiny pivot).  Refactorize from scratch immediately — the
            # product-form error is discarded — and only give up when
            # the basis itself is singular or non-finite.
            _count(collector, "sparse.nonfinite_guard_trips")
            fresh = _basis_inverse(ac, basis, n, m)
            if fresh is None:
                return Solution(
                    status=SolveStatus.NUMERICAL_ERROR,
                    message="non-finite basis inverse after eta update",
                    iterations=iterations,
                    warm_start_used=warm_used,
                )
            binv = fresh
            since_refactor = 0
        if since_refactor >= 100:
            fresh = _basis_inverse(ac, basis, n, m)
            if fresh is None:
                return Solution(
                    status=SolveStatus.NUMERICAL_ERROR,
                    message="singular basis at refactorization",
                    iterations=iterations,
                    warm_start_used=warm_used,
                )
            if collector is not None and collector.enabled:
                # Condition estimate at the refactorization point: the
                # drifted eta-product inverse is being replaced anyway,
                # so one extra norm is the cheapest honest health check.
                cond = _basis_norm1(ac, basis, n) * float(
                    np.abs(fresh).sum(axis=0).max(initial=0.0)
                )
                collector.observe("sparse.basis_condition", cond)
                if cond > _CONDITION_LIMIT:
                    collector.increment("sparse.ill_conditioned_bases")
            binv = fresh
            since_refactor = 0


def solve_sparse_lp(
    lp: LinearProgram,
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
) -> Solution:
    """Solve ``lp`` on the sparse path (direct dual simplex or HiGHS).

    The direct bounded-variable dual simplex handles the common slot-LP
    shape: inequality rows only, boxable variables, at most
    :data:`SPARSE_DIRECT_ROW_LIMIT` rows.  Everything else — and any
    numerical failure or infeasibility claim of the direct solver — is
    delegated to HiGHS, which consumes the sparse matrix without
    densifying.  ``state`` tokens produced here (``method="sparse"``)
    enable the RHS-only dual re-solve fast path across slots.
    """
    return _solve_sparse(lp, state, collector, max_iterations)


def _solve_sparse(
    lp: LinearProgram,
    state: Optional[SolverState],
    collector: Optional[Collector],
    max_iterations: Optional[int],
    block: Optional["CompiledBlock"] = None,
) -> Solution:
    """:func:`solve_sparse_lp`, reusing ``block``'s compiled structure.

    Without ``block`` the implied bounds, CSC and transpose of
    ``lp.a_ub`` are built for this call (the joint solve).
    """
    direct_ok = (
        lp.a_ub is not None
        and lp.a_eq is None
        and lp.a_ub.shape[0] <= SPARSE_DIRECT_ROW_LIMIT
    )
    boxed: Optional[np.ndarray] = None
    if direct_ok:
        bounds = (
            ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper)
            if block is None else block.bounds
        )
        if bounds is not None and lp.b_ub is not None:
            boxed = bounds.evaluate(lp.c, lp.b_ub)
        if boxed is None:
            _count(collector, "sparse.box_fallbacks")
    if boxed is not None:
        solution = _dual_simplex(
            lp, boxed, state, max_iterations, collector=collector,
            ac=None if block is None else block.csc,
            at=None if block is None else block.transpose,
        )
        if solution.status is SolveStatus.OPTIMAL:
            _count(
                collector,
                "sparse.warm_hits" if solution.warm_start_used
                else "sparse.cold_solves",
            )
            _count(collector, "sparse.iterations", solution.iterations)
            return solution
        if solution.status is SolveStatus.ITERATION_LIMIT:
            return solution
        _count(collector, "sparse.highs_fallbacks")
    return solve_lp(
        lp, "highs", collector=collector, max_iterations=max_iterations
    )


# ---------------------------------------------------------------------------
# Per-class block decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPlan:
    """Static index plan of one independent block of a structured LP."""

    var_idx: np.ndarray
    row_idx: np.ndarray


def class_blocks(
    K: int, S: int, L: int
) -> Tuple[List[BlockPlan], np.ndarray]:
    """Per-class blocks of the aggregated slot-LP layout.

    Variables ``lam_{k,s,l}`` / ``Phi_{k,l}`` and the delay/arrival rows
    of class ``k`` form block ``k``; the L share-budget rows (the only
    rows mixing classes) are the coupling rows, returned as an index
    array of dtype intp.  Index layout mirrors
    :meth:`FixedLevelLPCache._build_aggregated_structure`.
    """
    n_lam = K * S * L
    blocks: List[BlockPlan] = []
    for k in range(K):
        var_idx = np.concatenate([
            np.arange(k * S * L, (k + 1) * S * L),
            np.arange(n_lam + k * L, n_lam + (k + 1) * L),
        ])
        row_idx = np.concatenate([
            np.arange(k * L, (k + 1) * L),
            np.arange(K * L + L + k * S, K * L + L + (k + 1) * S),
        ])
        blocks.append(BlockPlan(var_idx=var_idx, row_idx=row_idx))
    coupling = np.arange(K * L, K * L + L)
    return blocks, coupling


@dataclass(frozen=True)
class CompiledBlock:
    """One block's slot-invariant structure, cut once from the full LP."""

    var_idx: np.ndarray
    row_idx: np.ndarray
    #: The block's constraint matrix as CSR, CSC, and CSR transpose.
    matrix: "sp.csr_matrix"
    csc: "sp.csc_matrix"
    transpose: "sp.csc_matrix"
    lower: np.ndarray
    upper: np.ndarray
    #: Implied-upper-bound entry maps; ``None`` when unboxable.
    bounds: Optional[ImpliedBounds]


@dataclass(frozen=True)
class CompiledDecomposition:
    """A validated block split of one constraint matrix and bound pair.

    Built by :func:`compile_decomposition`; :func:`solve_decomposed`
    accepts every LP that :meth:`matches` it — in the controller, every
    slot LP refilled from the same :class:`FixedLevelLPCache`.
    """

    matrix: "sp.csr_matrix"
    lower: np.ndarray
    upper: np.ndarray
    blocks: Tuple[CompiledBlock, ...]
    coupling_rows: np.ndarray
    #: CSR of the coupling rows, for the recombination check.
    coupling_matrix: "sp.csr_matrix"

    def matches(self, lp: LinearProgram) -> bool:
        """True when ``lp`` has the compiled matrix and bounds."""
        if lp.a_ub is None:
            return False
        if lp.a_ub is not self.matrix:
            a, ref = _as_csr(lp.a_ub), self.matrix
            if not (
                a.shape == ref.shape
                and np.array_equal(a.indptr, ref.indptr)
                and np.array_equal(a.indices, ref.indices)
                and np.array_equal(a.data, ref.data)
            ):
                return False
        return bool(
            np.array_equal(lp.lower, self.lower)
            and np.array_equal(lp.upper, self.upper)
        )


def compile_decomposition(
    lp: LinearProgram,
    blocks: Sequence[BlockPlan],
    coupling_rows: np.ndarray,
) -> CompiledDecomposition:
    """Validate ``blocks`` against ``lp`` and compile them (raise otherwise).

    Blocks must partition every column and every non-coupling row, and
    each block's rows may only touch that block's columns — otherwise
    dropping the coupling rows would silently change the problem.  Runs
    once per constraint matrix (the optimizer calls it on its first
    sparse slot): everything slot-invariant is cut here, so a slot's
    :func:`solve_decomposed` only gathers ``c`` and ``b_ub``.
    """
    if lp.a_ub is None:
        raise ValueError("block decomposition needs inequality rows")
    a = _as_csr(lp.a_ub)
    m, n = a.shape
    col_owner = np.full(n, -1)
    row_owner = np.full(m, -1)
    row_owner[coupling_rows] = -2
    for b, blk in enumerate(blocks):
        if np.any(col_owner[blk.var_idx] != -1):
            raise ValueError("block variable sets overlap")
        if np.any(row_owner[blk.row_idx] != -1):
            raise ValueError("block row sets overlap coupling or each other")
        col_owner[blk.var_idx] = b
        row_owner[blk.row_idx] = b
    if np.any(col_owner == -1) or np.any(row_owner == -1):
        raise ValueError("blocks must partition all columns and rows")
    entry_row = np.repeat(np.arange(m), np.diff(a.indptr))
    in_block = row_owner[entry_row] >= 0
    if np.any(
        col_owner[a.indices[in_block]] != row_owner[entry_row[in_block]]
    ):
        raise ValueError("a non-coupling row touches a foreign block's column")
    compiled: List[CompiledBlock] = []
    for blk in blocks:
        sub = a[blk.row_idx][:, blk.var_idx]
        lower = lp.lower[blk.var_idx]
        upper = lp.upper[blk.var_idx]
        compiled.append(CompiledBlock(
            var_idx=blk.var_idx,
            row_idx=blk.row_idx,
            matrix=sub,
            csc=sub.tocsc(),
            transpose=sub.T,
            lower=lower,
            upper=upper,
            bounds=ImpliedBounds.compile(sub, lower, upper),
        ))
    return CompiledDecomposition(
        matrix=a,
        lower=lp.lower.copy(),
        upper=lp.upper.copy(),
        blocks=tuple(compiled),
        coupling_rows=coupling_rows,
        coupling_matrix=a[coupling_rows],
    )


@dataclass
class DecomposedSolution:
    """Recombined block solve: the joint solution plus per-block states."""

    solution: Solution
    states: List[Optional[SolverState]]
    num_blocks: int


def _solve_block_task(
    args: Tuple[
        CompiledBlock, np.ndarray, np.ndarray, Optional[SolverState],
        Optional[int], Optional[Collector],
    ],
) -> Solution:
    """Top-level (picklable) single-block solve for the process pool."""
    block, c, b_ub, block_state, max_iterations, collector = args
    block_lp = LinearProgram(
        c=c, a_ub=block.matrix, b_ub=b_ub,
        lower=block.lower, upper=block.upper,
    )
    return _solve_sparse(
        block_lp, block_state, collector, max_iterations, block=block
    )


def solve_decomposed(  # reprolint: disable=RP004
    lp: LinearProgram,
    compiled: CompiledDecomposition,
    states: Optional[Sequence[Optional[SolverState]]] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
    workers: Optional[int] = None,
) -> Optional[DecomposedSolution]:
    """Optimistically solve ``lp`` block by block; ``None`` on failure.

    Gathers each compiled block's slice of ``lp.c`` and ``lp.b_ub``,
    solves every block independently (each with its own warm-start
    token; ``workers > 1`` fans the blocks out over
    :func:`repro.sim.parallel.parallel_map`), and recombines.  When the
    recombined point satisfies the dropped coupling rows, the relaxation
    optimum is feasible for the full program and therefore globally
    optimal.  Returns ``None`` — caller joint-solves — when a block
    fails or a coupling row is violated.  Raises ``ValueError`` when
    ``lp``'s matrix or bounds are not the ones ``compiled`` was built
    from.

    ``collector`` receives the serial block solves' ``sparse.*``
    counters as well as the decomposition's own; pooled block solves
    run in worker processes, which cannot report to it.
    """
    if not compiled.matches(lp):
        raise ValueError(
            "LP matrix or bounds differ from the compiled decomposition; "
            "compile one for this LP's constraint matrix"
        )
    assert lp.b_ub is not None
    blocks = compiled.blocks
    block_states: List[Optional[SolverState]] = (
        list(states) if states is not None and len(states) == len(blocks)
        else [None] * len(blocks)
    )
    pooled = workers is not None and workers > 1 and len(blocks) > 1
    tasks = [
        (blk, lp.c[blk.var_idx], lp.b_ub[blk.row_idx], block_state,
         max_iterations, None if pooled else collector)
        for blk, block_state in zip(blocks, block_states)
    ]
    # Blocks are per-class (see class_blocks), so label worker failures
    # with the originating block's class index — a crash inside one
    # block solve must not surface as an anonymous pool error.
    labels = [f"block[class={k}]" for k in range(len(tasks))]
    if pooled:
        from repro.sim.parallel import parallel_map

        results = parallel_map(
            _solve_block_task, tasks, workers=workers, labels=labels
        )
    else:
        from repro.sim.parallel import WorkerError

        results = []
        for label, task in zip(labels, tasks):
            try:
                results.append(_solve_block_task(task))
            except Exception as exc:
                raise WorkerError(
                    f"{label}: {type(exc).__name__}: {exc}"
                ) from exc
    if any(not r.ok for r in results):
        _count(collector, "sparse.block_failures")
        return None
    x = np.zeros(lp.num_variables)
    for blk, res in zip(blocks, results):
        assert res.x is not None
        x[blk.var_idx] = res.x
    coupling_rows = compiled.coupling_rows
    slack = lp.b_ub[coupling_rows] - compiled.coupling_matrix @ x
    scale = np.maximum(1.0, np.abs(lp.b_ub[coupling_rows]))
    if np.any(slack < -ZERO_TOL * scale):
        _count(collector, "sparse.coupling_rejects")
        return None
    solution = Solution(
        status=SolveStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        iterations=sum(r.iterations for r in results),
        warm_start_used=any(r.warm_start_used for r in results),
        message=f"decomposed into {len(blocks)} blocks",
    )
    _count(collector, "sparse.decomposed_solves")
    return DecomposedSolution(
        solution=solution,
        states=[r.state for r in results],
        num_blocks=len(blocks),
    )
