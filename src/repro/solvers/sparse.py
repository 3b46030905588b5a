"""Sparse solver core: a boxed-variable dual simplex compiled once per LP.

This module is the fleet-scale solve path of the reproduction (the
paper's Fig. 11 computation-time claim at 10-100x its sizes).  It rides
the CSR constraint matrices built by
:class:`repro.core.formulation.FixedLevelLPCache` with ``sparse=True``:

* an in-house **bounded-variable dual simplex** whose tableau never
  densifies: the constraint matrix stays CSR/CSC, only the small
  ``m x m`` basis inverse is dense.  Slot LPs are *boxable* (every
  variable gets a finite upper bound, either given or implied by a
  nonnegative row such as the arrival caps), which makes the all-slack
  basis dual feasible for free — no phase-1.  Problems the direct
  solver does not cover (equality rows, unboxable variables, very tall
  programs) fall back to HiGHS fed with the sparse matrix.
* **compiled once** — between the controller's slots only prices
  (objective) and arrivals (right-hand side) change.
  :meth:`SparseProgram.compile` keeps everything slot-invariant of one
  constraint matrix and bound pair: the CSR with its CSC and transpose,
  the implied-upper-bound entry map (:class:`ImpliedBounds`) and the
  cold-start arrays.  :meth:`SparseProgram.solve` accepts every LP that
  :meth:`~SparseProgram.matches` them and reads only its ``c`` and
  ``b_ub``.
* a **warm restart** — when a program's objective is bit-identical to
  the one its :class:`~repro.solvers.base.SolverState` token was taken
  at, the saved optimal basis is still dual feasible and the dual
  simplex restarts from it directly (RHS-only); when the objective
  changed, nonbasic variables are flipped to their dual-feasible bound
  first.  Only a restart whose point is not yet optimal pivots.

Servers are homogeneous within a data center, so the slot LP the
optimizer compiles is the symmetry collapse: ``K*L + L + K*S`` rows by
``K*S*L + K*L`` columns (24 x 45 on §VI at every fleet size).
:func:`solve_sparse_lp` compiles and solves in one call.
``tests/test_property_sparse.py`` pins the compiled restart, bit for
bit, against a one-program reference dual simplex.

Dense solvers remain untouched and serve as the equivalence oracle in
the property-based test harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.solvers.base import (
    LinearProgram,
    Solution,
    SolverState,
    SolveStatus,
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
    "SparseProgram",
    "solve_sparse_lp",
    "ImpliedBounds",
    "implied_upper_bounds",
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
    those two vectors change, so a :class:`SparseProgram` compiles this
    map once and evaluates it per slot.
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

        Each upper bound is tightened by every bound ``b_ub`` implies;
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
# The compiled program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseProgram:
    """One constraint matrix and bound pair, compiled for warm restarts.

    Built once by :meth:`compile`; :meth:`solve` accepts every LP that
    :meth:`matches` it — in the controller, every slot LP refilled from
    the same :class:`~repro.core.formulation.FixedLevelLPCache`.
    """

    matrix: "sp.csr_matrix"
    csc: "sp.csc_matrix"
    transpose: "sp.csc_matrix"
    #: The compiled program's variable bounds.
    lower: np.ndarray
    upper: np.ndarray
    #: Implied-upper-bound entry map over :attr:`matrix`; ``None`` when
    #: a lower bound is infinite (the program never boxes).
    bounds: Optional[ImpliedBounds]
    #: Lower bounds over structural then slack variables.
    lower_ext: np.ndarray
    #: The cold start: the all-slack basis, its statuses (structurals
    #: at lower) and its inverse.
    cold_basis: np.ndarray
    cold_status: np.ndarray
    identity: np.ndarray

    @classmethod
    def compile(cls, lp: LinearProgram) -> "SparseProgram":
        """Compile ``lp``'s constraint matrix and bounds.

        Raises ``ValueError`` when ``lp`` has no inequality rows or has
        equality rows: the direct dual simplex covers neither.
        """
        if lp.a_ub is None or lp.a_eq is not None:
            raise ValueError(
                "a sparse program compiles inequality rows only; "
                "solve a program with equality rows through HiGHS"
            )
        matrix = _as_csr(lp.a_ub)
        m, n = matrix.shape
        lower, upper = lp.lower.copy(), lp.upper.copy()
        cold_status = np.full(n + m, _AT_LOWER, dtype=int)
        cold_status[n:] = _BASIC
        return cls(
            matrix=matrix, csc=matrix.tocsc(), transpose=matrix.T,
            lower=lower, upper=upper,
            bounds=ImpliedBounds.compile(matrix, lower, upper),
            lower_ext=np.concatenate([lower, np.zeros(m)]),
            cold_basis=n + np.arange(m),
            cold_status=cold_status,
            identity=np.eye(m),
        )

    @property
    def n(self) -> int:
        """Number of structural variables."""
        return int(self.matrix.shape[1])

    @property
    def m(self) -> int:
        """Number of inequality rows."""
        return int(self.matrix.shape[0])

    def matches(self, lp: LinearProgram) -> bool:
        """True when ``lp`` has the compiled matrix and bounds and no
        equality rows."""
        if lp.a_ub is None or lp.a_eq is not None:
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

    def solve(
        self,
        lp: LinearProgram,
        state: Optional[SolverState] = None,
        collector: Optional[Collector] = None,
        max_iterations: Optional[int] = None,
    ) -> Solution:
        """Solve ``lp`` on the compiled program (direct dual simplex or HiGHS).

        The direct bounded-variable dual simplex takes programs of at
        most :data:`SPARSE_DIRECT_ROW_LIMIT` rows whose variables box
        under ``lp``'s ``c``/``b_ub``: it restarts from ``state`` where
        that token serves (see :func:`_restart`) and pivots only when
        the restart's point is not optimal.  An optimum carries the row
        duals and a ``method="sparse"`` token, which enables the
        RHS-only re-solve of the next slot; an iteration limit is
        returned as is.  Everything else — and any numerical failure or
        infeasibility claim of the direct solver — is delegated to
        HiGHS, which consumes the sparse matrix without densifying.
        Raises ``ValueError`` when ``lp`` does not :meth:`match
        <matches>` the compiled program.
        """
        if not self.matches(lp):
            raise ValueError(
                "LP matrix, bounds or equality rows differ from the "
                "compiled program; compile one for this LP's constraint "
                "matrix"
            )
        assert lp.b_ub is not None
        if self.m <= SPARSE_DIRECT_ROW_LIMIT:
            r = _restart(self, lp.c, lp.b_ub, state, max_iterations)
            if r is None:
                _count(collector, "sparse.box_fallbacks")
            else:
                iterations = 0 if r.status is not None else _pivot(r, collector)
                if r.status is SolveStatus.OPTIMAL:
                    return _optimum(r, iterations, collector)
                if r.status is SolveStatus.ITERATION_LIMIT:
                    return Solution(
                        status=r.status,
                        message=r.message,
                        iterations=iterations,
                        warm_start_used=r.warm,
                    )
                _count(collector, "sparse.highs_fallbacks")
        return solve_lp(
            lp, "highs", collector=collector, max_iterations=max_iterations
        )


def solve_sparse_lp(
    lp: LinearProgram,
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
) -> Solution:
    """Compile ``lp`` and solve it (see :meth:`SparseProgram.solve`).

    A program with equality rows or without inequality rows goes to
    HiGHS directly.  A caller that solves one constraint matrix slot
    after slot compiles a :class:`SparseProgram` once instead.
    """
    if lp.a_ub is None or lp.a_eq is not None:
        return solve_lp(
            lp, "highs", collector=collector, max_iterations=max_iterations
        )
    return SparseProgram.compile(lp).solve(
        lp, state=state, collector=collector, max_iterations=max_iterations
    )


# ---------------------------------------------------------------------------
# Bounded-variable dual simplex: warm restart, then pivots
# ---------------------------------------------------------------------------

def _factor(program: SparseProgram, basis: np.ndarray) -> Optional[np.ndarray]:
    """Inverse of the basis matrix ``[A | I][:, basis]``, or ``None``.

    Gathers every structural basis column from the CSC at once;
    ``None`` when the basis is singular or its inverse non-finite.
    """
    n, m, ac = program.n, program.m, program.csc
    b_mat = np.zeros((m, m))
    col = np.flatnonzero(basis < n)
    start = ac.indptr[basis[col]]
    count = ac.indptr[basis[col] + 1] - start
    entry = np.arange(count.sum()) + np.repeat(
        start - (np.cumsum(count) - count), count
    )
    b_mat[ac.indices[entry], np.repeat(col, count)] = ac.data[entry]
    col = np.flatnonzero(basis >= n)
    b_mat[basis[col] - n, col] = 1.0
    try:
        inv = np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return None
    return inv if np.all(np.isfinite(inv)) else None


def _basis_norm1(program: SparseProgram, basis: np.ndarray) -> float:
    """1-norm (max column abs-sum) of the basis matrix.

    Built column-by-column from the CSC data so the sanitizer's
    condition estimate (``norm1(B) * norm1(B^{-1})``) never assembles
    the dense basis matrix a second time.
    """
    ac, n = program.csc, program.n
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


@dataclass
class _Restart:
    """One warm restart of a compiled program (see :func:`_restart`).

    The pivots continue from its basis, statuses and inverse and update
    them in place.
    """

    program: SparseProgram
    c: np.ndarray
    b_ub: np.ndarray
    #: Costs and upper bounds over structural then slack variables; the
    #: upper bounds are this slot's boxed ones.
    c_ext: np.ndarray
    upper: np.ndarray
    basis: np.ndarray
    vstat: np.ndarray
    binv: np.ndarray
    #: True when the restart started from its token.
    warm: bool
    #: Pivot budget.
    limit: int
    #: OPTIMAL, a failure, or ``None`` while pivots are needed.
    status: Optional[SolveStatus] = None
    message: str = ""
    #: Primal point and basic bound violations at the current basis
    #: (set by :func:`_primal_point`).
    x: np.ndarray = field(init=False)
    viol_low: np.ndarray = field(init=False)
    viol_up: np.ndarray = field(init=False)
    #: Terminal structural point, clipped to the original bounds.
    point: np.ndarray = field(init=False)


def _restart(
    program: SparseProgram,
    c: np.ndarray,
    b_ub: np.ndarray,
    state: Optional[SolverState],
    max_iterations: Optional[int],
) -> Optional[_Restart]:
    """Restart the dual simplex of ``program`` at this slot's ``c``/``b_ub``.

    In order: box the variables (``None`` when they cannot: HiGHS takes
    the program); start from ``state`` when :func:`_warm_start` accepts
    it, else cold; then take the primal point, the ``OPTIMALITY_TOL``
    test, the clip to the original bounds and the ``FEASIBILITY_TOL``
    check (:func:`_judge`).
    """
    if program.bounds is None:
        return None
    boxed_upper = program.bounds.evaluate(c, b_ub)
    if boxed_upper is None:
        return None
    n, m = program.n, program.m
    c_ext = np.concatenate([c, np.zeros(m)])
    upper = np.concatenate([boxed_upper, np.full(m, np.inf)])
    start = _warm_start(program, c, c_ext, upper, state)
    warm = start is not None
    if start is None:
        # Cold start: all-slack basis, nonbasics at their dual-feasible
        # bound.  Boxing guarantees the c<0 variables have one.
        vstat = program.cold_status.copy()
        vstat[:n][c < 0] = _AT_UPPER
        start = (program.cold_basis.copy(), vstat, program.identity.copy())
    basis, vstat, binv = start
    r = _Restart(
        program=program, c=c, b_ub=b_ub, c_ext=c_ext, upper=upper,
        basis=basis, vstat=vstat, binv=binv, warm=warm,
        limit=(
            int(max_iterations) if max_iterations is not None
            else 200 + 50 * (m + n)
        ),
    )
    _judge(r, _primal_point(r))
    return r


def _warm_start(
    program: SparseProgram,
    c: np.ndarray,
    c_ext: np.ndarray,
    upper: np.ndarray,
    state: Optional[SolverState],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Basis, statuses and basis inverse restored from ``state``.

    ``None`` (start cold) unless the token's method, signature, shapes,
    index range and basic statuses check out, no nonbasic sits at an
    infinite upper bound, the basis factors (neither singular nor
    non-finite) and, when the token's dual differs from ``c``, no
    nonbasic must flip onto an infinite bound.
    """
    n, m = program.n, program.m
    if (
        state is None
        or state.method != "sparse"
        or tuple(state.signature) != (n, m, 0)
        or state.basis is None
        or state.slack is None
    ):
        return None
    # Copies: the pivots update the basis and statuses in place.
    basis = np.array(state.basis, dtype=int)
    vstat = np.array(state.slack, dtype=int)
    if basis.shape != (m,) or vstat.shape != (n + m,):
        return None
    if basis.min(initial=0) < 0 or basis.max(initial=0) >= n + m:
        return None
    if int((vstat == _BASIC).sum()) != m or not np.all(vstat[basis] == _BASIC):
        return None
    unbounded = ~np.isfinite(upper)
    # A nonbasic-at-upper variable needs a finite bound to sit on.
    if np.any((vstat[:n] == _AT_UPPER) & unbounded[:n]):
        return None
    binv = _factor(program, basis)
    if binv is None:
        return None
    dual = state.dual
    if dual is None or np.shape(dual) != (n,) or not np.array_equal(dual, c):
        # Objective changed: re-establish dual feasibility by flipping
        # nonbasic variables onto the bound their new reduced cost
        # prefers (a bound flip moves no basis).
        y = c_ext[basis] @ binv
        d = c_ext.copy()
        d[:n] -= program.transpose @ y
        d[n:] -= y
        flip_up = (vstat == _AT_LOWER) & (d < -_TOL)
        flip_down = (vstat == _AT_UPPER) & (d > _TOL)
        # A flip onto an infinite bound starts cold (a boxed program has
        # finite lower bounds, so only an upper one can be).
        if np.any(flip_up & unbounded):
            return None
        vstat[flip_up] = _AT_UPPER
        vstat[flip_down] = _AT_LOWER
    return basis, vstat, binv


def _primal_point(r: _Restart) -> float:
    """Set the primal point at ``r``'s basis; return its worst violation."""
    program = r.program
    lower, upper, basis = program.lower_ext, r.upper, r.basis
    x = np.where(r.vstat == _AT_UPPER, upper, lower)
    x[~np.isfinite(x)] = 0.0
    x[basis] = 0.0
    rhs_eff = r.b_ub - program.matrix @ x[:program.n]
    x[basis] = r.binv @ rhs_eff
    r.x = x
    r.viol_low = lower[basis] - x[basis]
    r.viol_up = x[basis] - upper[basis]
    return float(np.maximum(r.viol_low, r.viol_up).max(initial=0.0))


def _judge(r: _Restart, worst: float) -> None:
    """Settle ``r`` when its point's worst basic violation is ``worst``.

    A non-finite violation is a numerical error; one within
    ``OPTIMALITY_TOL`` ends the solve at the point clipped to the
    original bounds, checked against ``FEASIBILITY_TOL``; otherwise the
    status stays ``None``.
    """
    if not np.isfinite(worst):
        r.status, r.message = (
            SolveStatus.NUMERICAL_ERROR, "non-finite basic solution"
        )
        return
    if worst > OPTIMALITY_TOL:
        return
    program = r.program
    point = r.x[:program.n].copy()
    np.clip(point, program.lower, program.upper, out=point)
    r.point = point
    # Worst bound and row violations (a NaN fails the check).
    bound = np.maximum(program.lower - point, point - program.upper).max(
        initial=0.0
    )
    row = (program.matrix @ point - r.b_ub).max(initial=0.0)
    if bound <= FEASIBILITY_TOL and row <= FEASIBILITY_TOL:
        r.status = SolveStatus.OPTIMAL
    else:
        r.status, r.message = (
            SolveStatus.NUMERICAL_ERROR,
            "terminal point failed feasibility check",
        )


def _pivot(r: _Restart, collector: Optional[Collector]) -> int:
    """Dual simplex pivots from the restart's basis until ``r`` settles.

    Returns the pivot count.  ``collector`` receives the
    numerical-sanitizer telemetry: NaN/inf guard trips at the eta update
    (``sparse.nonfinite_guard_trips`` — the iteration recovers through
    an early refactorization when the fresh inverse is finite), 1-norm
    basis condition estimates at every refactorization point (histogram
    ``sparse.basis_condition``), and ill-conditioned bases above
    :data:`_CONDITION_LIMIT` (``sparse.ill_conditioned_bases``).
    """
    program = r.program
    n, ac, at = program.n, program.csc, program.transpose
    c_ext, upper = r.c_ext, r.upper
    basis, vstat, binv = r.basis, r.vstat, r.binv
    fixed = upper - program.lower_ext <= _TOL
    alpha = np.empty(n + program.m)  # pivot-row scratch, reused every pivot

    def stop(status: SolveStatus, message: str) -> int:
        r.status, r.message = status, message
        return iterations

    iterations = 0
    since_refactor = 0
    while True:
        if iterations >= r.limit:
            return stop(
                SolveStatus.ITERATION_LIMIT,
                f"dual simplex hit {r.limit} iterations",
            )
        viol_low, viol_up = r.viol_low, r.viol_up
        viol = np.maximum(viol_low, viol_up)
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
            return stop(
                SolveStatus.INFEASIBLE,
                "dual simplex: no entering column (primal infeasible)",
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
            return stop(SolveStatus.NUMERICAL_ERROR, "vanishing pivot")
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
            fresh = _factor(program, basis)
            if fresh is None:
                return stop(
                    SolveStatus.NUMERICAL_ERROR,
                    "non-finite basis inverse after eta update",
                )
            r.binv = binv = fresh
            since_refactor = 0
        if since_refactor >= 100:
            fresh = _factor(program, basis)
            if fresh is None:
                return stop(
                    SolveStatus.NUMERICAL_ERROR,
                    "singular basis at refactorization",
                )
            if collector is not None and collector.enabled:
                # Condition estimate at the refactorization point: the
                # drifted eta-product inverse is being replaced anyway,
                # so one extra norm is the cheapest honest health check.
                cond = _basis_norm1(program, basis) * float(
                    np.abs(fresh).sum(axis=0).max(initial=0.0)
                )
                collector.observe("sparse.basis_condition", cond)
                if cond > _CONDITION_LIMIT:
                    collector.increment("sparse.ill_conditioned_bases")
            r.binv = binv = fresh
            since_refactor = 0
        _judge(r, _primal_point(r))
        if r.status is not None:
            return iterations


def _optimum(
    r: _Restart, iterations: int, collector: Optional[Collector]
) -> Solution:
    """The solution of a restart that settled OPTIMAL after ``iterations``.

    Carries the objective, the row duals and a ``method="sparse"``
    token for the next slot's restart.
    """
    _count(collector, "sparse.warm_hits" if r.warm else "sparse.cold_solves")
    _count(collector, "sparse.iterations", iterations)
    program, x = r.program, r.point
    n = program.n
    # The duals certify the *boxed* problem.  They transfer to the
    # original LP unless a structural variable ends nonbasic at an
    # artificial box (original upper infinite) with a meaningfully
    # negative reduced cost — the box is redundant for the feasible set
    # (so x stays optimal), but its multiplier belongs to the rows
    # implying the bound, and emitting it as-is would fail an
    # independent reduced-cost certificate.  Degrade to primal-only in
    # that case.
    y = r.c_ext[r.basis] @ r.binv
    marginals: Optional[np.ndarray] = y
    at_box = (r.vstat[:n] == _AT_UPPER) & ~np.isfinite(program.upper)
    if np.any(at_box):
        d_box = r.c[at_box] - (program.transpose @ y)[at_box]
        tol_box = OPTIMALITY_TOL * max(
            1.0, float(np.abs(r.c).max(initial=0.0))
        )
        if np.any(d_box < -tol_box):
            marginals = None
    return Solution(
        status=SolveStatus.OPTIMAL,
        x=x,
        objective=float(r.c @ x),
        iterations=iterations,
        ineq_marginals=marginals,
        state=SolverState(
            method="sparse",
            signature=(n, program.m, 0),
            basis=r.basis.copy(),
            slack=r.vstat.astype(float),
            dual=r.c.copy(),
            point=x.copy(),
        ),
        warm_start_used=r.warm,
    )
