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
* a **warm restart** — the dual simplex restarts from the saved
  optimal basis of a :class:`~repro.solvers.base.SolverState` token,
  with nonbasic variables flipped to the bound their reduced cost
  prefers, which makes the basis dual feasible again whatever changed
  in ``c`` or in the boxes.  Only a restart whose point is not yet
  optimal pivots.
* **paid once per basis** — a basis inverse depends only on the basis
  and the compiled matrix, so the program memoizes fresh inverses
  (:meth:`SparseProgram.inverse`): a restart from a basis the program
  has factored before inverts nothing.  Every product with the sparse
  matrix calls scipy's own kernel directly (:func:`_matvec`).  Neither
  changes a byte of any result.

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

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

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

#: Byte budget of one compiled program's memo of fresh basis inverses
#: (:meth:`SparseProgram.inverse`); past it the oldest entry goes first.
_INVERSE_MEMO_BYTES = 8 << 20

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


def _matvec(a: "sp.csr_matrix | sp.csc_matrix", x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a CSR or CSC matrix ``a`` and a float64 vector ``x``.

    Runs the scipy kernel that ``a @ x`` ends in (``csr_matvec`` or
    ``csc_matvec``, accumulating into zeros) without the operator's
    dispatch: the same bytes at a fraction of the call overhead.
    """
    m, n = a.shape
    out = np.zeros(m)
    kernel = csr_matvec if a.format == "csr" else csc_matvec
    kernel(m, n, a.indptr, a.indices, a.data, x, out)
    return out


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b)`` for two ndarrays, without its wrapper."""
    return a.shape == b.shape and not np.count_nonzero(a != b)


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
    #: column lower bound of each bounding entry, sorted by column (CSR
    #: entry order within a column).
    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    row_act: np.ndarray
    col_lower: np.ndarray
    #: The columns that have bounding entries, and where each one's run
    #: of entries starts.
    present: np.ndarray
    starts: np.ndarray
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
        valid = np.flatnonzero((row_min >= 0.0)[entry_row] & (data > _TOL))
        # A stable sort keeps each column's entries in CSR order, the
        # order in which evaluate's per-column minimum folds them.
        entries = valid[np.argsort(indices[valid], kind="stable")]
        cols = indices[entries]
        starts = np.flatnonzero(np.diff(cols, prepend=-1))
        return cls(
            rows=entry_row[entries],
            cols=cols,
            coef=data[entries],
            row_act=row_act[entry_row[entries]],
            col_lower=lower[cols],
            present=cols[starts],
            starts=starts,
            lower=lower,
            upper=upper,
        )

    def evaluate(
        self, c: np.ndarray, b_ub: np.ndarray
    ) -> Optional[np.ndarray]:
        """Finite upper bounds (float64) under ``c``/``b_ub``, or ``None``.

        Each upper bound is tightened by every finite bound ``b_ub``
        implies; ``None`` when a variable with a negative objective
        coefficient stays unboxed.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            implied = b_ub[self.rows] - self.row_act
            implied /= self.coef
            implied += self.col_lower
        # A non-finite bound bounds nothing: +inf leaves every minimum as is.
        implied[~np.isfinite(implied)] = np.inf
        cand = np.full(self.upper.size, np.inf)
        if self.starts.size:
            cand[self.present] = np.minimum.reduceat(implied, self.starts)
        upper = np.minimum(self.upper, np.maximum(cand, self.lower))
        if np.count_nonzero((c < 0) & ~np.isfinite(upper)):
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
    the same :class:`~repro.core.formulation.FixedLevelLPCache`, and
    every node LP of the level search.  The program also keeps the
    fresh inverse of every basis its restarts and refactorizations
    visit (:meth:`inverse`), within :data:`_INVERSE_MEMO_BYTES`: the
    controller's tokens revisit a few bases many times.
    """

    matrix: "sp.csr_matrix"
    csc: "sp.csc_matrix"
    transpose: "sp.csc_matrix"
    #: Numbers of structural variables and of inequality rows.
    n: int
    m: int
    #: The compiled program's variable bounds.
    lower: np.ndarray
    upper: np.ndarray
    #: Implied-upper-bound entry map over :attr:`matrix`; ``None`` when
    #: a lower bound is infinite (the program never boxes).
    bounds: Optional[ImpliedBounds]
    #: Where the compiled upper bounds are infinite.
    unbounded: np.ndarray
    #: Lower bounds over structural then slack variables.
    lower_ext: np.ndarray
    #: The cold start: the all-slack basis, its statuses (structurals
    #: at lower) and its inverse.
    cold_basis: np.ndarray
    cold_status: np.ndarray
    identity: np.ndarray
    #: Fresh basis inverses by ``basis.tobytes()``, oldest first
    #: (read-only; see :meth:`inverse`).
    inverses: Dict[bytes, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
            n=n, m=m, lower=lower, upper=upper,
            bounds=ImpliedBounds.compile(matrix, lower, upper),
            unbounded=~np.isfinite(upper),
            lower_ext=np.concatenate([lower, np.zeros(m)]),
            cold_basis=n + np.arange(m),
            cold_status=cold_status,
            identity=np.eye(m),
        )

    def inverse(self, basis: np.ndarray) -> Optional[np.ndarray]:
        """Inverse (float64) of the basis matrix ``[A | I][:, basis]``, or
        ``None``.

        A copy the caller may update in place.  An inverse is a pure
        function of the basis and the compiled matrix, so each one is
        factored once (:func:`_factor`) and memoized by the basis bytes
        within :data:`_INVERSE_MEMO_BYTES`, dropping the oldest entry
        first; a singular basis is not stored.
        """
        key = basis.tobytes()
        inv = self.inverses.get(key)
        if inv is None:
            inv = _factor(self, basis)
            if inv is None:
                return None
            memo, size = self.inverses, inv.nbytes
            if size <= _INVERSE_MEMO_BYTES:
                while memo and (len(memo) + 1) * size > _INVERSE_MEMO_BYTES:
                    del memo[next(iter(memo))]
                inv.flags.writeable = False
                memo[key] = inv
        return inv.copy()

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
        return _equal(lp.lower, self.lower) and _equal(lp.upper, self.upper)

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
        warm restart of the next slot; an iteration limit is
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
    Solves reach it through the memo of :meth:`SparseProgram.inverse`.
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
    #: :attr:`upper` with its infinite entries at 0.
    upper_at: np.ndarray
    basis: np.ndarray
    vstat: np.ndarray
    binv: np.ndarray
    #: True when the restart started from its token.
    warm: bool
    #: Pivot budget.
    limit: int
    #: The duals ``y`` and reduced costs ``d`` at the current basis, when
    #: already computed (by the warm start's flip; a pivot clears them).
    duals: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: OPTIMAL, a failure, or ``None`` while pivots are needed.
    status: Optional[SolveStatus] = None
    message: str = ""
    #: Primal point, basic bound violations and their elementwise
    #: maximum at the current basis (set by :func:`_primal_point`).
    x: np.ndarray = field(init=False)
    viol_low: np.ndarray = field(init=False)
    viol_up: np.ndarray = field(init=False)
    viol: np.ndarray = field(init=False)
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
    c_ext = np.zeros(n + m)
    c_ext[:n] = c
    upper = np.empty(n + m)
    upper[:n] = boxed_upper
    upper[n:] = np.inf
    r = _warm_start(program, c, b_ub, c_ext, upper, state)
    if r is None:
        # Cold start: all-slack basis, nonbasics at their dual-feasible
        # bound.  Boxing guarantees the c<0 variables have one.
        vstat = program.cold_status.copy()
        vstat[:n][c < 0] = _AT_UPPER
        r = _Restart(
            program=program, c=c, b_ub=b_ub, c_ext=c_ext, upper=upper,
            upper_at=np.where(np.isfinite(upper), upper, 0.0),
            basis=program.cold_basis.copy(), vstat=vstat,
            binv=program.identity.copy(), warm=False, limit=0,
        )
    r.limit = (
        int(max_iterations) if max_iterations is not None
        else 200 + 50 * (m + n)
    )
    _judge(r, _primal_point(r))
    return r


def _warm_start(
    program: SparseProgram,
    c: np.ndarray,
    b_ub: np.ndarray,
    c_ext: np.ndarray,
    upper: np.ndarray,
    state: Optional[SolverState],
) -> Optional[_Restart]:
    """The restart from ``state``'s basis, statuses and basis inverse.

    ``None`` (start cold) unless the token's method, signature, shapes,
    index range and basic statuses check out, no nonbasic sits at an
    infinite upper bound, the basis factors (neither singular nor
    non-finite) and no nonbasic must flip onto an infinite bound.

    The flip runs on every restart, also when ``c`` is the token's: a
    nonbasic that its box fixed at the token's solve (say, every
    dispatch variable of an arrival row capped at 0) may sit at either
    bound with a reduced cost of either sign, and a box that opens
    since then would leave the restart dual infeasible.
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
    if np.count_nonzero(vstat == _BASIC) != m or np.count_nonzero(
        vstat[basis] != _BASIC
    ):
        return None
    finite = np.isfinite(upper)
    unbounded = ~finite
    # A nonbasic-at-upper variable needs a finite bound to sit on.
    if np.count_nonzero((vstat[:n] == _AT_UPPER) & unbounded[:n]):
        return None
    binv = program.inverse(basis)
    if binv is None:
        return None
    # Re-establish dual feasibility by flipping nonbasic variables onto
    # the bound their reduced cost prefers (a bound flip moves no basis).
    y = c_ext[basis] @ binv
    d = c_ext.copy()
    d[:n] -= _matvec(program.transpose, y)
    d[n:] -= y
    flip_up = (vstat == _AT_LOWER) & (d < -_TOL)
    flip_down = (vstat == _AT_UPPER) & (d > _TOL)
    # A flip onto an infinite bound starts cold (a boxed program has
    # finite lower bounds, so only an upper one can be).
    if np.count_nonzero(flip_up & unbounded):
        return None
    vstat[flip_up] = _AT_UPPER
    vstat[flip_down] = _AT_LOWER
    return _Restart(
        program=program, c=c, b_ub=b_ub, c_ext=c_ext, upper=upper,
        upper_at=np.where(finite, upper, 0.0),
        basis=basis, vstat=vstat, binv=binv, warm=True, limit=0,
        duals=(y, d),
    )


def _primal_point(r: _Restart) -> float:
    """Set the primal point at ``r``'s basis; return its worst violation."""
    program = r.program
    lower, upper, basis = program.lower_ext, r.upper, r.basis
    # Nonbasics sit at a bound; one at an infinite upper bound counts as
    # 0 (the lower bounds are finite: the program boxed).
    x = np.where(r.vstat == _AT_UPPER, r.upper_at, lower)
    x[basis] = 0.0
    x_basic = r.binv @ (r.b_ub - _matvec(program.matrix, x[:program.n]))
    x[basis] = x_basic
    r.x = x
    r.viol_low = lower[basis] - x_basic
    r.viol_up = x_basic - upper[basis]
    r.viol = np.maximum(r.viol_low, r.viol_up)
    return float(np.maximum.reduce(r.viol, initial=0.0))


def _judge(r: _Restart, worst: float) -> None:
    """Settle ``r`` when its point's worst basic violation is ``worst``.

    A non-finite violation is a numerical error; one within
    ``OPTIMALITY_TOL`` ends the solve at the point clipped to the
    original bounds, checked against ``FEASIBILITY_TOL``; otherwise the
    status stays ``None``.
    """
    if not math.isfinite(worst):
        r.status, r.message = (
            SolveStatus.NUMERICAL_ERROR, "non-finite basic solution"
        )
        return
    if worst > OPTIMALITY_TOL:
        return
    program = r.program
    point = np.clip(r.x[:program.n], program.lower, program.upper)
    r.point = point
    # Worst bound and row violations (a NaN fails the check).
    bound = np.maximum.reduce(
        np.maximum(program.lower - point, point - program.upper), initial=0.0
    )
    row = np.maximum.reduce(
        _matvec(program.matrix, point) - r.b_ub, initial=0.0
    )
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
    movable = ~(upper - program.lower_ext <= _TOL)
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
        i = int(r.viol.argmax())
        below = r.viol_low[i] >= r.viol_up[i]
        rho = binv[i]
        alpha[:n] = _matvec(at, rho)
        alpha[n:] = rho
        if r.duals is None:
            y = c_ext[basis] @ binv
            d = c_ext.copy()
            d[:n] -= _matvec(at, y)
            d[n:] -= y
        else:
            d = r.duals[1]

        abar = alpha if below else -alpha
        eligible = movable & (
            ((vstat == _AT_LOWER) & (abar < -_TOL))
            | ((vstat == _AT_UPPER) & (abar > _TOL))
        )
        eligible[basis] = False
        idx = eligible.nonzero()[0]
        if not idx.size:
            return stop(
                SolveStatus.INFEASIBLE,
                "dual simplex: no entering column (primal infeasible)",
            )
        ratios = d[idx] / -abar[idx]
        np.maximum(ratios, 0.0, out=ratios)  # clamp dual-feasibility roundoff
        best = float(np.minimum.reduce(ratios))
        near = idx[ratios <= best + _TOL]
        q = int(near[np.abs(abar[near]).argmax()])

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
        r.duals = None
        binv[i, :] /= u[i]
        u[i] = 0.0
        binv -= u[:, None] * binv[i]
        iterations += 1
        since_refactor += 1
        if np.count_nonzero(np.isfinite(binv)) != binv.size:
            # Sanitizer: the eta update blew up (overflow/NaN through a
            # tiny pivot).  Refactorize from scratch immediately — the
            # product-form error is discarded — and only give up when
            # the basis itself is singular or non-finite.
            _count(collector, "sparse.nonfinite_guard_trips")
            fresh = program.inverse(basis)
            if fresh is None:
                return stop(
                    SolveStatus.NUMERICAL_ERROR,
                    "non-finite basis inverse after eta update",
                )
            r.binv = binv = fresh
            since_refactor = 0
        if since_refactor >= 100:
            fresh = program.inverse(basis)
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
    if r.duals is None:
        y, d = r.c_ext[r.basis] @ r.binv, None
    else:
        y, d = r.duals
    marginals: Optional[np.ndarray] = y
    at_box = (r.vstat[:n] == _AT_UPPER) & program.unbounded
    if np.count_nonzero(at_box):
        if d is None:
            d_box = r.c[at_box] - _matvec(program.transpose, y)[at_box]
        else:
            d_box = d[:n][at_box]
        tol_box = OPTIMALITY_TOL * max(
            1.0, float(np.abs(r.c).max(initial=0.0))
        )
        if np.count_nonzero(d_box < -tol_box):
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
            basis=r.basis,
            slack=r.vstat.astype(float),
            dual=r.c.copy(),
            point=x.copy(),
        ),
        warm_start_used=r.warm,
    )
