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
* one **stacked warm restart** — between the controller's slots only
  prices (objective) and arrivals (right-hand side) change.  When a
  program's objective is bit-identical to the one its
  :class:`~repro.solvers.base.SolverState` token was taken at, the
  saved optimal basis is still dual feasible and the dual simplex
  restarts from it directly (RHS-only); when the objective changed,
  nonbasic variables are flipped to their dual-feasible bound first.
  :func:`_restart` does this for K same-shape programs at once, stacked
  block-diagonally: one gather of their ``c``/``b_ub``, one
  implied-bound evaluation, one ``np.linalg.inv`` over the stack of
  token bases, one bound-flip step, one primal point, one optimality
  test and one terminal feasibility check.  Only a program that needs
  pivots enters the per-program pivot loop, from the restart's basis,
  statuses and inverse.  The joint solve is a stack of one.
* per-class block decomposition — request classes couple only through
  the share-budget rows, so dropping those rows splits the slot LP into
  independent blocks of one shape.  The split is **compiled once** per
  constraint matrix by :func:`compile_decomposition`, which validates
  the block plan (a partition into same-shape blocks of a program with
  no equality rows) and stacks everything slot-invariant: the blocks'
  index maps, one block-diagonal CSR with its CSC and transpose, one
  implied-upper-bound entry map (:class:`ImpliedBounds`) over it, the
  stacked bounds, and the coupling rows' CSR.  Per slot,
  :func:`solve_decomposed` gathers ``c`` and ``b_ub`` once, restarts
  every block in the one stacked pass, and recombines.  If the
  recombined point satisfies the dropped coupling rows, the relaxation
  optimum is feasible and hence globally optimal; otherwise the caller
  joint-solves (the optimistic check — over-provisioned fleets
  virtually never trip it).

A block restarted in a stack reports exactly what it would alone: the
block-diagonal CSR mat-vec sums each row's entries in the block's own
order, and numpy's stacked ``inv``/``matmul`` give the bytes of their
2-D calls.  ``tests/test_property_sparse.py`` pins this, bit for bit,
against the one-program dual simplex the stack replaced.

Dense solvers remain untouched and serve as the equivalence oracle in
the property-based test harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
    "solve_sparse_lp",
    "ImpliedBounds",
    "implied_upper_bounds",
    "BlockPlan",
    "class_blocks",
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
    those two vectors change, so the decomposed solve compiles its
    stacked blocks once and evaluates them per slot.
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

    def upper_at(self, b_ub: np.ndarray) -> np.ndarray:
        """Upper bounds (float64) tightened by every bound ``b_ub`` implies.

        Infinite where neither the program nor a row bounds a variable.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            implied = (b_ub[self.rows] - self.row_act) / self.coef + self.col_lower
        cand = np.full(self.upper.size, np.inf)
        ok = np.isfinite(implied)
        np.minimum.at(cand, self.cols[ok], implied[ok])
        return np.minimum(self.upper, np.maximum(cand, self.lower))

    def evaluate(
        self, c: np.ndarray, b_ub: np.ndarray
    ) -> Optional[np.ndarray]:
        """Finite upper bounds (float64) under ``c``/``b_ub``, or ``None``.

        ``None`` when a variable with a negative objective coefficient
        stays unboxed.
        """
        upper = self.upper_at(b_ub)
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
# Stacked programs: K blocks of one shape behind one block-diagonal matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BlockStack:
    """K programs of one shape ``(m, n)``, stacked block-diagonally.

    Block ``k`` owns rows ``k*m .. k*m+m-1`` and columns
    ``k*n .. k*n+n-1`` of :attr:`matrix`, whose rows keep each block's
    own entry order: a mat-vec sums every row exactly as the block's
    own CSR would.
    """

    n: int
    m: int
    matrix: "sp.csr_matrix"
    csc: "sp.csc_matrix"
    transpose: "sp.csc_matrix"
    #: Per-block variable bounds, (K, n).
    lower: np.ndarray
    upper: np.ndarray
    #: Implied-upper-bound entry map over :attr:`matrix`.
    bounds: ImpliedBounds
    #: Blocks whose lower bounds are all finite; the others never box.
    boxable: np.ndarray
    #: Lower bounds over structural then slack variables, (K, n + m).
    lower_ext: np.ndarray
    #: The cold start of every block: the all-slack basis, its
    #: statuses (structurals at lower) and its inverse.
    cold_basis: np.ndarray
    cold_status: np.ndarray
    identity: np.ndarray

    @classmethod
    def of(
        cls,
        blocks: Sequence["sp.csr_matrix"],
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> "_BlockStack":
        """Stack same-shape CSR ``blocks`` with their (K, n) bounds."""
        m, n = blocks[0].shape
        matrix = blocks[0]
        if len(blocks) > 1:
            starts = np.cumsum([0] + [blk.nnz for blk in blocks])
            matrix = sp.csr_matrix(
                (
                    np.concatenate([blk.data for blk in blocks]),
                    np.concatenate(
                        [blk.indices + k * n for k, blk in enumerate(blocks)]
                    ),
                    np.concatenate([starts[:1]] + [
                        blk.indptr[1:] + start
                        for blk, start in zip(blocks, starts)
                    ]),
                ),
                shape=(len(blocks) * m, len(blocks) * n),
            )
        finite = np.isfinite(lower)
        # A block with an infinite lower bound implies no bound (it falls
        # back to HiGHS); compiling its entries at 0 keeps the others'.
        bounds = ImpliedBounds.compile(
            matrix, np.where(finite, lower, 0.0).ravel(), upper.ravel()
        )
        assert bounds is not None
        num_blocks = len(blocks)
        cold_status = np.full((num_blocks, n + m), _AT_LOWER, dtype=int)
        cold_status[:, n:] = _BASIC
        return cls(
            n=n, m=m, matrix=matrix, csc=matrix.tocsc(),
            transpose=matrix.T, lower=lower, upper=upper, bounds=bounds,
            boxable=finite.all(axis=1),
            lower_ext=np.concatenate(
                [lower, np.zeros((num_blocks, m))], axis=1
            ),
            cold_basis=np.tile(n + np.arange(m), (num_blocks, 1)),
            cold_status=cold_status,
            identity=np.tile(np.eye(m), (num_blocks, 1, 1)),
        )

    @property
    def num_blocks(self) -> int:
        """K, the number of stacked blocks."""
        return int(self.lower.shape[0])


def _times(stack: _BlockStack, x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``A_k @ x_k`` for the blocks ``ks`` (the rows of ``x``)."""
    full = np.zeros((stack.num_blocks, stack.n))
    full[ks] = x
    return (stack.matrix @ full.ravel()).reshape(-1, stack.m)[ks]


def _rtimes(stack: _BlockStack, y: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``y_k @ A_k`` for the blocks ``ks`` (the rows of ``y``).

    Formed as the transpose's CSC mat-vec, the product scipy's
    ``__rmatmul__`` runs, so every route pivots identically.
    """
    full = np.zeros((stack.num_blocks, stack.m))
    full[ks] = y
    return (stack.transpose @ full.ravel()).reshape(-1, stack.n)[ks]


def _factor(
    stack: _BlockStack, ks: np.ndarray, basis: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverses of the blocks' basis matrices ``[A_k | I][:, basis_k]``.

    Gathers every basis column from the block-diagonal CSC and inverts
    the stack in one call; returns the inverses and which are usable
    (neither singular nor non-finite).
    """
    n, m = stack.n, stack.m
    bmat = np.zeros((ks.size, m, m))
    j, col = np.nonzero(basis < n)
    var = ks[j] * n + basis[j, col]
    ac = stack.csc
    start = ac.indptr[var]
    count = ac.indptr[var + 1] - start
    owner = np.repeat(np.arange(var.size), count)
    entry = np.arange(owner.size) + np.repeat(
        start - (np.cumsum(count) - count), count
    )
    block = j[owner]
    bmat[block, ac.indices[entry] - ks[block] * m, col[owner]] = ac.data[entry]
    j, col = np.nonzero(basis >= n)
    bmat[j, basis[j, col] - n, col] = 1.0
    try:
        inv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        # One singular basis fails the whole stack: factor the blocks
        # one by one so that only the singular one starts cold.
        inv = np.stack([_inverse_or_nan(b) for b in bmat])
    return inv, np.isfinite(inv).all(axis=(1, 2))


def _inverse_or_nan(b_mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return np.full_like(b_mat, np.nan)


def _basis_norm1(stack: _BlockStack, k: int, basis: np.ndarray) -> float:
    """1-norm (max column abs-sum) of block ``k``'s basis matrix.

    Built column-by-column from the CSC data so the sanitizer's
    condition estimate (``norm1(B) * norm1(B^{-1})``) never assembles
    the dense basis matrix a second time.
    """
    ac, n = stack.csc, stack.n
    worst = 0.0
    for var in basis:
        if var < n:
            start, end = ac.indptr[k * n + var], ac.indptr[k * n + var + 1]
            col_sum = float(np.abs(ac.data[start:end]).sum())
        else:
            col_sum = 1.0
        if col_sum > worst:
            worst = col_sum
    return worst


# ---------------------------------------------------------------------------
# Bounded-variable dual simplex: one stacked restart, per-block pivots
# ---------------------------------------------------------------------------

@dataclass
class _Restart:
    """Per-block state of one stacked restart (see :func:`_restart`).

    Every array is indexed by block first; a block's pivots update its
    rows in place.
    """

    stack: _BlockStack
    c: np.ndarray
    b_ub: np.ndarray
    #: Costs and bounds over structural then slack variables,
    #: (K, n + m); the upper bounds are this slot's boxed ones.
    c_ext: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    #: Blocks boxed at this slot; the others fall back to HiGHS.
    boxed: np.ndarray
    basis: np.ndarray
    vstat: np.ndarray
    binv: np.ndarray
    #: Blocks that restarted from their token.
    warm: np.ndarray
    #: Primal point and basic bound violations at the current bases.
    x: np.ndarray
    viol_low: np.ndarray
    viol_up: np.ndarray
    #: Terminal structural points, clipped to the original bounds.
    point: np.ndarray
    #: OPTIMAL, a failure, or ``None`` while the block needs pivots.
    status: List[Optional[SolveStatus]]
    message: List[str]
    #: Pivot budget per block.
    limit: int


def _restart(
    stack: _BlockStack,
    c: np.ndarray,
    b_ub: np.ndarray,
    states: Sequence[Optional[SolverState]],
    max_iterations: Optional[int],
) -> _Restart:
    """Restart the dual simplex of every stacked block at once.

    ``c`` (K, n) and ``b_ub`` (K, m) are this slot's data and
    ``states`` the blocks' tokens.  Block by block, in order: box the
    variables (a block that cannot falls back to HiGHS); accept the
    token when its method, signature, shapes, index range and basic
    statuses check out and no nonbasic sits at an infinite upper bound,
    else start cold; factor the token's basis (singular or non-finite:
    cold); unless the token's dual equals ``c`` (RHS-only), flip the
    nonbasics onto their dual-feasible bound (a flip onto an infinite
    bound: cold); then take the primal point, the ``OPTIMALITY_TOL``
    test, the clip to the original bounds and the ``FEASIBILITY_TOL``
    check.  Each step runs once for the whole stack.
    """
    K, n, m = c.shape[0], stack.n, stack.m
    boxed_upper = stack.bounds.upper_at(b_ub.ravel()).reshape(K, n)
    finite = np.isfinite(boxed_upper)
    # Cold start: all-slack basis, nonbasics at their dual-feasible
    # bound.  Boxing guarantees the c<0 variables have one.
    vstat = stack.cold_status.copy()
    vstat[:, :n][(c < 0) & finite] = _AT_UPPER
    r = _Restart(
        stack=stack, c=c, b_ub=b_ub,
        c_ext=np.concatenate([c, np.zeros((K, m))], axis=1),
        lower=stack.lower_ext,
        upper=np.concatenate([boxed_upper, np.full((K, m), np.inf)], axis=1),
        boxed=stack.boxable & ~np.any((c < 0) & ~finite, axis=1),
        basis=stack.cold_basis.copy(),
        vstat=vstat,
        binv=stack.identity.copy(),
        warm=np.zeros(K, dtype=bool),
        x=np.zeros((K, n + m)),
        viol_low=np.zeros((K, m)),
        viol_up=np.zeros((K, m)),
        point=np.zeros((K, n)),
        status=[None] * K,
        message=[""] * K,
        limit=(
            int(max_iterations) if max_iterations is not None
            else 200 + 50 * (m + n)
        ),
    )
    _accept_tokens(r, states)
    ks = np.flatnonzero(r.boxed)
    if ks.size:
        _judge(r, ks, _primal_points(r, ks))
    return r


def _accept_tokens(
    r: _Restart, states: Sequence[Optional[SolverState]]
) -> None:
    """Restart each boxed block from its token where the token serves."""
    stack = r.stack
    n, m = stack.n, stack.m
    offered: List[int] = []
    bases: List[np.ndarray] = []
    statuses: List[np.ndarray] = []
    duals: List[np.ndarray] = []
    # A dual of another shape never equals c: NaN compares unequal.
    unequal = np.full(n, np.nan)
    for k in np.flatnonzero(r.boxed):
        state = states[k]
        if (
            state is None
            or state.method != "sparse"
            or tuple(state.signature) != (n, m, 0)
            or state.basis is None
            or state.slack is None
        ):
            continue
        basis = np.asarray(state.basis, dtype=int)
        vstat = np.asarray(state.slack, dtype=int)
        if basis.shape != (m,) or vstat.shape != (n + m,):
            continue
        dual = None if state.dual is None else np.asarray(state.dual)
        offered.append(int(k))
        bases.append(basis)
        statuses.append(vstat)
        duals.append(
            dual if dual is not None and dual.shape == (n,) else unequal
        )
    if not offered:
        return
    ks = np.array(offered)
    basis, vstat = np.array(bases), np.array(statuses)
    rows = np.arange(ks.size)[:, None]
    in_range = (
        (basis.min(axis=1, initial=0) >= 0)
        & (basis.max(axis=1, initial=0) < n + m)
    )
    marked = vstat[rows, np.where(in_range[:, None], basis, 0)]
    unbounded = ~np.isfinite(r.upper[ks])
    valid = np.flatnonzero(
        in_range
        & ((vstat == _BASIC).sum(axis=1) == m)
        & (marked == _BASIC).all(axis=1)
        # A nonbasic-at-upper variable needs a finite bound to sit on.
        & ~np.any((vstat[:, :n] == _AT_UPPER) & unbounded[:, :n], axis=1)
    )
    if not valid.size:
        return
    rhs_only = (np.array(duals)[valid] == r.c[ks[valid]]).all(axis=1)
    binv, usable = _factor(stack, ks[valid], basis[valid])
    keep = valid[usable]
    ks, basis, vstat, binv = ks[keep], basis[keep], vstat[keep], binv[usable]
    unbounded, rhs_only = unbounded[keep], rhs_only[usable]
    flip = np.flatnonzero(~rhs_only)
    if flip.size:
        # Objective changed: re-establish dual feasibility by flipping
        # nonbasic variables onto the bound their new reduced cost
        # prefers (a bound flip moves no basis).
        fk = ks[flip]
        d = r.c_ext[fk]
        y = np.matmul(
            d[rows[:flip.size], basis[flip]][:, None, :], binv[flip]
        )[:, 0, :]
        d[:, :n] -= _rtimes(stack, y, fk)
        d[:, n:] -= y
        flipped = vstat[flip]
        flip_up = (flipped == _AT_LOWER) & (d < -_TOL)
        flip_down = (flipped == _AT_UPPER) & (d > _TOL)
        flipped[flip_up] = _AT_UPPER
        flipped[flip_down] = _AT_LOWER
        vstat[flip] = flipped
        # A flip onto an infinite bound starts the block cold (boxed
        # blocks have finite lower bounds, so only an upper one can be).
        keep = np.ones(ks.size, dtype=bool)
        keep[flip] = ~np.any(flip_up & unbounded[flip], axis=1)
        ks, basis, vstat, binv = ks[keep], basis[keep], vstat[keep], binv[keep]
    r.basis[ks] = basis
    r.vstat[ks] = vstat
    r.binv[ks] = binv
    r.warm[ks] = True


def _primal_points(r: _Restart, ks: np.ndarray) -> np.ndarray:
    """Primal points of blocks ``ks`` at their bases; their worst violations."""
    rows = np.arange(ks.size)[:, None]
    basis = r.basis[ks]
    x = np.where(r.vstat[ks] == _AT_UPPER, r.upper[ks], r.lower[ks])
    x[~np.isfinite(x)] = 0.0
    x[rows, basis] = 0.0
    rhs_eff = r.b_ub[ks] - _times(r.stack, x[:, :r.stack.n], ks)
    x[rows, basis] = np.matmul(r.binv[ks], rhs_eff[:, :, None])[:, :, 0]
    x_basic = x[rows, basis]
    viol_low = r.lower[ks[:, None], basis] - x_basic
    viol_up = x_basic - r.upper[ks[:, None], basis]
    r.x[ks] = x
    r.viol_low[ks] = viol_low
    r.viol_up[ks] = viol_up
    return np.maximum(viol_low, viol_up).max(axis=1, initial=0.0)


def _judge(r: _Restart, ks: np.ndarray, worst: np.ndarray) -> None:
    """Settle the blocks ``ks`` whose points violate at most ``worst``.

    A non-finite violation is a numerical error; one within
    ``OPTIMALITY_TOL`` ends the block at its clipped point, checked
    against ``FEASIBILITY_TOL``; the rest keep status ``None``.
    """
    for k in ks[~np.isfinite(worst)]:
        r.status[k] = SolveStatus.NUMERICAL_ERROR
        r.message[k] = "non-finite basic solution"
    done = ks[worst <= OPTIMALITY_TOL]
    if not done.size:
        return
    stack = r.stack
    lower, upper = stack.lower[done], stack.upper[done]
    point = r.x[done, :stack.n]
    np.clip(point, lower, upper, out=point)
    r.point[done] = point
    # Worst bound and row violations (a NaN fails the check).
    bound = np.maximum(lower - point, point - upper).max(axis=1, initial=0.0)
    row = (_times(stack, point, done) - r.b_ub[done]).max(axis=1, initial=0.0)
    feasible = (bound <= FEASIBILITY_TOL) & (row <= FEASIBILITY_TOL)
    for k, ok in zip(done, feasible):
        if ok:
            r.status[k] = SolveStatus.OPTIMAL
        else:
            r.status[k] = SolveStatus.NUMERICAL_ERROR
            r.message[k] = "terminal point failed feasibility check"


def _refactor(r: _Restart, k: int) -> bool:
    """Refactorize block ``k``'s basis in place; False when unusable."""
    binv, usable = _factor(r.stack, np.array([k]), r.basis[k][None])
    if usable[0]:
        r.binv[k] = binv[0]
    return bool(usable[0])


def _pivot(r: _Restart, k: int, collector: Optional[Collector]) -> int:
    """Dual simplex pivots on block ``k`` from the restart's arrays.

    Runs until the block settles (``r.status[k]``) and returns its
    pivot count.  ``collector`` receives the numerical-sanitizer
    telemetry: NaN/inf guard trips at the eta update
    (``sparse.nonfinite_guard_trips`` — the iteration recovers through
    an early refactorization when the fresh inverse is finite), 1-norm
    basis condition estimates at every refactorization point (histogram
    ``sparse.basis_condition``), and ill-conditioned bases above
    :data:`_CONDITION_LIMIT` (``sparse.ill_conditioned_bases``).
    """
    stack = r.stack
    n, ac = stack.n, stack.csc
    block = np.array([k])
    c_ext, lower, upper = r.c_ext[k], r.lower[k], r.upper[k]
    # Views: a pivot updates the restart's rows in place.
    basis, vstat, binv = r.basis[k], r.vstat[k], r.binv[k]
    viol_low, viol_up = r.viol_low[k], r.viol_up[k]
    fixed = upper - lower <= _TOL
    alpha = np.empty(n + stack.m)  # pivot-row scratch, reused every pivot

    def stop(status: SolveStatus, message: str) -> int:
        r.status[k], r.message[k] = status, message
        return iterations

    iterations = 0
    since_refactor = 0
    while True:
        if iterations >= r.limit:
            return stop(
                SolveStatus.ITERATION_LIMIT,
                f"dual simplex hit {r.limit} iterations",
            )
        viol = np.maximum(viol_low, viol_up)
        i = int(np.argmax(viol))
        below = viol_low[i] >= viol_up[i]
        rho = binv[i]
        alpha[:n] = _rtimes(stack, rho[None], block)[0]
        alpha[n:] = rho
        y = c_ext[basis] @ binv
        d = c_ext.copy()
        d[:n] -= _rtimes(stack, y[None], block)[0]
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
            start, end = ac.indptr[k * n + q], ac.indptr[k * n + q + 1]
            rows = ac.indices[start:end] - k * stack.m
            u = binv[:, rows] @ ac.data[start:end]
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
            if not _refactor(r, k):
                return stop(
                    SolveStatus.NUMERICAL_ERROR,
                    "non-finite basis inverse after eta update",
                )
            since_refactor = 0
        if since_refactor >= 100:
            if not _refactor(r, k):
                return stop(
                    SolveStatus.NUMERICAL_ERROR,
                    "singular basis at refactorization",
                )
            if collector is not None and collector.enabled:
                # Condition estimate at the refactorization point: the
                # drifted eta-product inverse is being replaced anyway,
                # so one extra norm is the cheapest honest health check.
                cond = _basis_norm1(stack, k, basis) * float(
                    np.abs(binv).sum(axis=0).max(initial=0.0)
                )
                collector.observe("sparse.basis_condition", cond)
                if cond > _CONDITION_LIMIT:
                    collector.increment("sparse.ill_conditioned_bases")
            since_refactor = 0
        _judge(r, block, _primal_points(r, block))
        if r.status[k] is not None:
            return iterations


def _finish_block(
    r: _Restart,
    k: int,
    collector: Optional[Collector],
    max_iterations: Optional[int],
    program: Callable[[], LinearProgram],
) -> Solution:
    """Finish block ``k`` of a restart: pivot, count, or fall back.

    A block the restart left unsettled pivots from the restart's basis.
    An optimum carries the block's ``method="sparse"`` token; a block
    that cannot box, or whose dual simplex fails short of its iteration
    limit, goes to HiGHS on ``program()`` — the only use of a per-block
    :class:`LinearProgram`.
    """
    # A taller block skips the dense basis inverse altogether.
    direct = r.stack.m <= SPARSE_DIRECT_ROW_LIMIT
    if direct and not r.boxed[k]:
        _count(collector, "sparse.box_fallbacks")
    elif direct:
        iterations = 0 if r.status[k] is not None else _pivot(r, k, collector)
        status, warm = r.status[k], bool(r.warm[k])
        if status is SolveStatus.OPTIMAL:
            _count(
                collector,
                "sparse.warm_hits" if warm else "sparse.cold_solves",
            )
            _count(collector, "sparse.iterations", iterations)
            x = r.point[k].copy()
            return Solution(
                status=status,
                x=x,
                iterations=iterations,
                state=SolverState(
                    method="sparse",
                    signature=(r.stack.n, r.stack.m, 0),
                    basis=r.basis[k].copy(),
                    slack=r.vstat[k].astype(float),
                    dual=r.c[k].copy(),
                    point=x.copy(),
                ),
                warm_start_used=warm,
            )
        if status is SolveStatus.ITERATION_LIMIT:
            return Solution(
                status=status,
                message=r.message[k],
                iterations=iterations,
                warm_start_used=warm,
            )
        _count(collector, "sparse.highs_fallbacks")
    return solve_lp(
        program(), "highs", collector=collector, max_iterations=max_iterations
    )


def solve_sparse_lp(
    lp: LinearProgram,
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
) -> Solution:
    """Solve ``lp`` on the sparse path (direct dual simplex or HiGHS).

    The direct bounded-variable dual simplex handles the common slot-LP
    shape: inequality rows only, boxable variables, at most
    :data:`SPARSE_DIRECT_ROW_LIMIT` rows.  It is the stacked restart
    over a stack of one, plus the row duals.  Everything else — and any
    numerical failure or infeasibility claim of the direct solver — is
    delegated to HiGHS, which consumes the sparse matrix without
    densifying.  ``state`` tokens produced here (``method="sparse"``)
    enable the RHS-only dual re-solve fast path across slots.
    """
    if (
        lp.a_ub is None
        or lp.a_eq is not None
        or lp.a_ub.shape[0] > SPARSE_DIRECT_ROW_LIMIT
    ):
        return solve_lp(
            lp, "highs", collector=collector, max_iterations=max_iterations
        )
    assert lp.b_ub is not None
    r = _restart(
        _BlockStack.of([_as_csr(lp.a_ub)], lp.lower[None], lp.upper[None]),
        lp.c[None], lp.b_ub[None], [state], max_iterations,
    )
    solution = _finish_block(r, 0, collector, max_iterations, lambda: lp)
    if r.status[0] is SolveStatus.OPTIMAL:
        assert solution.x is not None
        # The duals certify the *boxed* problem.  They transfer to the
        # original LP unless a structural variable ends nonbasic at an
        # artificial box (original upper infinite) with a meaningfully
        # negative reduced cost — the box is redundant for the feasible
        # set (so x stays optimal), but its multiplier belongs to the
        # rows implying the bound, and emitting it as-is would fail an
        # independent reduced-cost certificate.  Degrade to primal-only
        # in that case.
        y = r.c_ext[0][r.basis[0]] @ r.binv[0]
        marginals: Optional[np.ndarray] = y
        at_box = (r.vstat[0][:lp.num_variables] == _AT_UPPER) & ~np.isfinite(
            lp.upper
        )
        if np.any(at_box):
            d_box = lp.c[at_box] - (r.stack.transpose @ y)[at_box]
            tol_box = OPTIMALITY_TOL * max(
                1.0, float(np.abs(lp.c).max(initial=0.0))
            )
            if np.any(d_box < -tol_box):
                marginals = None
        solution.objective = float(lp.c @ solution.x)
        solution.ineq_marginals = marginals
    return solution


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
    array of dtype intp.  Every block is ``(S+L) x (S*L+L)``.  Index
    layout mirrors :meth:`FixedLevelLPCache._build_aggregated_structure`.
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
class CompiledDecomposition:
    """A validated block split of one constraint matrix and bound pair.

    Built by :func:`compile_decomposition`; :func:`solve_decomposed`
    accepts every LP that :meth:`matches` it — in the controller, every
    slot LP refilled from the same :class:`FixedLevelLPCache`.
    """

    matrix: "sp.csr_matrix"
    lower: np.ndarray
    upper: np.ndarray
    #: Each block's columns and rows in the full program, (K, n) and
    #: (K, m); row ``k`` is block ``k``.
    var_idx: np.ndarray
    row_idx: np.ndarray
    #: The blocks, stacked block-diagonally and restarted together.
    stack: _BlockStack
    coupling_rows: np.ndarray
    #: CSR of the coupling rows, for the recombination check.
    coupling_matrix: "sp.csr_matrix"

    def matches(self, lp: LinearProgram) -> bool:
        """True when ``lp`` has the compiled matrix and bounds.

        A program with equality rows never matches: dropping its
        coupling rows would not account for them.
        """
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

    def block_program(
        self, k: int, c: np.ndarray, b_ub: np.ndarray
    ) -> LinearProgram:
        """Block ``k``'s own program at ``c``/``b_ub`` (its HiGHS fallback)."""
        return LinearProgram(
            c=c, a_ub=self.matrix[self.row_idx[k]][:, self.var_idx[k]],
            b_ub=b_ub, lower=self.stack.lower[k], upper=self.stack.upper[k],
        )


def compile_decomposition(
    lp: LinearProgram,
    blocks: Sequence[BlockPlan],
    coupling_rows: np.ndarray,
) -> CompiledDecomposition:
    """Validate ``blocks`` against ``lp`` and compile them (raise otherwise).

    Blocks must partition every column and every non-coupling row, and
    each block's rows may only touch that block's columns — otherwise
    dropping the coupling rows would silently change the problem.  For
    the same reason ``lp`` may have no equality rows.  All blocks must
    share one shape (:func:`class_blocks` always gives
    ``(S+L) x (S*L+L)``) so that they stack.  Runs once per constraint
    matrix (the optimizer calls it on its first sparse slot): everything
    slot-invariant is cut and stacked here, so a slot's
    :func:`solve_decomposed` only gathers ``c`` and ``b_ub``.
    """
    if lp.a_ub is None:
        raise ValueError("block decomposition needs inequality rows")
    if lp.a_eq is not None:
        raise ValueError(
            "block decomposition cannot split equality rows; "
            "solve the program jointly"
        )
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
    shapes = sorted({(len(blk.row_idx), len(blk.var_idx)) for blk in blocks})
    if len(shapes) != 1:
        raise ValueError(
            f"blocks must share one (rows, columns) shape to stack, "
            f"got {shapes}"
        )
    var_idx = np.stack([np.asarray(blk.var_idx) for blk in blocks])
    row_idx = np.stack([np.asarray(blk.row_idx) for blk in blocks])
    return CompiledDecomposition(
        matrix=a,
        lower=lp.lower.copy(),
        upper=lp.upper.copy(),
        var_idx=var_idx,
        row_idx=row_idx,
        stack=_BlockStack.of(
            [a[rows][:, cols] for rows, cols in zip(row_idx, var_idx)],
            lp.lower[var_idx], lp.upper[var_idx],
        ),
        coupling_rows=coupling_rows,
        coupling_matrix=a[coupling_rows],
    )


def _worker_error(label: str, exc: Exception) -> Exception:
    """``WorkerError`` naming ``label`` and ``exc``'s type and text."""
    from repro.sim.parallel import WorkerError

    return WorkerError(f"{label}: {type(exc).__name__}: {exc}")


@dataclass
class DecomposedSolution:
    """Recombined block solve: the joint solution plus per-block states."""

    solution: Solution
    states: List[Optional[SolverState]]
    num_blocks: int


def solve_decomposed(  # reprolint: disable=RP004
    lp: LinearProgram,
    compiled: CompiledDecomposition,
    states: Optional[Sequence[Optional[SolverState]]] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
) -> Optional[DecomposedSolution]:
    """Optimistically solve ``lp`` block by block; ``None`` on failure.

    Gathers the compiled blocks' slices of ``lp.c`` and ``lp.b_ub``
    once, restarts every block in one stacked pass (each from its own
    warm-start token), pivots only the blocks that need it, and
    recombines.  When the recombined point satisfies the dropped
    coupling rows, the relaxation optimum is feasible for the full
    program and therefore globally optimal.  Returns ``None`` — caller
    joint-solves — when a block fails or a coupling row is violated.
    Raises ``ValueError`` when ``lp``'s matrix or bounds are not the
    ones ``compiled`` was built from (or ``lp`` has equality rows), and
    :class:`~repro.sim.parallel.WorkerError` when a solve raises: a
    block's pivots or fallback name its class (``block[class=k]``), the
    stacked pass names every class it covered (``block[class=0,1,2]``).

    ``collector`` receives the block solves' ``sparse.*`` counters as
    well as the decomposition's own.
    """
    if not compiled.matches(lp):
        raise ValueError(
            "LP matrix, bounds or equality rows differ from the compiled "
            "decomposition; compile one for this LP's constraint matrix"
        )
    assert lp.b_ub is not None
    num_blocks = compiled.stack.num_blocks
    block_states: List[Optional[SolverState]] = (
        list(states) if states is not None and len(states) == num_blocks
        else [None] * num_blocks
    )
    c, b_ub = lp.c[compiled.var_idx], lp.b_ub[compiled.row_idx]
    # Blocks are per-class (see class_blocks), so a crash names the
    # classes it hit.
    try:
        restart = _restart(
            compiled.stack, c, b_ub, block_states, max_iterations
        )
    except Exception as exc:
        classes = ",".join(str(k) for k in range(num_blocks))
        raise _worker_error(f"block[class={classes}]", exc) from exc
    results: List[Solution] = []
    for k in range(num_blocks):
        try:
            results.append(_finish_block(
                restart, k, collector, max_iterations,
                lambda k=k: compiled.block_program(k, c[k], b_ub[k]),
            ))
        except Exception as exc:
            raise _worker_error(f"block[class={k}]", exc) from exc
    if any(not r.ok for r in results):
        _count(collector, "sparse.block_failures")
        return None
    x = np.zeros(lp.num_variables)
    x[compiled.var_idx] = np.stack([r.x for r in results])
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
        message=f"decomposed into {num_blocks} blocks",
    )
    _count(collector, "sparse.decomposed_solves")
    return DecomposedSolution(
        solution=solution,
        states=[r.state for r in results],
        num_blocks=num_blocks,
    )
