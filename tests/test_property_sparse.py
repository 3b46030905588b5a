"""Property-based sparse==dense equivalence harness.

Randomized counterpart of ``test_sparse_solver.py``, in the style of
``test_property_warmstart.py``: across random topologies, slot
sequences, and synthetic LPs, the sparse path (CSR formulation, direct
dual simplex, compiled program, optimizer wiring) must reproduce the
dense path's objectives and plans to 1e-6 relative tolerance — warm and
cold.  Where the sparse solver beats HiGHS, the in-house dense simplex
is the judge (see ``_agrees_with_highs``).
``TestStackedRestartMatchesOneProgramSimplex`` pins the compiled
program's warm restart bit for bit to a one-program reference dual
simplex kept below.
"""

from dataclasses import replace
from typing import Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.config import OptimizerConfig
from repro.core.formulation import (
    DEADLINE_SAFETY,
    FixedLevelLPCache,
    SlotInputs,
)
from repro.core.objective import evaluate_plan
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.obs.collectors import NULL_COLLECTOR, Collector, InMemoryCollector
from repro.solvers import sparse as sparse_mod
from repro.solvers.base import (
    LinearProgram,
    Solution,
    SolverState,
    SolveStatus,
    problem_signature,
)
from repro.solvers.linprog import solve_lp
from repro.solvers.sparse import (
    ImpliedBounds,
    SparseProgram,
    solve_sparse_lp,
)
from repro.solvers.tolerances import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    ZERO_TOL,
)

REL_TOL = 1e-6


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


#: HiGHS's dual tolerance treats c[0] as zero and stops at x = 0
#: (objective 0.0); the sparse dual simplex takes x = [20, 0]
#: (objective -1.192e-6), which is feasible and strictly better.
HIGHS_TIE_LP = LinearProgram(
    c=np.array([-5.96e-8, 1.0]),
    a_ub=sparse.csr_matrix(np.array([[0.1, 0.1], [0.0, 0.0]])),
    b_ub=np.array([2.0, 2.0]),
)


def _agrees_with_highs(lp, solution, ref):
    """Whether the sparse objective matches HiGHS's at 1e-6.

    HiGHS can stop at a worse vertex when a cost sits inside its dual
    tolerance, so a sparse objective *below* HiGHS's is accepted when
    the in-house dense simplex, run on the densified LP, reaches it
    too.  The caller still checks the sparse point for feasibility.  A
    sparse objective above HiGHS's always fails.
    """
    if _close(solution.objective, ref.objective):
        return True
    if solution.objective > ref.objective:
        return False
    oracle = solve_lp(replace(lp, a_ub=lp.a_ub.toarray()), "simplex")
    return oracle.ok and _close(solution.objective, oracle.objective)


@st.composite
def boxable_lp_pairs(draw, max_vars=7, max_rows=5):
    """A direct-solvable LP plus a same-structure perturbation.

    One all-positive row guarantees the implied-bound boxing succeeds,
    mirroring the arrival-cap rows of the slot LPs.
    """
    n = draw(st.integers(2, max_vars))
    m = draw(st.integers(2, max_rows))
    a = draw(arrays(float, (m, n),
                    elements=st.floats(0.0, 3.0, allow_nan=False)))
    signs = draw(arrays(bool, (m, n)))
    a = np.where(signs, a, -a)
    a[0] = np.abs(a[0]) + 0.1  # boxing row

    def instance():
        c = draw(arrays(float, n,
                        elements=st.floats(-3.0, 3.0, allow_nan=False)))
        b = draw(arrays(float, m,
                        elements=st.floats(0.5, 4.0, allow_nan=False)))
        return LinearProgram(c=c, a_ub=sparse.csr_matrix(a), b_ub=b)

    return instance(), instance()


@st.composite
def random_topologies(draw):
    """Small random one-level topologies, feasible by construction.

    Server counts start at **zero** so degenerate fleets (a fully
    failed DC) flow through the whole sparse path; at least one DC
    always keeps a server.
    """
    K = draw(st.integers(1, 2))
    S = draw(st.integers(1, 2))
    L = draw(st.integers(1, 2))
    classes = tuple(
        RequestClass(
            f"c{k}",
            ConstantTUF(value=draw(st.floats(5.0, 20.0)),
                        deadline=draw(st.floats(0.01, 0.05))),
            transfer_unit_cost=draw(st.floats(1e-5, 1e-3)),
        )
        for k in range(K)
    )
    counts = [draw(st.integers(0, 3)) for _ in range(L)]
    if all(count == 0 for count in counts):
        counts[0] = 1
    datacenters = tuple(
        DataCenter(
            f"dc{l}",
            num_servers=counts[l],
            service_rates=np.array(
                [draw(st.floats(2000.0, 6000.0)) for _ in range(K)]
            ),
            energy_per_request=np.array(
                [draw(st.floats(1e-4, 5e-4)) for _ in range(K)]
            ),
        )
        for l in range(L)
    )
    distances = np.array(
        [[draw(st.floats(100.0, 2000.0)) for _ in range(L)]
         for _ in range(S)]
    )
    return CloudTopology(
        request_classes=classes,
        frontends=tuple(FrontEnd(f"fe{s}") for s in range(S)),
        datacenters=datacenters,
        distances=distances,
    )


@st.composite
def slot_sequences(draw, topology, num_slots=2):
    """Random (arrivals, prices) per slot; arrivals may hit zero."""
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    slots = []
    for _ in range(num_slots):
        arrivals = np.array(
            [[draw(st.floats(0.0, 3000.0)) for _ in range(S)]
             for _ in range(K)]
        )
        prices = np.array([draw(st.floats(0.02, 0.15)) for _ in range(L)])
        slots.append((arrivals, prices))
    return slots


def _loop_a_ub(topology, per_server):
    """The fixed-level constraint matrix built entry by entry.

    The reference the vectorized CSR builder of ``FixedLevelLPCache`` is
    pinned to, on ``topology`` and on ``topology.per_server()``.  The
    aggregated layout is the per-server one with one "server" per data
    center.
    """
    K, S = topology.num_classes, topology.num_frontends
    mu, cap = topology.service_rates, topology.server_capacities
    if per_server:
        dc_of = np.repeat(np.arange(topology.num_datacenters),
                          topology.servers_per_datacenter)
    else:
        dc_of = np.arange(topology.num_datacenters)
    N = dc_of.size
    n_lam = K * S * N
    a = np.zeros((K * N + N + K * S, n_lam + K * N))
    # (1) Delay per (k, n): sum_s lam - phi*C*mu <= -1/D
    for k in range(K):
        for n in range(N):
            r = k * N + n
            for s in range(S):
                a[r, (k * S + s) * N + n] = 1.0
            l = dc_of[n]
            a[r, n_lam + k * N + n] = -cap[l] * mu[k, l]
    # (2) Shares: sum_k phi <= 1 per server (M_l per data center)
    for n in range(N):
        for k in range(K):
            a[K * N + n, n_lam + k * N + n] = 1.0
    # (3) Arrivals: sum_n lam <= lambda_{k,s}
    for k in range(K):
        for s in range(S):
            r = K * N + N + k * S + s
            a[r, (k * S + s) * N:(k * S + s) * N + N] = 1.0
    return a


def _loop_vectors(inputs, per_server):
    """The one-level slot LP's ``c``, ``b_ub`` and ``upper``, entry by entry.

    Built from the original topology's per-data-center data, so the
    per-server layout (``per_server=True``) reads each server's cost,
    share budget and deadline off its data center, as the paper's
    Table I does.
    """
    topology = inputs.topology
    K, S, L = (topology.num_classes, topology.num_frontends,
               topology.num_datacenters)
    M = topology.servers_per_datacenter.astype(float)
    if per_server:
        dc_of = np.repeat(np.arange(L), topology.servers_per_datacenter)
        budget = np.ones(dc_of.size)
    else:
        dc_of = np.arange(L)
        budget = M
    N = dc_of.size
    n_lam = K * S * N
    cost = inputs.cost_per_request()  # (K, S, L)
    scale = (inputs.deadline_scale * (1.0 - DEADLINE_SAFETY)
             / inputs.delay_factor)
    T = inputs.slot_duration
    c = np.zeros(n_lam + K * N)
    b = np.zeros(K * N + N + K * S)
    upper = np.full(n_lam + K * N, np.inf)
    for k, rc in enumerate(topology.request_classes):
        utility = rc.tuf.values[0]
        deadline = rc.tuf.deadlines[0] * scale
        for n in range(N):
            b[k * N + n] = -budget[n] / deadline
            upper[n_lam + k * N + n] = budget[n]
            for s in range(S):
                c[(k * S + s) * N + n] = -T * (utility - cost[k, s, dc_of[n]])
                if M[dc_of[n]] == 0:
                    upper[(k * S + s) * N + n] = 0.0
    b[K * N:K * N + N] = budget
    b[K * N + N:] = inputs.arrivals.ravel()
    return c, b, upper


class TestSparseMatrixEquivalence:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_csr_cache_equals_dense_cache(self, data):
        # The per-server layout is the aggregated one on the per-server
        # topology, with each server at its data center's price.
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology))
        servers = topology.servers_per_datacenter
        for per_server in (False, True):
            reference = _loop_a_ub(topology, per_server)
            built = topology.per_server() if per_server else topology
            dense_cache = FixedLevelLPCache(built)
            sparse_cache = FixedLevelLPCache(built, sparse=True)
            for arrivals, prices in slots:
                inputs = SlotInputs(topology=topology, arrivals=arrivals,
                                    prices=prices)
                c, b, upper = _loop_vectors(inputs, per_server)
                if per_server:
                    inputs = replace(inputs, topology=built,
                                     prices=np.repeat(prices, servers))
                dense_lp, _ = dense_cache.build(inputs)
                sparse_lp, _ = sparse_cache.build(inputs)
                assert isinstance(dense_lp.a_ub, np.ndarray)
                assert sparse.issparse(sparse_lp.a_ub)
                assert _same_bytes(dense_lp.a_ub, reference)
                assert _same_bytes(sparse_lp.a_ub.toarray(), reference)
                for lp in (dense_lp, sparse_lp):
                    assert _same_bytes(lp.c, c)
                    assert _same_bytes(lp.b_ub, b)
                    assert _same_bytes(lp.upper, upper)
                assert np.array_equal(dense_lp.lower, sparse_lp.lower)


class TestSparseSolverEquivalence:
    @given(pair=boxable_lp_pairs())
    @example(pair=(HIGHS_TIE_LP, HIGHS_TIE_LP))
    @settings(max_examples=50, deadline=None)
    def test_cold_and_warm_match_highs(self, pair, certify):
        first, second = pair
        cold1 = solve_sparse_lp(first)
        ref1 = solve_lp(first, "highs")
        assert cold1.ok == ref1.ok
        if not ref1.ok:
            return
        assert _agrees_with_highs(first, cold1, ref1)
        assert first.is_feasible(cold1.x, tol=1e-6)
        certify(first, cold1)
        # Warm re-solve of the perturbation (new c AND new b).
        warm = solve_sparse_lp(second, state=cold1.state)
        ref2 = solve_lp(second, "highs")
        assert warm.ok == ref2.ok
        if ref2.ok:
            assert _agrees_with_highs(second, warm, ref2)
            assert second.is_feasible(warm.x, tol=1e-6)
            certify(second, warm)


class TestCompiledProgramEquivalence:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_compiled_slot_sequence_is_optimal(self, data, certify):
        # One program compiled from the first slot LP solves every slot,
        # each restarted from the previous slot's token.
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology, num_slots=3))
        cache = FixedLevelLPCache(topology, sparse=True)
        state = program = None
        for arrivals, prices in slots:
            inputs = SlotInputs(topology=topology, arrivals=arrivals,
                                prices=prices)
            lp, _ = cache.build(inputs)
            if program is None:
                program = SparseProgram.compile(lp)
            solution = program.solve(lp, state=state).require_ok()
            ref = solve_lp(lp, "highs").require_ok()
            state = solution.state
            assert _close(solution.objective, ref.objective)
            assert lp.is_feasible(solution.x, tol=1e-6)
            certify(lp, solution)


class TestOptimizerSparseEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sparse_optimizer_equals_dense(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology))
        dense = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(level_method="lp")
        )
        sparse_opt = ProfitAwareOptimizer(
            topology, config=OptimizerConfig(level_method="lp", sparse=True)
        )
        for arrivals, prices in slots:
            dp = dense.plan_slot(arrivals, prices)
            sp = sparse_opt.plan_slot(arrivals, prices)
            assert sparse_opt.last_stats.fallback_level == 0
            assert _close(sparse_opt.last_stats.objective,
                          dense.last_stats.objective)
            # The LP can have alternative optima (near-idle fleets make
            # many share splits optimal), so plans are compared by the
            # realized profit they achieve, not elementwise.
            dense_profit = evaluate_plan(dp, arrivals, prices).net_profit
            sparse_profit = evaluate_plan(sp, arrivals, prices).net_profit
            assert _close(sparse_profit, dense_profit)
            assert np.all(sp.rates >= -1e-9)
            assert np.all(sp.shares >= -1e-9)
            assert np.all(sp.shares.sum(axis=0) <= 1.0 + 1e-6)
            assert np.all(
                sp.rates.sum(axis=2) <= arrivals * (1.0 + REL_TOL) + 1e-6
            )

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_sparse_warm_equals_sparse_cold(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology, num_slots=3))
        warm = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="lp", sparse=True, warm_start=True,
        ))
        cold = ProfitAwareOptimizer(topology, config=OptimizerConfig(
            level_method="lp", sparse=True, warm_start=False,
        ))
        for arrivals, prices in slots:
            warm.plan_slot(arrivals, prices)
            cold.plan_slot(arrivals, prices)
            assert _close(warm.last_stats.objective,
                          cold.last_stats.objective)


# ---------------------------------------------------------------------------
# Bit-for-bit pin of the compiled program's restart
# ---------------------------------------------------------------------------
#
# The reference below is a one-program dual simplex that compiles
# nothing: it restores one token, inverts one basis column by column,
# flips, pivots and checks its own terminal point.  Every solve of the
# sparse module must reproduce it byte for byte — points, statuses,
# iterations, warm flags, every token field, duals — and count the same
# ``sparse.*`` counters.

_TOL = ZERO_TOL
_PIVOT_TOL = PIVOT_TOL
_CONDITION_LIMIT = 1e12
_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


def _count(collector, name, value=1):
    (collector if collector is not None else NULL_COLLECTOR).increment(
        name, value
    )


def _as_csr(a):
    if sparse.issparse(a):
        return a.tocsr()
    return sparse.csr_matrix(np.asarray(a, dtype=float))


def _basis_inverse(
    ac: "sparse.csc_matrix", basis: np.ndarray, n: int, m: int
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
    ac: "sparse.csc_matrix", basis: np.ndarray, n: int
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
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Validate a warm-start token; return (basis, vstat)."""
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
    return basis.copy(), vstat.copy()


def _dual_simplex(
    lp: LinearProgram,
    boxed_upper: np.ndarray,
    state: Optional[SolverState],
    max_iterations: Optional[int],
    collector: Optional[Collector] = None,
    ac: Optional["sparse.csc_matrix"] = None,
    at: Optional["sparse.csc_matrix"] = None,
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
        basis, vstat = restored
        binv = _basis_inverse(ac, basis, n, m)
        if binv is not None:
            warm_used = True
            # Re-establish dual feasibility by flipping nonbasic
            # variables onto the bound their reduced cost prefers (a
            # bound flip moves no basis), also when c is the token's: a
            # box that opened since may leave a nonbasic at the wrong
            # bound.
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



def _solve_sparse(
    lp: LinearProgram,
    state: Optional[SolverState],
    collector: Optional[Collector],
    max_iterations: Optional[int],
) -> Solution:
    """The parent's ``solve_sparse_lp``: one program, its own CSC."""
    direct_ok = (
        lp.a_ub is not None
        and lp.a_eq is None
        and lp.a_ub.shape[0] <= sparse_mod.SPARSE_DIRECT_ROW_LIMIT
    )
    boxed: Optional[np.ndarray] = None
    if direct_ok:
        bounds = ImpliedBounds.compile(lp.a_ub, lp.lower, lp.upper)
        if bounds is not None and lp.b_ub is not None:
            boxed = bounds.evaluate(lp.c, lp.b_ub)
        if boxed is None:
            _count(collector, "sparse.box_fallbacks")
    if boxed is not None:
        solution = _dual_simplex(
            lp, boxed, state, max_iterations, collector=collector,
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


def _same_bytes(got, ref):
    if got is None or ref is None:
        return got is None and ref is None
    got, ref = np.asarray(got), np.asarray(ref)
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and got.tobytes() == ref.tobytes())


def _assert_same_state(got, ref):
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert got.method == ref.method
    assert tuple(got.signature) == tuple(ref.signature)
    for name in ("basis", "slack", "dual", "point"):
        assert _same_bytes(getattr(got, name), getattr(ref, name)), name


def _assert_same_solution(got, ref):
    assert got.status is ref.status
    assert got.message == ref.message
    assert got.iterations == ref.iterations
    assert got.warm_start_used == ref.warm_start_used
    assert _same_bytes(got.x, ref.x)
    assert _same_bytes(got.objective, ref.objective)
    assert _same_bytes(got.ineq_marginals, ref.ineq_marginals)
    _assert_same_state(got.state, ref.state)


def _sparse_counters(collector):
    return {name: value for name, value in collector.counters.items()
            if name.startswith("sparse.")}


def _corrupt(token, kind, lp):
    """``token`` made stale in one way the restart must reject."""
    n, m = lp.num_variables, lp.a_ub.shape[0]
    basis = np.asarray(token.basis).copy()
    slack = np.asarray(token.slack).copy()
    if kind == "method":
        return replace(token, method="simplex")
    if kind == "signature":
        return replace(token, signature=(n + 1, m, 0))
    if kind == "shape":
        return replace(token, basis=np.append(basis, n))
    if kind == "range":
        basis[0] = n + m
        return replace(token, basis=basis)
    if kind == "unmarked":
        # Still m statuses marked basic, but one basis entry is not.
        nonbasic = np.flatnonzero(slack != _BASIC)[0]
        slack[basis[0]] = _AT_LOWER
        slack[nonbasic] = _BASIC
        return replace(token, slack=slack)
    assert kind == "singular"
    # Slacks on every row but r0 plus a column that misses row r0:
    # row r0 of the basis matrix is all zero.
    dense = lp.a_ub.toarray()
    j, r0 = np.argwhere(dense.T == 0.0)[0]
    basis = n + np.arange(m)
    basis[r0] = j
    slack = np.full(n + m, float(_AT_LOWER))
    slack[basis] = _BASIC
    return replace(token, basis=basis, slack=slack)


_BUDGETS = st.sampled_from([None, None, 0, 1])


class TestStackedRestartMatchesOneProgramSimplex:
    @given(pair=boxable_lp_pairs(), budget=_BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_joint_solve_is_a_stack_of_one(self, pair, budget):
        first, second = pair
        # Same c as the first program, the second's rhs: RHS-only.
        rhs_only = LinearProgram(c=first.c, a_ub=first.a_ub,
                                 b_ub=second.b_ub)
        got_c, ref_c = InMemoryCollector(), InMemoryCollector()
        got = solve_sparse_lp(first, collector=got_c, max_iterations=budget)
        ref = _solve_sparse(first, None, ref_c, budget)
        _assert_same_solution(got, ref)
        token = _solve_sparse(first, None, None, None).state
        for lp in (second, rhs_only):
            got = solve_sparse_lp(lp, state=token, collector=got_c,
                                  max_iterations=budget)
            ref = _solve_sparse(lp, token, ref_c, budget)
            _assert_same_solution(got, ref)
        assert _sparse_counters(got_c) == _sparse_counters(ref_c)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_compiled_slot_sequence_matches_alone(self, data):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology, num_slots=4))
        # One slot repeats the previous slot's prices: its objective is
        # unchanged and the program restarts RHS-only.
        t = data.draw(st.integers(1, 3))
        slots[t] = (slots[t][0], slots[t - 1][1])
        budget = data.draw(_BUDGETS)
        cache = FixedLevelLPCache(topology, sparse=True)
        got_c, ref_c = InMemoryCollector(), InMemoryCollector()
        program = got_state = ref_state = None
        for t, (arrivals, prices) in enumerate(slots):
            lp, _ = cache.build(SlotInputs(topology=topology,
                                           arrivals=arrivals, prices=prices))
            if program is None:
                program = SparseProgram.compile(lp)
            # The budget binds from slot 1 on, where the program restarts
            # warm.
            limit = budget if t else None
            got = program.solve(lp, state=got_state, collector=got_c,
                                max_iterations=limit)
            ref = _solve_sparse(lp, ref_state, ref_c, limit)
            _assert_same_solution(got, ref)
            got_state = got.state if got.ok else None
            ref_state = ref.state if ref.ok else None
        assert _sparse_counters(got_c) == _sparse_counters(ref_c)

    @given(data=st.data(),
           kind=st.sampled_from(["method", "signature", "shape", "range",
                                 "unmarked", "singular"]))
    @settings(max_examples=60, deadline=None)
    def test_stale_token_starts_cold(self, data, kind):
        topology = data.draw(random_topologies())
        slots = data.draw(slot_sequences(topology, num_slots=2))
        cache = FixedLevelLPCache(topology, sparse=True)
        first, _ = cache.build(SlotInputs(topology, *slots[0]))
        token = _solve_sparse(first, None, None, None).state
        assume(token is not None)
        lp, _ = cache.build(SlotInputs(topology, *slots[1]))
        stale = _corrupt(token, kind, lp)
        program = SparseProgram.compile(lp)
        clean = sparse_mod._restart(program, lp.c, lp.b_ub, token, None)
        assume(clean is not None and clean.warm)
        restart = sparse_mod._restart(program, lp.c, lp.b_ub, stale, None)
        assert not restart.warm
        got_c, ref_c = InMemoryCollector(), InMemoryCollector()
        got = program.solve(lp, state=stale, collector=got_c)
        ref = _solve_sparse(lp, stale, ref_c, None)
        _assert_same_solution(got, ref)
        assert _sparse_counters(got_c) == _sparse_counters(ref_c)

    def test_at_upper_on_an_infinite_bound_starts_cold(self):
        # x2 sits only in a mixed-sign row and costs >= 0: boxing leaves
        # its upper bound infinite, so a token holding it at upper is
        # stale.
        lp = LinearProgram(c=np.array([-1.0, -2.0, 0.5]),
                           a_ub=sparse.csr_matrix(np.array([
                               [1.0, 1.0, 0.0],
                               [1.0, -1.0, -1.0],
                           ])),
                           b_ub=np.array([3.0, 1.0]))
        program = SparseProgram.compile(lp)
        token = program.solve(lp).state
        clean = sparse_mod._restart(program, lp.c, lp.b_ub, token, None)
        assert clean.warm and np.isinf(clean.upper[2])
        slack = np.asarray(token.slack).copy()
        assert slack[2] == _AT_LOWER
        slack[2] = _AT_UPPER
        stale = replace(token, slack=slack)
        assert not sparse_mod._restart(
            program, lp.c, lp.b_ub, stale, None
        ).warm
        got_c, ref_c = InMemoryCollector(), InMemoryCollector()
        got = program.solve(lp, state=stale, collector=got_c)
        ref = _solve_sparse(lp, stale, ref_c, None)
        _assert_same_solution(got, ref)
        assert _sparse_counters(got_c) == _sparse_counters(ref_c)
        assert got_c.counters["sparse.cold_solves"] == 1
        assert "sparse.warm_hits" not in got_c.counters


# ---------------------------------------------------------------------------
# The memo of fresh basis inverses, the direct kernels and the boxing map
# ---------------------------------------------------------------------------


@st.composite
def programs_with_bases(draw, count=(1, 12)):
    """A compiled boxable program and bases over its ``n + m`` columns
    (repeats and singular ones included)."""
    lp, _ = draw(boxable_lp_pairs())
    n, m = lp.num_variables, lp.a_ub.shape[0]
    basis = st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m,
                     unique=True).map(lambda b: np.array(b, dtype=int))
    bases = draw(st.lists(basis, min_size=count[0], max_size=count[1]))
    if bases:
        # Revisit a drawn basis so the memo serves a hit.
        bases.append(bases[draw(st.integers(0, len(bases) - 1))].copy())
    return lp, SparseProgram.compile(lp), bases


def _reference_inverse(program, basis):
    return _basis_inverse(program.csc, basis, program.n, program.m)


def _singular_basis(lp):
    """Slacks on every row but ``r0`` plus a column that misses row
    ``r0`` (or that slack twice, when every column meets every row)."""
    n, m = lp.num_variables, lp.a_ub.shape[0]
    basis = n + np.arange(m)
    misses = np.argwhere(lp.a_ub.toarray().T == 0.0)
    if misses.size:
        j, r0 = misses[0]
        basis[r0] = j
    else:
        basis[1] = basis[0]
    return basis


def _implied_upper_reference(a_ub, lower, upper, c, b_ub):
    """Implied-upper-bound boxing entry by entry, in CSR order.

    The fold the reduce of ``ImpliedBounds.evaluate`` must reproduce:
    per column, ``np.minimum`` over each finite implied bound in CSR
    entry order, starting from +inf.
    """
    if not np.all(np.isfinite(lower)):
        return None
    a = sparse.csr_matrix(a_ub)
    cand = np.full(lower.size, np.inf)
    for r in range(a.shape[0]):
        start, end = a.indptr[r], a.indptr[r + 1]
        cols, coef = a.indices[start:end], a.data[start:end]
        if coef.size and coef.min() < 0.0:
            continue
        act = 0.0
        for j, v in zip(cols, coef):
            act += v * lower[j]
        for j, v in zip(cols, coef):
            if not v > _TOL:
                continue
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                implied = (b_ub[r] - act) / v + lower[j]
            if np.isfinite(implied):
                cand[j] = np.minimum(cand[j], implied)
    out = np.minimum(upper, np.maximum(cand, lower))
    if np.any((c < 0) & ~np.isfinite(out)):
        return None
    return out


class TestInverseMemo:
    @given(case=programs_with_bases())
    @settings(max_examples=80, deadline=None)
    def test_memoized_inverse_is_the_reference(self, case):
        _, program, bases = case
        for basis in bases:
            got = program.inverse(basis)
            assert _same_bytes(got, _reference_inverse(program, basis))
        for key, stored in program.inverses.items():
            basis = np.frombuffer(key, dtype=int)
            assert _same_bytes(stored, _reference_inverse(program, basis))

    @given(case=programs_with_bases())
    @settings(max_examples=60, deadline=None)
    def test_mutating_a_returned_inverse_changes_no_lookup(self, case):
        _, program, bases = case
        for basis in bases:
            first = program.inverse(basis)
            if first is None:
                continue
            # The pivots update the inverse they are handed in place.
            first[0, 0] += 1.0
            first[:, -1] = np.nan
            again = program.inverse(basis)
            assert again is not first and again.flags.writeable
            assert _same_bytes(again, _reference_inverse(program, basis))

    @given(case=programs_with_bases(count=(0, 4)))
    @settings(max_examples=60, deadline=None)
    def test_singular_basis_is_none_and_not_stored(self, case):
        lp, program, bases = case
        for basis in bases:
            program.inverse(basis)
        before = dict(program.inverses)
        basis = _singular_basis(lp)
        assert _reference_inverse(program, basis) is None
        assert program.inverse(basis) is None
        assert program.inverses == before

    @given(case=programs_with_bases(count=(4, 16)),
           capacity=st.integers(0, 3), slack=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_memo_keeps_its_byte_budget_dropping_the_oldest(
        self, case, capacity, slack
    ):
        lp, _, bases = case
        m = lp.a_ub.shape[0]
        budget = capacity * m * m * 8 + slack
        expected = {}
        with mock.patch.object(sparse_mod, "_INVERSE_MEMO_BYTES", budget):
            program = SparseProgram.compile(lp)
            for basis in bases:
                got = program.inverse(basis)
                assert _same_bytes(got, _reference_inverse(program, basis))
                key = basis.tobytes()
                if got is not None and key not in expected and capacity:
                    if len(expected) == capacity:
                        del expected[next(iter(expected))]
                    expected[key] = True
                held = sum(v.nbytes for v in program.inverses.values())
                assert held <= budget
                assert list(program.inverses) == list(expected)

    @given(pair=boxable_lp_pairs(), budget=_BUDGETS,
           walk=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)),
                         min_size=3, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_revisited_bases_match_the_one_program_simplex(
        self, pair, budget, walk
    ):
        # Each step solves one of three LPs on the compiled matrix from
        # a token of an earlier step (or cold), so bases recur: the
        # second visit's inverse comes from the memo.
        first, second = pair
        lps = (first, second, LinearProgram(c=first.c, a_ub=first.a_ub,
                                            b_ub=second.b_ub))
        program = SparseProgram.compile(first)
        got_c, ref_c = InMemoryCollector(), InMemoryCollector()
        tokens = [None]
        for choice, source in walk:
            lp = lps[choice]
            token = tokens[source % len(tokens)]
            got = program.solve(lp, state=token, collector=got_c,
                                max_iterations=budget)
            ref = _solve_sparse(lp, token, ref_c, budget)
            _assert_same_solution(got, ref)
            if ref.state is not None:
                tokens.append(ref.state)
        assert _sparse_counters(got_c) == _sparse_counters(ref_c)
        # Whatever the pivots did, the memo holds fresh inverses only.
        for key, stored in program.inverses.items():
            basis = np.frombuffer(key, dtype=int)
            assert _same_bytes(stored, _reference_inverse(program, basis))


@st.composite
def sparse_operands(draw):
    """A matrix with empty rows and columns likely, and a vector."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.one_of(st.just(0.0), st.floats(-1e3, 1e3,
                                               allow_nan=False))
    dense = draw(arrays(float, (rows, cols), elements=values))
    x = draw(arrays(float, cols, elements=st.floats(-1e3, 1e3,
                                                    allow_nan=False)))
    y = draw(arrays(float, rows, elements=st.floats(-1e3, 1e3,
                                                    allow_nan=False)))
    return dense, x, y


class TestDirectKernels:
    @given(operands=sparse_operands())
    @example(operands=(np.zeros((3, 2)), np.ones(2), np.ones(3)))
    @settings(max_examples=100, deadline=None)
    def test_matvec_is_the_operator_byte_for_byte(self, operands):
        dense, x, y = operands
        csr = sparse.csr_matrix(dense)
        for a, v in ((csr, x), (csr.tocsc(), x), (csr.T, y),
                     (csr.T.tocsr(), y)):
            assert _same_bytes(sparse_mod._matvec(a, v), a @ v)

    @given(pair=boxable_lp_pairs(),
           lower=arrays(float, 7, elements=st.floats(-2.0, 2.0)),
           b_extra=arrays(float, 5, elements=st.sampled_from(
               [np.inf, -np.inf, np.nan, 0.0, 1e308])))
    @settings(max_examples=80, deadline=None)
    def test_implied_bounds_fold_like_the_entry_loop(
        self, pair, lower, b_extra
    ):
        first, second = pair
        n, m = first.num_variables, first.a_ub.shape[0]
        lo = lower[:n]
        hi = np.where(lo > 1.0, lo + 1.0, np.inf)
        bounds = ImpliedBounds.compile(first.a_ub, lo, hi)
        b_odd = np.where(np.arange(m) % 2 == 0, b_extra[:m], second.b_ub)
        for c, b_ub in ((first.c, first.b_ub), (second.c, second.b_ub),
                        (first.c, b_odd)):
            got = bounds.evaluate(c, b_ub)
            ref = _implied_upper_reference(first.a_ub, lo, hi, c, b_ub)
            assert _same_bytes(got, ref)
