"""Slot-problem builders: the paper's constrained optimization (Eq. 5-8).

The builders take one variable layout, the **aggregated** one: because
servers within a data center are homogeneous and all constraints are
linear, any feasible solution can be symmetrized across a data center's
servers without changing the objective, so it suffices to decide
per-data-center totals ``lambda_{k,s,l}`` and total share mass
``Phi_{k,l} in [0, M_l]`` with the delay constraint
``Phi*C*mu - Lambda >= M_l / D_k``.

The paper's **per-server** layout (``lambda_{k,s,i,l}`` and
``phi_{k,i,l}`` for every physical server, Table I) is the aggregated
one on :meth:`CloudTopology.per_server
<repro.cloud.topology.CloudTopology.per_server>`, where every server is
its own data center (``M = 1``).  Tests verify both layouts reach the
same optimum for fixed-level problems.  For *multi-level* TUFs the
equivalence is level-wise only: the aggregated MILP targets one level
per (class, data center) while the per-server layout may mix levels
across a data center's servers, so the per-server optimum can be
marginally higher.

For one-level TUFs (or any *fixed* level assignment) the problem is the
LP of paper §IV-1.  For multi-level TUFs the level choice is encoded
with binary selectors ``z_{k,l,q}`` (paper Eqs. 14/25) and the bilinear
revenue term ``U(R) * Lambda`` is linearized exactly with McCormick
variables ``y_{k,l,q} = z_{k,l,q} * Lambda_{k,l}`` — valid because
``sum_q z = 1`` and ``Lambda`` is bounded.  The result is a MILP
equivalent to the paper's constrained program (solved there by CPLEX).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.cloud.topology import CloudTopology
from repro.core.plan import DispatchPlan
from repro.solvers.base import LinearProgram, MixedIntegerProgram
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "SlotInputs",
    "feasibility_margin",
    "fixed_level_lp",
    "multilevel_milp",
    "FixedLevelLPCache",
    "LevelFill",
    "MultilevelMILPCache",
    "DEADLINE_SAFETY",
    "lift_to_milp",
]

Decoder = Callable[[np.ndarray], DispatchPlan]

#: Relative shrink applied to every deadline inside the solvers.  The LP
#: optimum often sits exactly on a delay constraint; without a margin,
#: re-computing ``R = 1/(phi*C*mu - lambda)`` from the solution in floating
#: point can land infinitesimally *past* the step-downward TUF's cliff and
#: forfeit the whole level's revenue.  1e-6 is far above solver feasibility
#: tolerances and far below any experiment's parameter resolution.
DEADLINE_SAFETY = 1e-6


@dataclass(frozen=True)
class SlotInputs:
    """Everything that varies slot to slot, plus the static topology.

    Attributes
    ----------
    topology:
        The static system description.
    arrivals:
        ``(K, S)`` average arrival rates ``lambda_{k,s}`` for the slot.
    prices:
        ``(L,)`` electricity prices in $/kWh for the slot.
    slot_duration:
        Slot length ``T`` in the rate time unit.
    apply_pue:
        Multiply processing energy by each data center's PUE.
    deadline_scale:
        Plan against deadlines scaled by this factor (in (0, 1]).  1.0
        reproduces the paper; smaller values buy robustness headroom so
        *stochastic* realized delays stay clear of the TUF cliffs (the
        mean-delay constraint alone leaves saturated VMs sitting exactly
        on the boundary).
    delay_factor:
        Multiplier on the required headroom ``1/D`` (>= 1).  1.0 is the
        paper's mean-delay SLA (``E[R] <= D``).  Because the M/M/1
        sojourn is exponential with rate ``mu_eff - lambda``, the tail
        SLA ``P(sojourn > D) <= eps`` is *exactly* the same linear
        constraint with ``delay_factor = ln(1/eps)`` — percentile
        guarantees come for free in this model.
    """

    topology: CloudTopology
    arrivals: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)
    slot_duration: float = 1.0
    apply_pue: bool = False
    deadline_scale: float = 1.0
    delay_factor: float = 1.0

    def __post_init__(self) -> None:
        topo = self.topology
        arrivals = check_nonnegative(self.arrivals, "arrivals")
        prices = check_nonnegative(self.prices, "prices")
        if arrivals.shape != (topo.num_classes, topo.num_frontends):
            raise ValueError(
                f"arrivals must have shape "
                f"{(topo.num_classes, topo.num_frontends)}, got {arrivals.shape}"
            )
        if prices.shape != (topo.num_datacenters,):
            raise ValueError(
                f"prices must have shape {(topo.num_datacenters,)}, "
                f"got {prices.shape}"
            )
        check_positive(self.slot_duration, "slot_duration")
        if not 0.0 < self.deadline_scale <= 1.0:
            raise ValueError(
                f"deadline_scale must be in (0, 1], got {self.deadline_scale}"
            )
        if self.delay_factor < 1.0:
            raise ValueError(
                f"delay_factor must be >= 1, got {self.delay_factor}"
            )
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "prices", prices)

    # ------------------------------------------------------------- helpers

    def cost_per_request(self) -> np.ndarray:
        """``(K, S, L)`` dollars per dispatched request (energy + transfer).

        ``P_{k,l} * p_l + TranCost_k * d_{s,l}`` (paper Eqs. 2-3).
        dtype float64.
        """
        topo = self.topology
        energy = topo.energy_per_request  # (K, L)
        if self.apply_pue:
            energy = energy * np.array([dc.pue for dc in topo.datacenters])[None, :]
        processing = energy * self.prices[None, :]  # (K, L)
        transfer = topo.transfer_model().per_request_cost()  # (K, S, L)
        return processing[:, None, :] + transfer

    def lambda_max(self) -> np.ndarray:
        """``(K, L)`` valid upper bounds on per-DC class loads.

        Used by the MILP's McCormick linearization; the bound is the
        smaller of total offered load and the data center's raw capacity.
        dtype float64.
        """
        topo = self.topology
        offered = self.arrivals.sum(axis=1)  # (K,)
        dc_cap = topo.service_rates * (
            topo.server_capacities * topo.servers_per_datacenter
        )[None, :]
        return np.minimum(offered[:, None], dc_cap)


def feasibility_margin(
    topology: CloudTopology, deadline_scale: float = 1.0
) -> np.ndarray:
    """Per-data-center slack of the unconditional delay constraints.

    The paper enforces ``1/(phi*C*mu) <= D`` even on unloaded VMs
    (constraint 6 holds unconditionally), which requires every server to
    reserve share ``1/(D_k * C_l * mu_{k,l})`` per class.  Feasibility of
    the slot problem therefore needs

        sum_k 1 / (D_k * C_l * mu_{k,l}) <= 1     for every l.

    Returns the ``(L,)`` float64 array of ``1 - sum_k ...`` margins; a
    negative entry means the topology cannot host all classes on one
    server.
    """
    deadlines = deadline_scale * np.array(
        [rc.deadline for rc in topology.request_classes]
    )
    mu = topology.service_rates  # (K, L)
    cap = topology.server_capacities  # (L,)
    required = 1.0 / (deadlines[:, None] * mu * cap[None, :])  # (K, L)
    return 1.0 - required.sum(axis=0)


def _require_feasible(
    topology: CloudTopology, deadline_scale: float = 1.0
) -> None:
    margin = feasibility_margin(topology, deadline_scale)
    # A data center with zero available servers hosts nothing: its delay
    # rows degenerate to ``lambda <= 0`` and its share budget to 0, so
    # the reserve requirement is vacuous and must not block the slot.
    margin = np.where(topology.servers_per_datacenter > 0, margin, 1.0)
    if np.any(margin < 0):
        bad = int(np.argmin(margin))
        raise ValueError(
            f"infeasible topology: data center "
            f"{topology.datacenters[bad].name!r} cannot reserve the minimum "
            f"CPU shares for all request classes "
            f"(sum_k 1/(D_k C mu_k) = {1 - margin[bad]:.4f} > 1); "
            f"loosen deadlines or raise service rates"
        )


# ---------------------------------------------------------------------------
# Fixed-level LP (one-level TUFs, or any chosen level assignment)
# ---------------------------------------------------------------------------

def _aggregated_csr(
    K: int, S: int, L: int, mu: np.ndarray, cap: np.ndarray
) -> "_sp.csr_matrix":
    """CSR constraint matrix of the aggregated layout, built vectorized.

    Row nonzero counts are fixed (delay: S+1, share: K, arrival: L), so
    the whole matrix assembles from index arithmetic with no
    Python-level loop.  ``tests/test_property_sparse.py`` pins it bit
    for bit to a loop-built reference.
    """
    n_lam = K * S * L
    n_vars = n_lam + K * L
    k = np.repeat(np.arange(K), L)  # delay-row class index, row-major
    l = np.tile(np.arange(L), K)
    lam_cols = (k[:, None] * S + np.arange(S)[None, :]) * L + l[:, None]
    phi_cols = (n_lam + k * L + l)[:, None]
    delay_cols = np.concatenate([lam_cols, phi_cols], axis=1)
    delay_data = np.concatenate(
        [np.ones((K * L, S)), -(cap[l] * mu[k, l])[:, None]], axis=1
    )
    share_cols = n_lam + (np.arange(K)[None, :] * L + np.arange(L)[:, None])
    arr_cols = np.arange(K * S)[:, None] * L + np.arange(L)[None, :]
    indices = np.concatenate(
        [delay_cols.ravel(), share_cols.ravel(), arr_cols.ravel()]
    )
    data = np.concatenate(
        [delay_data.ravel(), np.ones(L * K), np.ones(K * S * L)]
    )
    counts = np.concatenate(
        [np.full(K * L, S + 1), np.full(L, K), np.full(K * S, L)]
    )
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return _sp.csr_matrix(
        (data, indices, indptr), shape=(K * L + L + K * S, n_vars)
    )


def _level_tables(
    topology: CloudTopology,
    levels: np.ndarray,
    deadline_scale: float = 1.0,
    delay_factor: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(k,l) utility and *effective* sub-deadline for an assignment.

    The effective deadline folds in the safety shrink, the robustness
    margin, and the percentile factor: a headroom requirement of
    ``delay_factor / D`` is the same constraint as a mean-delay deadline
    of ``D / delay_factor``.
    """
    classes = topology.request_classes
    sizes = np.array([rc.tuf.num_levels for rc in classes])[:, None]
    bad = np.argwhere((levels < 0) | (levels >= sizes))
    if bad.size:
        k, l = bad[0]
        raise ValueError(
            f"level {int(levels[k, l])} out of range for class "
            f"{classes[k].name!r} ({int(sizes[k, 0])} levels)"
        )
    arrays = topology.arrays
    rows = np.arange(len(classes))[:, None]
    scale = deadline_scale * (1.0 - DEADLINE_SAFETY) / delay_factor
    return (arrays.tuf_values[rows, levels],
            arrays.tuf_deadlines[rows, levels] * scale)


class FixedLevelLPCache:
    """Slot-invariant skeleton of the fixed-level LP, refilled per slot.

    The slot LP's constraint *matrix*, variable bounds, and decoder
    depend only on the topology and variable layout; everything that
    changes between the controller's hourly slots — electricity prices,
    arrival rates, targeted TUF levels — enters purely through the
    objective vector ``c`` and the right-hand side ``b_ub``.  This cache
    builds the matrix structure once and, on every :meth:`build`, only
    refills those two vectors: ``O(vars)`` ndarray writes instead of the
    ``O(rows x vars)`` Python-level matrix construction the cold path
    pays, which dominates per-slot cost in day-long runs (cf. the
    paper's Fig. 11 computation-time study).

    Returned problems **share** the cache's constraint matrix; treat
    ``lp.a_ub`` as read-only.

    Row layout (relied upon by :mod:`repro.core.sensitivity`): delay
    rows (class-major), then share-budget rows, then arrival-cap rows.

    The constraint matrix is always assembled as a ``scipy.sparse`` CSR
    matrix.  With ``sparse=True`` it stays CSR — the representation the
    sparse solve path of :mod:`repro.solvers.sparse` rides; by default
    it is densified once for the dense backends.
    """

    def __init__(self, topology: CloudTopology, sparse: bool = False) -> None:
        self.topology = topology
        self.sparse = bool(sparse)
        self._build_structure()

    # --------------------------------------------------------- structure

    def _build_structure(self) -> None:
        topo = self.topology
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        M = topo.servers_per_datacenter.astype(float)  # (L,)
        mu = topo.service_rates  # (K, L)
        cap = topo.server_capacities  # (L,)
        n_lam = K * S * L
        n_vars = n_lam + K * L
        self._n_lam = n_lam
        self._n_vars = n_vars
        self._M = M

        # Rows: delay (sum_s lam - Phi*C*mu <= -M_l / D_{k,l-level}),
        # shares (sum_k Phi_{k,l} <= M_l), arrivals (sum_l lam <= lambda).
        a_ub = _aggregated_csr(K, S, L, mu, cap)
        self._a_ub = a_ub if self.sparse else a_ub.toarray()

        upper = np.full(n_vars, np.inf)
        upper[n_lam:] = np.tile(M, K)
        # Nothing is dispatched to a data center without servers.  Its
        # delay and share rows force that already; as a bound it is a
        # fixed variable, which no solver's row tolerance can move.
        upper[:n_lam].reshape(K, S, L)[:, :, M == 0] = 0.0
        self._upper = upper

        b = np.empty(self._a_ub.shape[0])
        b[K * L:K * L + L] = M
        self._b_template = b

        def decoder(x: np.ndarray) -> DispatchPlan:
            lam = x[:n_lam].reshape(K, S, L)
            phi_total = x[n_lam:].reshape(K, L)
            return _expand_symmetric(topo, lam, phi_total)

        self._decoder: Decoder = decoder

    # -------------------------------------------------------------- build

    def build(
        self, inputs: SlotInputs, levels: Optional[np.ndarray] = None
    ) -> Tuple[LinearProgram, Decoder]:
        """Fill the skeleton with one slot's data; see :func:`fixed_level_lp`."""
        topo = inputs.topology
        if topo is not self.topology:
            raise ValueError(
                "SlotInputs.topology differs from the cache's topology; "
                "build a new cache for a new topology"
            )
        _require_feasible(topo, inputs.deadline_scale / inputs.delay_factor)
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        if levels is None:
            levels = np.zeros((K, L), dtype=int)
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (K, L):
            raise ValueError(
                f"levels must have shape {(K, L)}, got {levels.shape}"
            )
        utilities, deadlines = _level_tables(
            topo, levels, inputs.deadline_scale, inputs.delay_factor
        )
        cost = inputs.cost_per_request()  # (K, S, L)
        # Net profit per dispatched request if the targeted level is met.
        net = utilities[:, None, :] - cost  # (K, S, L)
        T = inputs.slot_duration

        c = np.zeros(self._n_vars)
        c[:self._n_lam] = (-T * net).ravel()  # minimize -profit
        b = self._b_template.copy()
        b[:K * L] = (-self._M / deadlines).ravel()
        b[K * L + L:] = inputs.arrivals.ravel()

        lp = LinearProgram(c=c, a_ub=self._a_ub, b_ub=b, upper=self._upper)
        return lp, self._decoder

    def level_fill(self, inputs: SlotInputs) -> "LevelFill":
        """One slot's LP with its level tables, for a level search.

        The LP is :meth:`build`'s; the slot's ``(K, S, L)`` costs and
        its per-level utility and effective sub-deadline tables are
        computed here, once; :meth:`LevelFill.fill` then sets the LP to
        any partial level vector.
        """
        lp, decoder = self.build(inputs)
        return LevelFill(inputs, lp, decoder)


class LevelFill:
    """A slot's fixed-level LP, refilled in place per TUF level vector.

    Built by :meth:`FixedLevelLPCache.level_fill`.  Position
    ``p = k * L + l`` holds the level of class ``k`` at data center
    ``l`` (the row-major order of a ``(K, L)`` level array).  A level
    vector changes only the utility in ``c[:K*S*L]`` and the delay
    right-hand side ``b_ub[:K*L]``, so :meth:`fill` writes nothing
    else; a full vector's ``c`` and ``b_ub`` are bit-identical to
    ``FixedLevelLPCache.build(inputs, levels=...)``.
    """

    def __init__(
        self, inputs: SlotInputs, lp: LinearProgram, decoder: Decoder
    ) -> None:
        topo = inputs.topology
        K, L = topo.num_classes, topo.num_datacenters
        self.lp = lp
        self.decoder = decoder
        #: Levels per position (the search's ``num_choices``).
        self.sizes = [
            rc.tuf.num_levels for rc in topo.request_classes for _ in range(L)
        ]
        self._shape = (K, L)
        self._n_lam = K * topo.num_frontends * L
        self._T = inputs.slot_duration
        self._cost = inputs.cost_per_request()  # (K, S, L)
        M = topo.servers_per_datacenter.astype(float)  # (L,)
        self._neg_M = -M
        self._mu_cap = topo.service_rates * topo.server_capacities[None, :]
        self._hosted = M > 0
        self._positions = np.arange(K * L)
        # Per-(position, level) utility and effective sub-deadline, as
        # in _level_tables; a free position takes its class's highest
        # utility and loosest sub-deadline (a valid bound: a higher
        # utility raises every feasible point's profit, a looser
        # deadline only enlarges the feasible set).
        scale = (inputs.deadline_scale * (1.0 - DEADLINE_SAFETY)
                 / inputs.delay_factor)
        width = max(self.sizes)
        self._utility = np.zeros((K * L, width))
        self._deadline = np.ones((K * L, width))
        self._free_utility = np.empty(K * L)
        self._free_deadline = np.empty(K * L)
        for k, rc in enumerate(topo.request_classes):
            values = rc.tuf.values
            deadlines = rc.tuf.deadlines * scale
            rows = slice(k * L, (k + 1) * L)
            self._utility[rows, :values.size] = values
            self._deadline[rows, :values.size] = deadlines
            self._free_utility[rows] = values.max()
            self._free_deadline[rows] = deadlines.max()

    def fill(self, prefix: Sequence[int]) -> bool:
        """Set the LP to the levels ``prefix`` of the first positions.

        Later positions are free (highest utility, loosest
        sub-deadline).  Returns ``False``, leaving the LP untouched,
        when the node's share reserve cannot fit:
        ``sum_k 1 / (D * C * mu) > 1`` at a data center with servers
        (the :func:`feasibility_margin` arithmetic at the node's
        sub-deadlines), so no point of the node is feasible.  Every
        node it accepts is feasible with nothing dispatched.
        """
        depth = len(prefix)
        utility = self._free_utility.copy()
        deadline = self._free_deadline.copy()
        if depth:
            positions = self._positions[:depth]
            levels = np.asarray(prefix)
            utility[:depth] = self._utility[positions, levels]
            deadline[:depth] = self._deadline[positions, levels]
        K, L = shape = self._shape
        utility = utility.reshape(shape)
        deadline = deadline.reshape(shape)
        margin = 1.0 - np.add.reduce(1.0 / (deadline * self._mu_cap), axis=0)
        if np.count_nonzero(self._hosted & (margin < 0)):
            return False
        # Written in place: c's dispatch block and b_ub's delay rows.
        net = self.lp.c[:self._n_lam].reshape(self._cost.shape)
        np.subtract(utility[:, None, :], self._cost, out=net)
        np.multiply(-self._T, net, out=net)
        delay_rhs = self.lp.b_ub[:K * L].reshape(shape)
        np.divide(self._neg_M, deadline, out=delay_rhs)
        return True


def fixed_level_lp(
    inputs: SlotInputs,
    levels: Optional[np.ndarray] = None,
    sparse: bool = False,
) -> Tuple[LinearProgram, Decoder]:
    """Build the slot LP for a fixed TUF-level assignment.

    One-shot wrapper over :class:`FixedLevelLPCache`; callers planning
    many slots on one topology should hold a cache instead (the
    optimizer does when warm-starting).

    Parameters
    ----------
    inputs:
        Slot data.
    levels:
        ``(K, L)`` integer level targeted per class per data center;
        ``None`` targets level 0 everywhere (the only choice for
        one-level TUFs — paper §IV-1's plain LP).
    sparse:
        Build the constraint matrix as a ``scipy.sparse`` CSR matrix
        (same coefficients, same layout) instead of a dense ndarray.

    Returns
    -------
    (lp, decoder):
        ``lp`` minimizes *negative* net profit; ``decoder`` maps an LP
        solution vector to a :class:`DispatchPlan`.
    """
    return FixedLevelLPCache(inputs.topology, sparse=sparse).build(
        inputs, levels=levels
    )


# ---------------------------------------------------------------------------
# Multi-level MILP
# ---------------------------------------------------------------------------

class MultilevelMILPCache:
    """Slot-invariant skeleton of the multi-level slot MILP.

    Unlike the fixed-level LP, a few *matrix* entries of the MILP do
    vary with slot data: the McCormick big-M coefficients and the ``y``
    upper bounds both use ``Lambda_max`` (a function of the arrivals).
    The cache records their (row, column) positions during the one-time
    structural build and patches exactly those entries on each
    :meth:`build` — everything else (sparsity pattern, equality system,
    level selectors, integrality mask, decoder) is reused.  The
    constraint matrix handed out is a fresh copy per build (one
    ``memcpy``), so returned problems never alias each other.

    The structure depends on ``deadline_scale``/``delay_factor`` (they
    scale the delay rows' ``z`` coefficients); the cache transparently
    rebuilds if those change between calls.

    ``tight_bounds`` (default on) replaces the raw McCormick cap
    ``Lambda_max = min(offered, M*C*mu)`` with the per-*level*
    deadline-aware bound ``min(offered, M*(C*mu - 1/D_q))``: whenever
    ``z_q = 1`` the delay row already forces
    ``Lambda <= Phi*C*mu - M/D_q <= M*(C*mu - 1/D_q)``, so the tighter
    cap cuts no integer-feasible point — it only strengthens every
    branch-and-bound node's LP relaxation (the §VII audit's MD010/MD012
    looseness findings are about exactly this slack).  Pass
    ``tight_bounds=False`` to reproduce the historical envelope.
    """

    def __init__(
        self, topology: CloudTopology, tight_bounds: bool = True
    ) -> None:
        self.topology = topology
        self.tight_bounds = bool(tight_bounds)
        self._key: Optional[Tuple[float, float]] = None

    # --------------------------------------------------------- structure

    def _build_structure(self, key: Tuple[float, float]) -> None:
        deadline_scale, delay_factor = key
        topo = self.topology
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        M = topo.servers_per_datacenter.astype(float)
        mu = topo.service_rates
        cap = topo.server_capacities

        level_counts = [rc.tuf.num_levels for rc in topo.request_classes]
        n_lam = K * S * L
        n_phi = K * L
        # z and y blocks, laid out class-major then dc-major then level.
        zy_offsets = np.concatenate(
            [[0], np.cumsum([q * L for q in level_counts])]
        )
        n_z = int(zy_offsets[-1])
        n_vars = n_lam + n_phi + 2 * n_z
        self._n_lam = n_lam
        self._n_vars = n_vars

        def lam_idx(k: int, s: int, l: int) -> int:
            return (k * S + s) * L + l

        def phi_idx(k: int, l: int) -> int:
            return n_lam + k * L + l

        def z_idx(k: int, l: int, q: int) -> int:
            return n_lam + n_phi + int(zy_offsets[k]) + l * level_counts[k] + q

        def y_idx(k: int, l: int, q: int) -> int:
            return (n_lam + n_phi + n_z + int(zy_offsets[k])
                    + l * level_counts[k] + q)

        # Slot-invariant part of the objective: revenue enters through y
        # with the static TUF values; the lam block is overwritten with
        # the slot's costs on every build.
        c_unit = np.zeros(n_vars)
        for k, rc in enumerate(topo.request_classes):
            values = rc.tuf.values
            for l in range(L):
                for q in range(level_counts[k]):
                    c_unit[y_idx(k, l, q)] = -float(values[q])
        self._c_unit = c_unit

        rows_ub: List[np.ndarray] = []
        b_ub: List[float] = []
        rows_eq: List[np.ndarray] = []
        b_eq: List[float] = []
        # Positions of the arrival-dependent McCormick coefficients.
        mc_rows: List[int] = []
        mc_cols: List[int] = []
        mc_k: List[int] = []
        mc_l: List[int] = []
        mc_caps: List[float] = []
        y_cols: List[int] = []
        y_k: List[int] = []
        y_l: List[int] = []

        for k, rc in enumerate(topo.request_classes):
            subdeadlines = rc.tuf.deadlines
            for l in range(L):
                # (1) Delay with level-dependent sub-deadline:
                # Lambda - Phi*C*mu + sum_q (M_l / D_q) z_q <= 0
                row = np.zeros(n_vars)
                for s in range(S):
                    row[lam_idx(k, s, l)] = 1.0
                row[phi_idx(k, l)] = -cap[l] * mu[k, l]
                for q in range(level_counts[k]):
                    row[z_idx(k, l, q)] = M[l] / float(
                        subdeadlines[q] * deadline_scale
                        * (1.0 - DEADLINE_SAFETY) / delay_factor
                    )
                rows_ub.append(row)
                b_ub.append(0.0)

                # (4) Level selection: sum_q z = 1
                row = np.zeros(n_vars)
                for q in range(level_counts[k]):
                    row[z_idx(k, l, q)] = 1.0
                rows_eq.append(row)
                b_eq.append(1.0)

                # (5) McCormick sum: sum_q y - Lambda = 0
                row = np.zeros(n_vars)
                for q in range(level_counts[k]):
                    row[y_idx(k, l, q)] = 1.0
                for s in range(S):
                    row[lam_idx(k, s, l)] = -1.0
                rows_eq.append(row)
                b_eq.append(0.0)

                # (6) McCormick caps: y_q - Lambda_max z_q <= 0; the
                # -Lambda_max entries are patched per slot.
                for q in range(level_counts[k]):
                    row = np.zeros(n_vars)
                    row[y_idx(k, l, q)] = 1.0
                    mc_rows.append(len(rows_ub))
                    mc_cols.append(z_idx(k, l, q))
                    mc_k.append(k)
                    mc_l.append(l)
                    # Static half of the per-level tight cap
                    # M*(C*mu - 1/D_q): the 1/D_q term reuses the delay
                    # row's exact z coefficient so both constraints
                    # agree to the last bit.
                    mc_caps.append(
                        M[l] * cap[l] * mu[k, l] - M[l] / float(
                            subdeadlines[q] * deadline_scale
                            * (1.0 - DEADLINE_SAFETY) / delay_factor
                        )
                    )
                    y_cols.append(y_idx(k, l, q))
                    y_k.append(k)
                    y_l.append(l)
                    rows_ub.append(row)
                    b_ub.append(0.0)

        # (2) Shares: sum_k Phi_{k,l} <= M_l
        for l in range(L):
            row = np.zeros(n_vars)
            for k in range(K):
                row[phi_idx(k, l)] = 1.0
            rows_ub.append(row)
            b_ub.append(M[l])

        # (3) Arrivals: sum_l lam <= lambda_{k,s} (rhs filled per slot)
        self._arrival_row0 = len(rows_ub)
        for k in range(K):
            for s in range(S):
                row = np.zeros(n_vars)
                for l in range(L):
                    row[lam_idx(k, s, l)] = 1.0
                rows_ub.append(row)
                b_ub.append(0.0)

        self._a_ub = np.array(rows_ub)
        self._b_ub_template = np.array(b_ub)
        self._a_eq = np.array(rows_eq)
        self._b_eq = np.array(b_eq)
        self._mc_rows = np.array(mc_rows, dtype=int)
        self._mc_cols = np.array(mc_cols, dtype=int)
        self._mc_k = np.array(mc_k, dtype=int)
        self._mc_l = np.array(mc_l, dtype=int)
        self._mc_caps = np.array(mc_caps, dtype=float)
        self._y_cols = np.array(y_cols, dtype=int)
        self._y_k = np.array(y_k, dtype=int)
        self._y_l = np.array(y_l, dtype=int)

        self._lower = np.zeros(n_vars)
        upper = np.full(n_vars, np.inf)
        integer_mask = np.zeros(n_vars, dtype=bool)
        for k in range(K):
            for l in range(L):
                upper[phi_idx(k, l)] = M[l]
                for q in range(level_counts[k]):
                    upper[z_idx(k, l, q)] = 1.0
                    integer_mask[z_idx(k, l, q)] = True
        self._upper = upper
        self._integer_mask = integer_mask

        topo_ref = topo
        n_phi_ref = n_phi

        def decoder(x: np.ndarray) -> DispatchPlan:
            lam = x[:n_lam].reshape(K, S, L)
            phi_total = x[n_lam:n_lam + n_phi_ref].reshape(K, L)
            return _expand_symmetric(topo_ref, lam, phi_total)

        self._decoder: Decoder = decoder
        self._key = key

    # -------------------------------------------------------------- build

    def build(
        self, inputs: SlotInputs
    ) -> Tuple[MixedIntegerProgram, Decoder]:
        """Fill the skeleton with one slot's data; see :func:`multilevel_milp`."""
        topo = inputs.topology
        if topo is not self.topology:
            raise ValueError(
                "SlotInputs.topology differs from the cache's topology; "
                "build a new cache for a new topology"
            )
        _require_feasible(topo, inputs.deadline_scale / inputs.delay_factor)
        key = (float(inputs.deadline_scale), float(inputs.delay_factor))
        if self._key != key:
            self._build_structure(key)

        lam_max = inputs.lambda_max()  # (K, L)
        bound = lam_max[self._mc_k, self._mc_l]
        if self.tight_bounds:
            bound = np.minimum(bound, np.maximum(self._mc_caps, 0.0))
        self._a_ub[self._mc_rows, self._mc_cols] = -np.maximum(bound, 1e-12)
        self._upper[self._y_cols] = np.maximum(bound, 0.0)

        T = inputs.slot_duration
        c = self._c_unit * T  # revenue via y
        c[:self._n_lam] = (T * inputs.cost_per_request()).ravel()

        b_ub = self._b_ub_template.copy()
        b_ub[self._arrival_row0:] = inputs.arrivals.ravel()

        lp = LinearProgram(
            c=c,
            a_ub=self._a_ub.copy(), b_ub=b_ub,
            a_eq=self._a_eq, b_eq=self._b_eq,
            lower=self._lower, upper=self._upper,
        )
        mip = MixedIntegerProgram(lp=lp, integer_mask=self._integer_mask)
        return mip, self._decoder


def lift_to_milp(
    topology: CloudTopology, x: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """The multi-level MILP point of a fixed-level LP solution.

    ``x`` solves the aggregated fixed-level LP at the ``(K, L)`` level
    array ``levels``.  Its rates and share masses keep their places
    (both layouts start with them); ``z`` is one-hot at the chosen
    levels and the McCormick ``y_q`` equals the class load ``Lambda``
    at the chosen level, 0 elsewhere.  The result (float64) is a point
    of :func:`multilevel_milp`'s variable space with the same objective.
    """
    K, S, L = topology.num_classes, topology.num_frontends, topology.num_datacenters
    counts = [rc.tuf.num_levels for rc in topology.request_classes]
    n_lam, n_phi = K * S * L, K * L
    n_z = L * sum(counts)
    x = np.asarray(x, dtype=float)
    load = x[:n_lam].reshape(K, S, L).sum(axis=1)  # (K, L)
    out = np.zeros(n_lam + n_phi + 2 * n_z)
    out[:n_lam + n_phi] = x[:n_lam + n_phi]
    offset = n_lam + n_phi
    for k, q_count in enumerate(counts):
        z = offset + np.arange(L) * q_count + np.asarray(levels[k], dtype=int)
        out[z] = 1.0
        out[z + n_z] = load[k]
        offset += L * q_count
    return out


def multilevel_milp(
    inputs: SlotInputs, tight_bounds: bool = True
) -> Tuple[MixedIntegerProgram, Decoder]:
    """Build the multi-level-TUF slot MILP (aggregated formulation).

    One-shot wrapper over :class:`MultilevelMILPCache`; callers planning
    many slots on one topology should hold a cache instead.
    ``tight_bounds`` selects the deadline-aware per-level McCormick caps
    (see :class:`MultilevelMILPCache`).

    Variables per data center ``l`` and class ``k`` with ``Q_k`` levels:

    * ``lam_{k,s,l} >= 0`` — dispatched rates;
    * ``Phi_{k,l} in [0, M_l]`` — total CPU share mass;
    * ``z_{k,l,q} in {0,1}`` — targeted TUF level (``sum_q z = 1``);
    * ``y_{k,l,q} >= 0`` — McCormick product ``z * Lambda``.

    Constraints: delay with the targeted sub-deadline, share budget,
    arrival caps, level selection, and the exact linearization
    ``sum_q y = Lambda``, ``y_q <= Lambda_max * z_q``.
    """
    cache = MultilevelMILPCache(inputs.topology, tight_bounds=tight_bounds)
    return cache.build(inputs)


# ---------------------------------------------------------------------------
# Shared decoding helpers
# ---------------------------------------------------------------------------

def _expand_symmetric(
    topo: CloudTopology, lam: np.ndarray, phi_total: np.ndarray
) -> DispatchPlan:
    """Expand an aggregated solution symmetrically over each DC's servers.

    Zero-server data centers contribute no columns; their aggregated
    load is forced to 0 by the delay rows.
    """
    counts = topo.servers_per_datacenter
    hosted = counts > 0
    m = counts[hosted]
    rates = np.repeat(lam[:, :, hosted] / m, m, axis=2)
    shares = np.repeat(phi_total[:, hosted] / m, m, axis=1)
    return DispatchPlan(topology=topo, rates=rates, shares=shares)
