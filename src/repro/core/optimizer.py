"""The paper's "Optimized" approach: profit-aware dispatching/allocation.

:class:`ProfitAwareOptimizer` solves the per-slot constrained
optimization of §IV and returns a :class:`~repro.core.plan.DispatchPlan`.
Solve paths:

* ``"lp"`` — one-level TUFs (paper §IV-1): a plain LP;
* ``"milp"`` — multi-level TUFs via the MILP with binary level
  selectors (the role CPLEX plays in the paper);
* ``"bigm"`` — the paper's literal big-M nonlinear constraint series
  solved with a penalty/SLSQP method, repaired through the LP;
* ``"greedy"`` — coordinate-descent local search over level vectors
  with the LP as oracle (cheap heuristic ablation);
* ``"auto"`` (default) — ``"lp"`` when every class has a one-level TUF;
  otherwise the exact level search (the ``"levels"`` stage:
  depth-first branch-and-bound over level vectors, every node a warm
  restart of the one compiled fixed-level LP), or ``"milp"`` under
  ``formulation="per_server"``.

Formulations: ``"aggregated"`` (fast, provably equivalent given
homogeneous servers per data center) or ``"per_server"``
(paper-faithful variable layout; also used by the Fig. 11 computation-
time study since its size grows with the server count).  Both build
the same aggregated LP and MILP: ``"per_server"`` builds them on
:meth:`CloudTopology.per_server`, where every server is its own data
center, and reads the plan back onto the original topology.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.topology import CloudTopology
from repro.core.baselines import BalancedDispatcher
from repro.core.bigm import solve_slot_bigm
from repro.core.config import OptimizerConfig
from repro.core.formulation import (
    Decoder,
    FixedLevelLPCache,
    MultilevelMILPCache,
    SlotInputs,
    fixed_level_lp,
    lift_to_milp,
    multilevel_milp,
)
from repro.core.objective import evaluate_plan
from repro.core.plan import DispatchPlan
from repro.core.rightsizing import consolidate_plan
from repro.obs.collectors import Collector
from repro.obs.trace import SlotTrace
from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    Solution,
    SolverError,
    SolverState,
    SolveStatus,
)
from repro.solvers.branch_bound import solve_milp
from repro.solvers.levels import (
    branch_and_bound_levels,
    coordinate_descent_levels,
)
from repro.solvers.linprog import solve_lp
from repro.solvers.sparse import SparseProgram
from repro.solvers.tolerances import ZERO_TOL

__all__ = ["OptimizerConfig", "ProfitAwareOptimizer"]

#: What a solve stage returns: the plan, its :class:`SlotTrace` fields
#: as keyword arguments (so the ``SlotTrace`` constructor checks every
#: name) and the certifier's capture (``None`` when the stage produced
#: no certifiable problem).
_StageResult = Tuple[DispatchPlan, Dict[str, Any], Optional[Dict]]


class ProfitAwareOptimizer:
    """Profit- and cost-aware slot optimizer (the paper's "Optimized").

    The only constructor signature is::

        ProfitAwareOptimizer(topology, config=OptimizerConfig(...))

    Every knob lives on the frozen, validated
    :class:`~repro.core.config.OptimizerConfig` (see its docstring for
    the full catalogue: solve path, formulation, backends, robustness
    margins, warm-starting, telemetry collector).  ``config=None``
    means the all-defaults configuration.  Flat constructor keywords
    (``level_method=...`` and friends, removed with the PR-2
    deprecation shim) raise ``TypeError``.

    Each ``plan_slot`` call leaves one
    :class:`~repro.obs.trace.SlotTrace` on :attr:`last_stats`; when
    ``config.collector`` is enabled, the same object is recorded on the
    collector, which is also threaded through the underlying LP/MILP
    solvers.

    With ``config.fallback`` (the default), a failed solve no longer
    aborts the run: the slot is retried and then re-solved down a chain
    of increasingly conservative stages — alternate exact backend,
    greedy level search, and finally the always-feasible Balanced plan —
    so ``plan_slot`` returns a feasible plan for every slot.  The chain
    position that produced the plan is reported in the slot trace's
    ``fallback``/``fallback_stage``/``failure`` fields.
    """

    name = "optimized"

    def __init__(
        self,
        topology: CloudTopology,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        if config is None:
            config = OptimizerConfig()
        self.topology = topology
        self.config = config
        #: Telemetry sink; reassignable (e.g. by ``run_simulation``).
        self.collector: Collector = config.collector
        #: Slot index stamped onto the next emitted trace; advanced by
        #: every ``plan_slot`` call, reset by :meth:`reset_warm_state`.
        self.slot_index = 0
        #: The most recent ``plan_slot`` call's record.
        self.last_stats: Optional[SlotTrace] = None
        self._multilevel = any(
            rc.tuf.num_levels > 1 for rc in topology.request_classes
        )
        # Formulation caches (structure only; built lazily, never reset).
        self._lp_cache: Optional[FixedLevelLPCache] = None
        self._milp_cache: Optional[MultilevelMILPCache] = None
        # Sparse solve path (config.sparse) and the level search: CSR
        # aggregated cache — the symmetry collapse of identical servers
        # — plus the program compiled from it and its warm-start state.
        self._sparse_cache: Optional[FixedLevelLPCache] = None
        self._sparse_program: Optional[SparseProgram] = None
        self._sparse_state: Optional[SolverState] = None
        # Under formulation="per_server": every server its own data
        # center (built once, on first use; see _formulated).
        self._per_server_topology: Optional[CloudTopology] = None
        # Last-resort fallback dispatcher (built lazily, topology-static).
        self._baseline: Optional[BalancedDispatcher] = None
        # Cross-slot solver state (cleared by reset_warm_state).
        self._lp_state: Optional[SolverState] = None
        self._milp_state: Optional[SolverState] = None
        self._greedy_lp_states: Dict[Tuple[int, ...], SolverState] = {}
        self._greedy_last_state: Optional[SolverState] = None
        self._greedy_levels: Optional[Tuple[int, ...]] = None

    def reset_warm_state(self) -> None:
        """Forget all cross-slot solver state.

        The formulation caches are kept (they depend only on the
        topology); only the advisory warm-start seeds are dropped (and
        the trace slot counter rewound), so a run started after this
        call behaves exactly like a fresh optimizer.
        """
        self._drop_solver_state()
        self.slot_index = 0

    # --------------------------------------------------------------- public

    def plan_slot(
        self,
        arrivals: np.ndarray,
        prices: np.ndarray,
        slot_duration: float = 1.0,
    ) -> DispatchPlan:
        """Solve one slot and return the dispatch plan.

        The slot's :class:`~repro.obs.trace.SlotTrace` becomes
        :attr:`last_stats` and, when the collector is enabled, is
        recorded on it.
        """
        if not slot_duration > 0.0:
            raise ValueError(
                f"slot_duration must be positive (got {slot_duration}); "
                "it is the slot length in hours over which the arrival "
                "rates apply — e.g. 1.0 for the paper's hourly slots"
            )
        config = self.config
        method = config.level_method
        if method == "auto":
            if not self._multilevel:
                method = "lp"
            elif config.formulation == "per_server":
                method = "milp"
            else:
                method = "levels"
        if method == "lp" and self._multilevel:
            raise ValueError(
                "level_method='lp' requires one-level TUFs; use 'milp', "
                "'bigm', or 'greedy' for multi-level TUFs"
            )
        inputs = SlotInputs(
            topology=self.topology,
            arrivals=arrivals,
            prices=prices,
            slot_duration=slot_duration,
            apply_pue=config.apply_pue,
            deadline_scale=config.deadline_margin,
            delay_factor=config.delay_factor,
        )
        audit_findings = self._audit_inputs(inputs)
        start = time.perf_counter()
        if config.fallback:
            plan, fields, payload = self._solve_with_fallback(
                method, inputs, start
            )
        else:
            plan, fields, payload = self._solve_stage(
                method, inputs, budget=config.solver_iteration_budget,
            )
            fields["fallback_stage"] = method
        certificates = self._certify_solution(payload, inputs)
        post_start = time.perf_counter()
        if config.consolidate:
            plan = consolidate_plan(plan)
        if config.use_spare_capacity:
            plan = plan.with_spare_capacity_distributed()
        fields["phase_times"]["postprocess"] = time.perf_counter() - post_start
        slot = self.slot_index
        self.slot_index = slot + 1
        trace = self.last_stats = SlotTrace(
            slot=slot,
            method=method,
            formulation=config.formulation,
            total_time=time.perf_counter() - start,
            audit=audit_findings,
            certificates=certificates,
            **fields,
        )
        if self.collector.enabled:
            self.collector.record_slot(trace)
        return plan

    def _audit_inputs(self, inputs: SlotInputs) -> List[Dict]:
        """Run the formulation auditor per ``config.audit``.

        Returns the findings as plain dicts (for the slot trace);
        raises :class:`SolverError` in ``"error"`` mode when the audit
        reports an error-severity finding, *before* any solver runs.
        """
        if self.config.audit == "off":
            return []
        from repro.analysis.model import audit_slot

        report = audit_slot(inputs)
        collector = self.collector
        if collector.enabled:
            collector.increment("optimizer.audits")
            if report.findings:
                collector.increment(
                    "optimizer.audit_findings", len(report.findings)
                )
            if report.errors:
                collector.increment(
                    "optimizer.audit_errors", len(report.errors)
                )
        if self.config.audit == "error" and not report.clean:
            first = report.errors[0]
            raise SolverError(
                f"formulation audit failed with {len(report.errors)} "
                f"error(s); first: {first.code} [{first.component}] "
                f"{first.message}"
            )
        return [finding.to_dict() for finding in report.findings]

    def _certify_solution(
        self, payload: Optional[Dict], inputs: SlotInputs
    ) -> List[Dict]:
        """Run the optimality certifier per ``config.certify``.

        ``payload`` is the winning solve stage's ``{"problem",
        "solution", "plan"}`` capture (stages that
        produce no certifiable LP — big-M, the balanced baseline —
        return ``None``, which counts as a skip).  Returns the findings
        as plain dicts (for the slot trace); raises :class:`SolverError`
        in ``"error"`` mode when a certificate check reports an
        error-severity finding, *before* the plan is returned.
        """
        if self.config.certify == "off":
            return []
        collector = self.collector
        if payload is None:
            if collector.enabled:
                collector.increment("optimizer.certify_skipped")
            return []
        from repro.analysis.certify import certify_solution

        report = certify_solution(
            payload["problem"],
            payload["solution"],
            inputs=inputs,
            plan=payload.get("plan"),
        )
        if collector.enabled:
            collector.increment("optimizer.certifies")
            if report.findings:
                collector.increment(
                    "optimizer.certify_findings", len(report.findings)
                )
            if report.errors:
                collector.increment(
                    "optimizer.certify_errors", len(report.errors)
                )
        if self.config.certify == "error" and not report.clean:
            first = report.errors[0]
            raise SolverError(
                f"optimality certificate failed with {len(report.errors)} "
                f"error(s); first: {first.code} [{first.component}] "
                f"{first.message}"
            )
        return [finding.to_dict() for finding in report.findings]

    # ----------------------------------------------------- fallback pipeline

    def _solve_stage(
        self,
        method: str,
        inputs: SlotInputs,
        lp_method: Optional[str] = None,
        milp_method: Optional[str] = None,
        budget: Optional[int] = None,
    ) -> _StageResult:
        """Run one solve path; raises :class:`SolverError` on failure.

        ``lp_method``/``milp_method`` override the configured backends
        (fallback stages re-solve with an *independent* implementation);
        ``budget`` caps solver work (iterations for LPs, nodes for
        MILPs and the level search).  The big-M path has no budget knob.
        """
        if method == "lp":
            return self._solve_lp(
                inputs, lp_method=lp_method, max_iterations=budget
            )
        if method == "levels":
            return self._solve_levels(inputs, max_nodes=budget)
        if method == "milp":
            return self._solve_milp(
                inputs, milp_method=milp_method, max_nodes=budget
            )
        if method == "greedy":
            return self._solve_greedy(
                inputs, lp_method=lp_method, max_iterations=budget
            )
        # bigm
        t0 = time.perf_counter()
        plan = solve_slot_bigm(
            inputs, lp_method=lp_method or self.config.lp_method
        )
        return self._scored(plan, inputs, t0)

    def _solve_baseline(self, inputs: SlotInputs) -> _StageResult:
        """Last-resort stage: the always-feasible Balanced plan.

        The price-greedy :class:`BalancedDispatcher` admits load only up
        to each server's deadline-safe M/M/1 capacity, so its plan is
        feasible by construction for *any* slot data — it may drop
        demand, but it never violates a constraint and never fails.
        """
        if self._baseline is None:
            self._baseline = BalancedDispatcher(self.topology)
        t0 = time.perf_counter()
        plan = self._baseline.plan_slot(
            inputs.arrivals, inputs.prices, slot_duration=inputs.slot_duration
        )
        return self._scored(plan, inputs, t0)

    def _scored(
        self, plan: DispatchPlan, inputs: SlotInputs, t0: float
    ) -> _StageResult:
        """Result of a stage that reports no objective (big-M, baseline):
        the plan is scored on the slot (Eq. 1 delays) inside its solve
        time, which started at ``t0``."""
        objective = evaluate_plan(
            plan, inputs.arrivals, inputs.prices,
            slot_duration=inputs.slot_duration, apply_pue=inputs.apply_pue,
        ).net_profit
        return plan, {
            "objective": objective,
            "warm_start": self._warm_outcome(False, False),
            "phase_times": {"build": 0.0, "solve": time.perf_counter() - t0},
        }, None

    def _solved(
        self, lp: LinearProgram, solution: Solution, offered: bool,
        **phase_times: float,
    ) -> Dict[str, Any]:
        """The ``SlotTrace`` fields of an exact solve of ``lp``; residuals
        only when telemetry is on."""
        fields = {
            "num_variables": lp.num_variables,
            "num_constraints": lp.num_constraints,
            "iterations": solution.iterations,
            "nodes": solution.nodes,
            "objective": -solution.objective,
            "warm_start": self._warm_outcome(
                offered, solution.warm_start_used
            ),
            "phase_times": phase_times,
        }
        if self.collector.enabled:
            fields["residuals"] = lp.residuals(solution.x)
        return fields

    def _warm_outcome(self, offered: bool, used: bool) -> str:
        """A stage's warm-start facts as a ``SlotTrace.warm_start`` value."""
        if not self.config.warm_start:
            return "off"
        if not offered:
            return "cold"
        return "hit" if used else "miss"

    def _fallback_stages(self, method: str) -> List[Tuple[str, Dict]]:
        """Ordered rescue stages after the failed primary ``method``.

        Each entry is ``(stage_name, _solve_stage kwargs)``; the final
        ``"balanced"`` sentinel maps to :meth:`_solve_baseline`.  The
        chain re-solves with an alternate exact backend first (HiGHS,
        simplex, and the own B&B are independent implementations, so a
        numerical failure in one rarely repeats in another), then the
        greedy level search, then the baseline plan.
        """
        config = self.config
        stages: List[Tuple[str, Dict]] = []
        if self._multilevel:
            if method != "milp":
                stages.append(
                    (f"milp:{config.milp_method}", {"method": "milp"})
                )
            else:
                alt = "bb" if config.milp_method != "bb" else "highs"
                stages.append((f"milp:{alt}", {"method": "milp",
                                               "milp_method": alt}))
        else:
            alt = ("simplex"
                   if not (method == "lp" and config.lp_method == "simplex")
                   else "highs")
            stages.append((f"lp:{alt}", {"method": "lp", "lp_method": alt}))
        if method != "greedy":
            stages.append(("greedy", {"method": "greedy"}))
        stages.append(("balanced", {}))
        return stages

    def _drop_solver_state(self) -> None:
        """Clear cross-slot warm-start seeds (stale state is a common
        cause of a failed solve) without rewinding the trace counter."""
        self._lp_state = None
        self._milp_state = None
        self._sparse_state = None
        self._greedy_lp_states.clear()
        self._greedy_last_state = None
        self._greedy_levels = None

    def _solve_with_fallback(
        self, method: str, inputs: SlotInputs, start: float
    ) -> _StageResult:
        """Drive the fallback chain until some stage yields a plan.

        The winning stage's fields gain ``fallback`` (its chain
        position, 0 = requested solver), ``fallback_stage`` (its name)
        and ``failure`` (the error messages collected along the way).
        The final baseline stage cannot fail, so every call returns a
        feasible plan.
        """
        config = self.config
        failures: List[str] = []
        stages: List[Tuple[str, Dict]] = [
            (method, {"method": method,
                      "budget": config.solver_iteration_budget})
        ]
        stages.extend(self._fallback_stages(method))
        last = len(stages) - 1
        time_budget = config.fallback_time_budget
        for level, (stage_name, kwargs) in enumerate(stages):
            if (level and level < last and time_budget is not None
                    and time.perf_counter() - start > time_budget):
                failures.append(
                    f"{stage_name}: skipped (over time budget "
                    f"{time_budget:g}s)"
                )
                continue
            for attempt in range(1 + config.fallback_retries):
                if attempt or level:
                    # Retries and rescue stages start cold.
                    self._drop_solver_state()
                try:
                    if stage_name == "balanced":
                        result = self._solve_baseline(inputs)
                    else:
                        result = self._solve_stage(inputs=inputs, **kwargs)
                except SolverError as exc:
                    failures.append(f"{stage_name}: {exc}")
                    continue
                result[1].update(fallback=level, fallback_stage=stage_name,
                                 failure="; ".join(failures))
                return result
        raise SolverError(  # pragma: no cover - balanced cannot fail
            "fallback chain exhausted: " + "; ".join(failures)
        )

    # -------------------------------------------------------------- private

    def _formulated(self, inputs: SlotInputs) -> SlotInputs:
        """``inputs`` on the topology the configured formulation solves.

        Under ``formulation="per_server"`` that is
        :meth:`CloudTopology.per_server`, with each server at its data
        center's price: the aggregated LP and MILP there are the paper's
        per-server formulation.  Otherwise ``inputs`` itself, also when
        no server is up: such a fleet has no per-server layout, and its
        aggregated program dispatches nothing, as a per-server one
        would.  :meth:`_on_topology` takes a plan back.
        """
        if (self.config.formulation != "per_server"
                or not self.topology.num_servers):
            return inputs
        if self._per_server_topology is None:
            self._per_server_topology = self.topology.per_server()
        return replace(
            inputs,
            topology=self._per_server_topology,
            prices=np.repeat(
                inputs.prices, self.topology.servers_per_datacenter
            ),
        )

    def _on_topology(self, plan: DispatchPlan) -> DispatchPlan:
        """``plan`` on the optimizer's topology; a plan on
        :meth:`_formulated`'s shares its flat server axis."""
        if plan.topology is self.topology:
            return plan
        return DispatchPlan(
            topology=self.topology, rates=plan.rates, shares=plan.shares
        )

    def _build_lp(
        self, inputs: SlotInputs, levels: Optional[np.ndarray] = None
    ) -> Tuple[LinearProgram, Decoder]:
        if not self.config.warm_start:
            return fixed_level_lp(inputs, levels=levels)
        if self._lp_cache is None:
            self._lp_cache = FixedLevelLPCache(inputs.topology)
        return self._lp_cache.build(inputs, levels=levels)

    def _solve_lp(
        self,
        inputs: SlotInputs,
        lp_method: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> _StageResult:
        # A fallback stage re-solving with an alternate backend neither
        # consumes nor overwrites the primary backend's warm state.
        # The sparse path serves only the primary stage:
        # fallback stages name their backend explicitly and stay dense,
        # so they remain independent implementations.
        config = self.config
        if config.sparse and lp_method is None:
            return self._solve_lp_sparse(inputs, max_iterations=max_iterations)
        override = lp_method is not None and lp_method != config.lp_method
        lp_method = lp_method if lp_method is not None else config.lp_method
        use_warm = config.warm_start and not override
        t0 = time.perf_counter()
        lp, decoder = self._build_lp(self._formulated(inputs))
        t1 = time.perf_counter()
        state = self._lp_state if use_warm else None
        solution = solve_lp(
            lp, method=lp_method, state=state, collector=self.collector,
            max_iterations=max_iterations,
        )
        t2 = time.perf_counter()
        if not solution.ok:
            raise SolverError(
                f"slot LP failed: {solution.status.value} {solution.message}"
            )
        if use_warm:
            self._lp_state = solution.state
        fields = self._solved(lp, solution, state is not None,
                              build=t1 - t0, solve=t2 - t1)
        plan = self._on_topology(decoder(solution.x))
        payload = None
        if config.certify != "off":
            payload = {"problem": lp, "solution": solution, "plan": plan}
        return plan, fields, payload

    def _solve_lp_sparse(
        self,
        inputs: SlotInputs,
        max_iterations: Optional[int] = None,
    ) -> _StageResult:
        """Sparse slot solve (``config.sparse``).

        Always formulates on the **aggregated** CSR cache — for
        ``formulation="per_server"`` this *is* the symmetry collapse:
        identical servers within a data center become one aggregate
        share variable, and the decoder expands the solution back to a
        per-server plan (exact for homogeneous servers, see
        ``fixed_level_lp``).  The slot LP is compiled once, on the first
        sparse slot, into a :class:`~repro.solvers.sparse.SparseProgram`;
        every slot is a warm restart of that program from the previous
        slot's state.

        Stage timings are reported disjointly so the slot trace shows
        where the time went: ``build`` (or ``collapse`` under
        per-server), ``solve`` (the restart and its pivots; the first
        slot's also holds the one-time compile), and ``expand`` (decode
        back to a per-server plan).
        """
        config = self.config
        t0 = time.perf_counter()
        if self._sparse_cache is None:
            self._sparse_cache = FixedLevelLPCache(self.topology, sparse=True)
        lp, decoder = self._sparse_cache.build(inputs)
        t1 = time.perf_counter()
        if self._sparse_program is None:
            self._sparse_program = SparseProgram.compile(lp)
        state = self._sparse_state if config.warm_start else None
        solution = self._sparse_program.solve(
            lp, state=state, collector=self.collector,
            max_iterations=max_iterations,
        )
        if config.warm_start:
            self._sparse_state = solution.state if solution.ok else None
        if not solution.ok:
            raise SolverError(
                f"slot LP failed: {solution.status.value} {solution.message}"
            )
        t2 = time.perf_counter()
        plan = decoder(solution.x)
        fields = self._solved(lp, solution, state is not None, build=t1 - t0,
                              solve=t2 - t1, expand=time.perf_counter() - t2)
        if config.formulation == "per_server":
            fields["phase_times"].update(build=0.0, collapse=t1 - t0)
        fields["active_servers"] = self._active_servers(solution.x)
        payload = None
        if config.certify != "off":
            payload = {"problem": lp, "solution": solution, "plan": plan}
        return plan, fields, payload

    def _active_servers(self, x: np.ndarray) -> int:
        """Integer server count implied by an aggregated point's share
        mass."""
        topo = self.topology
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        n_lam = K * S * L
        dc_shares = x[n_lam:n_lam + K * L].reshape(K, L).sum(axis=0)
        return int(np.ceil(np.maximum(dc_shares, 0.0) - ZERO_TOL).sum())

    def _solve_levels(
        self,
        inputs: SlotInputs,
        max_nodes: Optional[int] = None,
    ) -> _StageResult:
        """Exact level selection: branch-and-bound over level vectors.

        :func:`~repro.solvers.levels.branch_and_bound_levels` searches
        the (class, data center) level vectors depth first.  Each node
        is the aggregated fixed-level LP with the node's levels (free
        positions at their highest utility and loosest sub-deadline,
        :class:`~repro.core.formulation.LevelFill`), solved as a warm
        restart of the one compiled :class:`SparseProgram`: within the
        slot from the previous node's token, and the root from the
        previous slot's root token when warm-starting.  A node whose
        share reserve cannot fit is pruned without a solve.
        ``max_nodes`` caps the oracle calls; running out, finding no
        feasible vector or a failed node LP raises
        :class:`SolverError`.

        The trace counts the node LPs solved as ``nodes`` and the
        winning leaf's pivots as ``iterations``; ``warm_start`` is the
        root's outcome.  The certificate is the slot's MILP at the
        winning leaf (:func:`~repro.core.formulation.lift_to_milp`) with
        gap 0: the tree was exhausted.
        """
        config = self.config
        t0 = time.perf_counter()
        if self._sparse_cache is None:
            self._sparse_cache = FixedLevelLPCache(self.topology, sparse=True)
        nodes = self._sparse_cache.level_fill(inputs)
        lp = nodes.lp
        t1 = time.perf_counter()
        if self._sparse_program is None:
            self._sparse_program = SparseProgram.compile(lp)
        program = self._sparse_program
        offered = self._sparse_state if config.warm_start else None
        state = offered
        width = len(nodes.sizes)
        solves: List[Solution] = []
        leaves: Dict[Tuple[int, ...], Solution] = {}

        def evaluate(prefix: Tuple[int, ...]) -> float:
            nonlocal state
            if not nodes.fill(prefix):
                return -np.inf
            solution = program.solve(lp, state=state, collector=self.collector)
            solves.append(solution)
            if solution.status is SolveStatus.INFEASIBLE:
                return -np.inf
            if not solution.ok:
                raise SolverError(
                    f"level search node LP failed: {solution.status.value} "
                    f"{solution.message}"
                )
            state = solution.state
            if len(prefix) == width:
                leaves[prefix] = solution
            return -solution.objective

        vector, _, _, exhausted = branch_and_bound_levels(
            nodes.sizes, evaluate, max_evaluations=max_nodes
        )
        if config.warm_start:
            self._sparse_state = solves[0].state if solves else None
        if not exhausted:
            raise SolverError(
                f"level search hit its node budget of {max_nodes}"
            )
        if vector is None:
            raise SolverError("level search found no feasible level vector")
        t2 = time.perf_counter()
        solution = leaves[vector]
        nodes.fill(vector)  # the winner's LP, for its residuals
        plan = nodes.decoder(solution.x)
        fields = self._solved(lp, solution, offered is not None, build=t1 - t0,
                              solve=t2 - t1, expand=time.perf_counter() - t2)
        fields["nodes"] = len(solves)
        fields["warm_start"] = self._warm_outcome(
            offered is not None, solves[0].warm_start_used
        )
        fields["active_servers"] = self._active_servers(solution.x)
        payload = None
        if config.certify != "off":
            mip, _ = self._build_milp(inputs)
            levels = np.asarray(vector, dtype=int).reshape(
                self.topology.num_classes, self.topology.num_datacenters
            )
            x = lift_to_milp(self.topology, solution.x, levels)
            lifted = Solution(
                status=SolveStatus.OPTIMAL, x=x,
                objective=float(mip.lp.c @ x), nodes=len(solves),
                iterations=solution.iterations, gap=0.0,
            )
            payload = {"problem": mip, "solution": lifted, "plan": plan}
        return plan, fields, payload

    def _build_milp(
        self, inputs: SlotInputs
    ) -> Tuple[MixedIntegerProgram, Decoder]:
        if not self.config.warm_start:
            return multilevel_milp(inputs)
        if self._milp_cache is None or self._milp_cache.topology is not inputs.topology:
            self._milp_cache = MultilevelMILPCache(inputs.topology)
        return self._milp_cache.build(inputs)

    def _solve_milp(
        self,
        inputs: SlotInputs,
        milp_method: Optional[str] = None,
        max_nodes: Optional[int] = None,
    ) -> _StageResult:
        config = self.config
        override = (milp_method is not None
                    and milp_method != config.milp_method)
        milp_method = (milp_method if milp_method is not None
                       else config.milp_method)
        use_warm = config.warm_start and not override
        t0 = time.perf_counter()
        mip, decoder = self._build_milp(self._formulated(inputs))
        t1 = time.perf_counter()
        state = self._milp_state if use_warm else None
        solution = solve_milp(
            mip, method=milp_method, state=state, collector=self.collector,
            max_nodes=max_nodes,
        )
        t2 = time.perf_counter()
        if not solution.ok:
            raise SolverError(
                f"slot MILP failed: {solution.status.value} {solution.message}"
            )
        if use_warm:
            self._milp_state = solution.state
        plan = self._on_topology(decoder(solution.x))
        fields = self._solved(mip.lp, solution, state is not None,
                              build=t1 - t0, solve=t2 - t1)
        payload = None
        if config.certify != "off":
            # ``plan`` is on the original topology, so the CT051 profit
            # identity scores it against the original slot inputs; the
            # MILP itself certifies in its own (possibly per-server)
            # space.
            payload = {"problem": mip, "solution": solution, "plan": plan}
        return plan, fields, payload

    def _solve_greedy(
        self,
        inputs: SlotInputs,
        lp_method: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> _StageResult:
        config = self.config
        override = lp_method is not None and lp_method != config.lp_method
        lp_method = lp_method if lp_method is not None else config.lp_method
        use_warm = config.warm_start and not override
        topo = self.topology
        K, L = topo.num_classes, topo.num_datacenters
        sizes = []
        for k in range(K):
            q = topo.request_classes[k].tuf.num_levels
            sizes.extend([q] * L)
        # Levels are searched per (class, data center); on the per-server
        # topology every server takes its data center's level.
        lp_inputs = self._formulated(inputs)
        repeats = (np.ones(L, dtype=int) if lp_inputs is inputs
                   else topo.servers_per_datacenter)

        def lp_levels(vector: Tuple[int, ...]) -> np.ndarray:
            levels = np.asarray(vector, dtype=int).reshape(K, L)
            return np.repeat(levels, repeats, axis=1)

        best_plan: Dict[Tuple[int, ...], DispatchPlan] = {}
        best_solution: Dict[Tuple[int, ...], Solution] = {}
        # Every level vector's LP has the same shape.
        num_variables = num_constraints = 0

        def evaluate(levels_flat: Tuple[int, ...]) -> float:
            nonlocal num_variables, num_constraints
            lp, decoder = self._build_lp(
                lp_inputs, levels=lp_levels(levels_flat)
            )
            num_variables, num_constraints = (lp.num_variables,
                                              lp.num_constraints)
            state = None
            if use_warm:
                # Prefer the state from the last solve of this exact
                # level vector (a later sweep, or the previous slot's
                # nearby data); fall back to the most recent solve of
                # any vector — same structure, so still a usable seed.
                state = (self._greedy_lp_states.get(levels_flat)
                         or self._greedy_last_state)
            solution = solve_lp(
                lp, method=lp_method, state=state,
                collector=self.collector,
                max_iterations=max_iterations,
            )
            if not solution.ok:
                return -np.inf
            if use_warm and solution.state is not None:
                self._greedy_lp_states[levels_flat] = solution.state
                self._greedy_last_state = solution.state
            best_plan[levels_flat] = decoder(solution.x)
            best_solution[levels_flat] = solution
            return -solution.objective

        t0 = time.perf_counter()
        initial = self._greedy_levels if use_warm else None
        if initial is not None and len(initial) != len(sizes):
            initial = None
        warm_used = initial is not None
        vector, value, evaluations = coordinate_descent_levels(
            sizes, evaluate, initial=initial
        )
        if vector not in best_plan and initial is not None:
            # The seeded neighborhood was entirely infeasible under the
            # new slot data; restart cold so warm-starting can never fail
            # a slot the cold search would solve.
            warm_used = False
            vector, value, extra = coordinate_descent_levels(sizes, evaluate)
            evaluations += extra
        if vector not in best_plan:
            raise SolverError("greedy level search found no feasible assignment")
        if use_warm:
            self._greedy_levels = vector
        fields = {
            "num_variables": num_variables,
            "num_constraints": num_constraints,
            "lp_evaluations": evaluations,
            "objective": value,
            "warm_start": self._warm_outcome(initial is not None, warm_used),
            "phase_times": {"build": 0.0, "solve": time.perf_counter() - t0},
        }
        plan = self._on_topology(best_plan[vector])
        payload = None
        if config.certify != "off":
            # The warm-start cache refills one shared LP object in
            # place, so whatever ``evaluate`` last built may not be the
            # winner's problem — rebuild the winning level vector's LP
            # for the certificate.
            winner_lp, _ = self._build_lp(lp_inputs, levels=lp_levels(vector))
            payload = {
                "problem": winner_lp,
                "solution": best_solution[vector],
                "plan": plan,
            }
        return plan, fields, payload
