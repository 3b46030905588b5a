"""The paper's "Optimized" approach: profit-aware dispatching/allocation.

:class:`ProfitAwareOptimizer` solves the per-slot constrained
optimization of §IV and returns a :class:`~repro.core.plan.DispatchPlan`.
Solve paths:

* ``"lp"`` — one-level TUFs (paper §IV-1): a plain LP;
* ``"milp"`` — multi-level TUFs via the exact MILP with binary level
  selectors (the role CPLEX plays in the paper);
* ``"bigm"`` — the paper's literal big-M nonlinear constraint series
  solved with a penalty/SLSQP method, repaired through the LP;
* ``"greedy"`` — coordinate-descent local search over level vectors
  with the LP as oracle (cheap heuristic ablation);
* ``"auto"`` (default) — ``"lp"`` when every class has a one-level TUF,
  ``"milp"`` otherwise.

Formulations: ``"aggregated"`` (fast, provably equivalent given
homogeneous servers per data center) or ``"per_server"``
(paper-faithful variable layout; also used by the Fig. 11 computation-
time study since its size grows with the server count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.datacenter import DataCenter
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
)
from repro.solvers.branch_bound import solve_milp
from repro.solvers.levels import coordinate_descent_levels
from repro.solvers.linprog import solve_lp
from repro.solvers.sparse import (
    CompiledDecomposition,
    class_blocks,
    compile_decomposition,
    solve_decomposed,
    solve_sparse_lp,
)
from repro.solvers.tolerances import ZERO_TOL

__all__ = ["OptimizerConfig", "ProfitAwareOptimizer", "SolveStats"]


@dataclass(frozen=True)
class SolveStats:
    """Diagnostics from the most recent ``plan_slot`` call."""

    method: str
    formulation: str
    wall_time: float
    num_variables: int
    num_constraints: int
    iterations: int = 0
    nodes: int = 0
    objective: float = 0.0
    lp_evaluations: int = 0
    #: True when this solve was seeded with state from an earlier slot
    #: (a solver state and/or a greedy level vector).
    warm_started: bool = False
    #: ``"off"``/``"cold"``/``"hit"``/``"miss"`` — whether warm-starting
    #: was enabled, had state to offer, and whether the solver took it.
    warm_outcome: str = "off"
    #: Wall seconds spent building/refilling the slot problem.
    build_time: float = 0.0
    #: Wall seconds spent inside the solver.
    solve_time: float = 0.0
    #: Wall seconds spent on consolidation / spare-capacity passes.
    postprocess_time: float = 0.0
    #: Integer number of powered servers implied by the plan's share
    #: mass (filled by the sparse path's symmetry collapse; 0 elsewhere).
    active_servers: int = 0
    #: Position in the fallback chain that produced the plan (0 = the
    #: requested solver succeeded; see ``OptimizerConfig.fallback``).
    fallback_level: int = 0
    #: Name of the winning stage (``"lp"``, ``"lp:simplex"``,
    #: ``"greedy"``, ``"balanced"``, ...).
    fallback_stage: str = ""
    #: ``"; "``-joined error messages of the stages that failed before
    #: the winning one ("" when the primary solve succeeded).
    failure: str = ""


def _explode_topology(topology: CloudTopology) -> CloudTopology:
    """Rewrite the topology so each physical server is its own 1-server DC.

    The aggregated formulation on the exploded topology *is* the
    per-server formulation on the original one, so every solve path
    (including the MILP) gains a per-server variant for free.  Flat
    server ordering is preserved, so plans fold back unchanged.
    """
    datacenters = []
    distances_cols = []
    for l, dc in enumerate(topology.datacenters):
        for i in range(dc.num_servers):
            datacenters.append(DataCenter(
                name=f"{dc.name}#srv{i}",
                num_servers=1,
                service_rates=dc.service_rates,
                energy_per_request=dc.energy_per_request,
                server_capacity=dc.server_capacity,
                pue=dc.pue,
            ))
            distances_cols.append(topology.distances[:, l])
    return CloudTopology(
        request_classes=topology.request_classes,
        frontends=topology.frontends,
        datacenters=tuple(datacenters),
        distances=np.stack(distances_cols, axis=1),
    )


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

    Per-slot diagnostics land on :attr:`last_stats`
    (:class:`SolveStats`); when ``config.collector`` is enabled, each
    ``plan_slot`` call additionally emits a
    :class:`~repro.obs.trace.SlotTrace` and threads the collector
    through the underlying LP/MILP solvers.

    With ``config.fallback`` (the default), a failed solve no longer
    aborts the run: the slot is retried and then re-solved down a chain
    of increasingly conservative stages — alternate exact backend,
    greedy level search, and finally the always-feasible Balanced plan —
    so ``plan_slot`` returns a feasible plan for every slot.  The chain
    position that produced the plan is reported as
    :attr:`SolveStats.fallback_level` and in the slot trace's
    ``fallback``/``failure`` fields.
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
        # Flat mirrors, kept for backward compatibility with pre-config
        # call sites (and cheaper attribute access on the hot path).
        self.level_method = config.level_method
        self.formulation = config.formulation
        self.lp_method = config.lp_method
        self.milp_method = config.milp_method
        self.consolidate = config.consolidate
        self.apply_pue = config.apply_pue
        self.use_spare_capacity = config.use_spare_capacity
        self.deadline_margin = config.deadline_margin
        self.percentile_sla = config.percentile_sla
        self._delay_factor = config.delay_factor
        self.warm_start = config.warm_start
        #: Telemetry sink; reassignable (e.g. by ``run_simulation``).
        self.collector: Collector = config.collector
        #: Slot index stamped onto the next emitted trace; advanced by
        #: every ``plan_slot`` call, reset by :meth:`reset_warm_state`.
        self.slot_index = 0
        self.last_stats: Optional[SolveStats] = None
        self._multilevel = any(
            rc.tuf.num_levels > 1 for rc in topology.request_classes
        )
        # Formulation caches (structure only; built lazily, never reset).
        self._lp_cache: Optional[FixedLevelLPCache] = None
        self._milp_cache: Optional[MultilevelMILPCache] = None
        # Sparse solve path (config.sparse): CSR aggregated cache — the
        # symmetry collapse of identical servers — plus the per-class
        # block decomposition compiled from it and its warm-start states.
        self._sparse_cache: Optional[FixedLevelLPCache] = None
        self._sparse_decomposition: Optional[CompiledDecomposition] = None
        self._sparse_block_states: Optional[List[Optional[SolverState]]] = None
        self._sparse_joint_state: Optional[SolverState] = None
        self._exploded_topology: Optional[CloudTopology] = None
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
        """Solve one slot and return the dispatch plan."""
        if not slot_duration > 0.0:
            raise ValueError(
                f"slot_duration must be positive (got {slot_duration}); "
                "it is the slot length in hours over which the arrival "
                "rates apply — e.g. 1.0 for the paper's hourly slots"
            )
        method = self.level_method
        if method == "auto":
            method = "milp" if self._multilevel else "lp"
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
            apply_pue=self.apply_pue,
            deadline_scale=self.deadline_margin,
            delay_factor=self._delay_factor,
        )
        audit_findings = self._audit_inputs(inputs)
        start = time.perf_counter()
        if self.config.fallback:
            plan, stats, fallback_level, fallback_stage, failure = \
                self._solve_with_fallback(method, inputs, start)
        else:
            plan, stats = self._solve_stage(
                method, inputs,
                budget=self.config.solver_iteration_budget,
            )
            fallback_level, fallback_stage, failure = 0, method, ""
        certificates = self._certify_solution(stats.pop("certify", None),
                                              inputs)
        post_start = time.perf_counter()
        if self.consolidate:
            plan = consolidate_plan(plan)
        if self.use_spare_capacity:
            plan = plan.with_spare_capacity_distributed()
        postprocess_time = time.perf_counter() - post_start
        elapsed = time.perf_counter() - start
        if not self.warm_start:
            warm_outcome = "off"
        elif not stats.get("warm_offered", False):
            warm_outcome = "cold"
        elif stats.get("warm_used", False):
            warm_outcome = "hit"
        else:
            warm_outcome = "miss"
        self.last_stats = SolveStats(
            method=method,
            formulation=self.formulation,
            wall_time=elapsed,
            num_variables=int(stats.get("num_variables", 0)),
            num_constraints=int(stats.get("num_constraints", 0)),
            iterations=int(stats.get("iterations", 0)),
            nodes=int(stats.get("nodes", 0)),
            objective=float(stats.get("objective", 0.0)),
            lp_evaluations=int(stats.get("lp_evaluations", 0)),
            warm_started=bool(stats.get("warm_offered", False)),
            warm_outcome=warm_outcome,
            build_time=float(stats.get("build_time", 0.0)),
            solve_time=float(stats.get("solve_time", 0.0)),
            postprocess_time=postprocess_time,
            active_servers=int(stats.get("active_servers", 0)),
            fallback_level=fallback_level,
            fallback_stage=fallback_stage,
            failure=failure,
        )
        slot = self.slot_index
        self.slot_index = slot + 1
        collector = self.collector
        if collector.enabled:
            collector.increment("optimizer.slots")
            collector.increment(f"optimizer.warm_{warm_outcome}")
            collector.observe_time("optimizer.plan_slot", elapsed)
            if fallback_level > 0:
                collector.increment("optimizer.fallbacks")
                collector.increment(f"optimizer.fallback_{fallback_stage}")
            collector.record_slot(SlotTrace(
                slot=slot,
                method=method,
                formulation=self.formulation,
                warm_start=warm_outcome,
                objective=float(stats.get("objective", 0.0)),
                total_time=elapsed,
                phase_times={
                    "build": float(stats.get("build_time", 0.0)),
                    "solve": float(stats.get("solve_time", 0.0)),
                    "postprocess": postprocess_time,
                    # The sparse path adds disjoint stage timings
                    # (collapse/decompose/expand) so fleet benches can
                    # see where the time went.
                    **{key: float(value) for key, value
                       in stats.get("extra_phases", {}).items()},
                },
                iterations=int(stats.get("iterations", 0)),
                nodes=int(stats.get("nodes", 0)),
                lp_evaluations=int(stats.get("lp_evaluations", 0)),
                num_variables=int(stats.get("num_variables", 0)),
                num_constraints=int(stats.get("num_constraints", 0)),
                residuals=stats.get("residuals", {}),
                fallback=fallback_level,
                failure=failure,
                audit=audit_findings,
                certificates=certificates,
            ))
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
        "solution", "plan", "coupling_rows"?}`` capture (stages that
        produce no certifiable LP — big-M, the balanced baseline — stash
        nothing, which counts as a skip).  Returns the findings as plain
        dicts (for the slot trace); raises :class:`SolverError` in
        ``"error"`` mode when a certificate check reports an
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
            coupling_rows=payload.get("coupling_rows"),
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
    ) -> Tuple[DispatchPlan, Dict]:
        """Run one solve path; raises :class:`SolverError` on failure.

        ``lp_method``/``milp_method`` override the configured backends
        (fallback stages re-solve with an *independent* implementation);
        ``budget`` caps solver work (iterations for LPs, nodes for
        MILPs).  The big-M path has no budget knob.
        """
        if method == "lp":
            return self._solve_lp(
                inputs, lp_method=lp_method, max_iterations=budget
            )
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
        plan = solve_slot_bigm(inputs, lp_method=lp_method or self.lp_method)
        return plan, {"num_variables": 0, "num_constraints": 0,
                      "solve_time": time.perf_counter() - t0}

    def _solve_baseline(self, inputs: SlotInputs) -> Tuple[DispatchPlan, Dict]:
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
        outcome = evaluate_plan(
            plan, inputs.arrivals, inputs.prices,
            slot_duration=inputs.slot_duration, apply_pue=inputs.apply_pue,
        )
        return plan, {
            "num_variables": 0,
            "num_constraints": 0,
            "objective": outcome.net_profit,
            "solve_time": time.perf_counter() - t0,
        }

    def _fallback_stages(self, method: str) -> List[Tuple[str, Dict]]:
        """Ordered rescue stages after the failed primary ``method``.

        Each entry is ``(stage_name, _solve_stage kwargs)``; the final
        ``"balanced"`` sentinel maps to :meth:`_solve_baseline`.  The
        chain re-solves with an alternate exact backend first (HiGHS,
        simplex, and the own B&B are independent implementations, so a
        numerical failure in one rarely repeats in another), then the
        greedy level search, then the baseline plan.
        """
        stages: List[Tuple[str, Dict]] = []
        if self._multilevel:
            if method != "milp":
                stages.append(
                    (f"milp:{self.milp_method}", {"method": "milp"})
                )
            else:
                alt = "bb" if self.milp_method != "bb" else "highs"
                stages.append((f"milp:{alt}", {"method": "milp",
                                               "milp_method": alt}))
        else:
            alt = ("simplex"
                   if not (method == "lp" and self.lp_method == "simplex")
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
        self._sparse_block_states = None
        self._sparse_joint_state = None
        self._greedy_lp_states.clear()
        self._greedy_last_state = None
        self._greedy_levels = None

    def _solve_with_fallback(
        self, method: str, inputs: SlotInputs, start: float
    ) -> Tuple[DispatchPlan, Dict, int, str, str]:
        """Drive the fallback chain until some stage yields a plan.

        Returns ``(plan, stats, fallback_level, stage_name, failure)``
        where ``fallback_level`` is the chain position of the winning
        stage (0 = requested solver) and ``failure`` joins the error
        messages collected along the way.  The final baseline stage
        cannot fail, so every call returns a feasible plan.
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
                        plan, stats = self._solve_baseline(inputs)
                    else:
                        plan, stats = self._solve_stage(inputs=inputs,
                                                        **kwargs)
                except SolverError as exc:
                    failures.append(f"{stage_name}: {exc}")
                    continue
                return plan, stats, level, stage_name, "; ".join(failures)
        raise SolverError(  # pragma: no cover - balanced cannot fail
            "fallback chain exhausted: " + "; ".join(failures)
        )

    # -------------------------------------------------------------- private

    def _build_lp(
        self, inputs: SlotInputs, levels: Optional[np.ndarray] = None
    ) -> Tuple[LinearProgram, Decoder]:
        per_server = self.formulation == "per_server"
        if not self.warm_start:
            return fixed_level_lp(inputs, levels=levels, per_server=per_server)
        if self._lp_cache is None:
            self._lp_cache = FixedLevelLPCache(
                self.topology, per_server=per_server
            )
        return self._lp_cache.build(inputs, levels=levels)

    def _solve_lp(
        self,
        inputs: SlotInputs,
        lp_method: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> Tuple[DispatchPlan, Dict]:
        # A fallback stage re-solving with an alternate backend neither
        # consumes nor overwrites the primary backend's warm state.
        # The sparse/decomposed path serves only the primary stage:
        # fallback stages name their backend explicitly and stay dense,
        # so they remain independent implementations.
        if self.config.sparse and lp_method is None:
            return self._solve_lp_sparse(inputs, max_iterations=max_iterations)
        override = lp_method is not None and lp_method != self.lp_method
        lp_method = lp_method if lp_method is not None else self.lp_method
        t0 = time.perf_counter()
        lp, decoder = self._build_lp(inputs)
        t1 = time.perf_counter()
        state = self._lp_state if (self.warm_start and not override) else None
        solution = solve_lp(
            lp, method=lp_method, state=state, collector=self.collector,
            max_iterations=max_iterations,
        )
        t2 = time.perf_counter()
        if not solution.ok:
            raise SolverError(
                f"slot LP failed: {solution.status.value} {solution.message}"
            )
        if self.warm_start and not override:
            self._lp_state = solution.state
        stats = {
            "num_variables": lp.num_variables,
            "num_constraints": lp.num_constraints,
            "iterations": solution.iterations,
            "objective": -solution.objective,
            "warm_offered": state is not None,
            "warm_used": solution.warm_start_used,
            "build_time": t1 - t0,
            "solve_time": t2 - t1,
        }
        if self.collector.enabled:
            stats["residuals"] = lp.residuals(solution.x)
        plan = decoder(solution.x)
        if self.config.certify != "off":
            stats["certify"] = {
                "problem": lp, "solution": solution, "plan": plan,
            }
        return plan, stats

    def _solve_lp_sparse(
        self,
        inputs: SlotInputs,
        max_iterations: Optional[int] = None,
    ) -> Tuple[DispatchPlan, Dict]:
        """Sparse/decomposed slot solve (``config.sparse``).

        Always formulates on the **aggregated** CSR cache — for
        ``formulation="per_server"`` this *is* the symmetry collapse:
        identical servers within a data center become one aggregate
        share variable, and the decoder expands the solution back to a
        per-server plan (exact for homogeneous servers, see
        ``fixed_level_lp``).  The per-class block decomposition — compiled
        once, on the first sparse slot — is tried first (independent
        blocks, each warm-started from its own state); when a coupling
        row binds, the joint LP is solved by the bounded dual simplex
        with an RHS-only warm re-solve.

        Stage timings are reported disjointly so the slot trace shows
        where the time went: ``build`` (or ``collapse`` under
        per-server), ``decompose`` (per-block gathers of ``c``/``b_ub``,
        block solves and coupling check; the first slot's also holds the
        one-time compile), ``solve`` (joint solve — zero when
        decomposition succeeded), and ``expand`` (decode back to a
        per-server plan).
        """
        use_warm = self.warm_start
        t0 = time.perf_counter()
        if self._sparse_cache is None:
            self._sparse_cache = FixedLevelLPCache(self.topology, sparse=True)
        lp, decoder = self._sparse_cache.build(inputs)
        t1 = time.perf_counter()
        topo = self.topology
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        if self._sparse_decomposition is None:
            self._sparse_decomposition = compile_decomposition(
                lp, *class_blocks(K, S, L)
            )
        warm_offered = use_warm and (
            self._sparse_block_states is not None
            or self._sparse_joint_state is not None
        )
        decomposed = solve_decomposed(
            lp, self._sparse_decomposition,
            states=self._sparse_block_states if use_warm else None,
            collector=self.collector,
            max_iterations=max_iterations,
        )
        t2 = time.perf_counter()
        if decomposed is not None:
            solution = decomposed.solution
            if use_warm:
                self._sparse_block_states = decomposed.states
            joint_time = 0.0
        else:
            solution = solve_sparse_lp(
                lp,
                state=self._sparse_joint_state if use_warm else None,
                collector=self.collector,
                max_iterations=max_iterations,
            )
            joint_time = time.perf_counter() - t2
            if use_warm:
                self._sparse_joint_state = (
                    solution.state if solution.ok else None
                )
        if not solution.ok:
            raise SolverError(
                f"slot LP failed: {solution.status.value} {solution.message}"
            )
        t3 = time.perf_counter()
        plan = decoder(solution.x)
        expand_time = time.perf_counter() - t3
        # Integer server counts implied by the aggregate share mass.
        n_lam = K * S * L
        dc_shares = solution.x[n_lam:n_lam + K * L].reshape(K, L).sum(axis=0)
        active_servers = int(np.ceil(np.maximum(dc_shares, 0.0) - ZERO_TOL).sum())
        extra_phases = {"decompose": t2 - t1, "expand": expand_time}
        if self.formulation == "per_server":
            build_time, extra_phases["collapse"] = 0.0, t1 - t0
        else:
            build_time = t1 - t0
        stats = {
            "num_variables": lp.num_variables,
            "num_constraints": lp.num_constraints,
            "iterations": solution.iterations,
            "objective": -solution.objective,
            "warm_offered": warm_offered,
            "warm_used": solution.warm_start_used,
            "build_time": build_time,
            "solve_time": joint_time,
            "extra_phases": extra_phases,
            "active_servers": active_servers,
        }
        if self.collector.enabled:
            stats["residuals"] = lp.residuals(solution.x)
        if self.config.certify != "off":
            stats["certify"] = {
                "problem": lp, "solution": solution, "plan": plan,
                "coupling_rows": self._sparse_decomposition.coupling_rows,
            }
        return plan, stats

    def _build_milp(
        self, inputs: SlotInputs
    ) -> Tuple[MixedIntegerProgram, Decoder]:
        if not self.warm_start:
            return multilevel_milp(inputs)
        if self._milp_cache is None or self._milp_cache.topology is not inputs.topology:
            self._milp_cache = MultilevelMILPCache(inputs.topology)
        return self._milp_cache.build(inputs)

    def _solve_milp(
        self,
        inputs: SlotInputs,
        milp_method: Optional[str] = None,
        max_nodes: Optional[int] = None,
    ) -> Tuple[DispatchPlan, Dict]:
        override = milp_method is not None and milp_method != self.milp_method
        milp_method = (milp_method if milp_method is not None
                       else self.milp_method)
        if self.formulation == "per_server":
            if self._exploded_topology is None:
                self._exploded_topology = _explode_topology(self.topology)
            exploded = self._exploded_topology
            inputs = SlotInputs(
                topology=exploded,
                arrivals=inputs.arrivals,
                prices=np.repeat(
                    inputs.prices, self.topology.servers_per_datacenter
                ),
                slot_duration=inputs.slot_duration,
                apply_pue=inputs.apply_pue,
                deadline_scale=inputs.deadline_scale,
                delay_factor=inputs.delay_factor,
            )
        t0 = time.perf_counter()
        mip, decoder = self._build_milp(inputs)
        t1 = time.perf_counter()
        state = self._milp_state if (self.warm_start and not override) else None
        solution = solve_milp(
            mip, method=milp_method, state=state, collector=self.collector,
            max_nodes=max_nodes,
        )
        t2 = time.perf_counter()
        if not solution.ok:
            raise SolverError(
                f"slot MILP failed: {solution.status.value} {solution.message}"
            )
        if self.warm_start and not override:
            self._milp_state = solution.state
        plan = decoder(solution.x)
        if self.formulation == "per_server":
            plan = DispatchPlan(
                topology=self.topology,
                rates=plan.rates,
                shares=plan.shares,
            )
        stats = {
            "num_variables": mip.lp.num_variables,
            "num_constraints": mip.lp.num_constraints,
            "iterations": solution.iterations,
            "nodes": solution.nodes,
            "objective": -solution.objective,
            "warm_offered": state is not None,
            "warm_used": solution.warm_start_used,
            "build_time": t1 - t0,
            "solve_time": t2 - t1,
        }
        if self.collector.enabled:
            stats["residuals"] = mip.lp.residuals(solution.x)
        if self.config.certify != "off":
            # ``plan`` is re-wrapped on the original topology, so the
            # CT051 profit identity scores it against the original slot
            # inputs; the MILP itself certifies in its own (possibly
            # exploded) space.
            stats["certify"] = {
                "problem": mip, "solution": solution, "plan": plan,
            }
        return plan, stats

    def _solve_greedy(
        self,
        inputs: SlotInputs,
        lp_method: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> Tuple[DispatchPlan, Dict]:
        override = lp_method is not None and lp_method != self.lp_method
        lp_method = lp_method if lp_method is not None else self.lp_method
        use_warm = self.warm_start and not override
        topo = self.topology
        K, L = topo.num_classes, topo.num_datacenters
        sizes = []
        for k in range(K):
            q = topo.request_classes[k].tuf.num_levels
            sizes.extend([q] * L)

        best_plan: Dict[Tuple[int, ...], DispatchPlan] = {}
        best_solution: Dict[Tuple[int, ...], Solution] = {}

        def evaluate(levels_flat: Tuple[int, ...]) -> float:
            levels = np.asarray(levels_flat, dtype=int).reshape(K, L)
            lp, decoder = self._build_lp(inputs, levels=levels)
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
        stats = {
            "lp_evaluations": evaluations,
            "objective": value,
            "warm_offered": initial is not None,
            "warm_used": warm_used,
            "solve_time": time.perf_counter() - t0,
        }
        if self.config.certify != "off":
            # The warm-start cache refills one shared LP object in
            # place, so whatever ``evaluate`` last built may not be the
            # winner's problem — rebuild the winning level vector's LP
            # for the certificate.
            winner_levels = np.asarray(vector, dtype=int).reshape(K, L)
            winner_lp, _ = self._build_lp(inputs, levels=winner_levels)
            stats["certify"] = {
                "problem": winner_lp,
                "solution": best_solution[vector],
                "plan": best_plan[vector],
            }
        return best_plan[vector], stats
