"""Consolidated optimizer configuration.

:class:`OptimizerConfig` gathers every knob of
:class:`~repro.core.optimizer.ProfitAwareOptimizer` into one frozen,
validated, picklable value — the only constructor signature is
``ProfitAwareOptimizer(topology, config=OptimizerConfig(...))``; the
optimizer accepts no flat keyword arguments.

Keeping the configuration a value (rather than loose kwargs) means it
can be stored on experiment bundles, shipped across the process-pool
boundary of :mod:`repro.sim.parallel`, compared for equality, and
varied with :meth:`OptimizerConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.collectors import Collector, NullCollector

__all__ = ["OptimizerConfig"]

LEVEL_METHODS = ("auto", "lp", "milp", "bigm", "greedy")
FORMULATIONS = ("aggregated", "per_server")
LP_METHODS = ("highs", "simplex", "ipm")
MILP_METHODS = ("highs", "bb")
AUDIT_MODES = ("off", "warn", "error")
CERTIFY_MODES = ("off", "warn", "error")


@dataclass(frozen=True)
class OptimizerConfig:
    """All :class:`ProfitAwareOptimizer` knobs, validated on construction.

    Parameters
    ----------
    level_method:
        ``"auto"``, ``"lp"``, ``"milp"``, ``"bigm"``, or ``"greedy"``.
    formulation:
        ``"aggregated"`` or ``"per_server"``.
    lp_method:
        LP backend: ``"highs"``, ``"simplex"``, or ``"ipm"``.
    milp_method:
        MILP backend: ``"highs"`` or ``"bb"``.
    consolidate:
        Run the right-sizing consolidation pass on every plan.
    apply_pue:
        Include PUE in the processing-energy cost.
    use_spare_capacity:
        Distribute unused CPU to loaded VMs after solving (free under
        the per-request energy model; strictly improves delays).
    deadline_margin:
        Plan against deadlines scaled by this factor in (0, 1].
    percentile_sla:
        When set to ``eps`` in (0, 1), plan for the tail SLA
        ``P(sojourn > D) <= eps`` instead of the mean-delay SLA.
    warm_start:
        Reuse formulation caches and solver state across slots.
    sparse:
        Route fixed-level slot LPs through the sparse/decomposed solve
        path (:mod:`repro.solvers.sparse`): CSR constraint matrices,
        symmetry collapse of identical servers (per-server plans are
        solved on the aggregated formulation and expanded afterwards),
        per-class block decomposition, and a dual-simplex RHS-only
        re-solve for slot-to-slot price/arrival changes.  Produces the
        same plans and objectives as the dense path (pinned at 1e-6 in
        the property suite); MILP/big-M/greedy level methods and the
        fallback chain's alternate backends keep using the dense
        solvers.
    collector:
        Telemetry sink (see :mod:`repro.obs`); the default
        :class:`~repro.obs.collectors.NullCollector` disables all
        instrumentation at (near) zero cost.
    fallback:
        Run the fault-tolerant solve chain when the requested solver
        fails a slot (infeasible / numerical error / budget exhausted):
        the primary method is retried, then an alternate backend is
        tried, then the greedy level search, and finally the always-
        feasible :class:`~repro.core.baselines.BalancedDispatcher` plan.
        ``False`` restores the raise-on-failure behavior.
    fallback_retries:
        Extra attempts per fallback stage (>= 0).  Retries run with the
        warm-start state cleared, since a stale state is a common cause
        of a failed solve.
    solver_iteration_budget:
        Iteration cap handed to the *primary* solve (simplex pivots /
        IPM iterations / HiGHS iterations; B&B and HiGHS-MILP node
        counts).  Fallback stages run with their default budgets so the
        chain can actually rescue the slot.  ``None`` means the solver
        defaults; a tiny value is the standard way to inject solver
        failures in tests and CI.
    fallback_time_budget:
        Wall-second budget for one ``plan_slot`` call.  Once a failed
        stage leaves the call over budget, intermediate stages are
        skipped and the chain jumps straight to the baseline plan.
        ``None`` disables the time check.
    audit:
        Run the static formulation auditor
        (:func:`repro.analysis.model.audit_slot`) on every slot before
        solving.  ``"off"`` (default) skips it; ``"warn"`` records the
        findings on the emitted :class:`~repro.obs.trace.SlotTrace` and
        the collector's ``optimizer.audit_*`` counters but never blocks
        the solve; ``"error"`` additionally raises
        :class:`~repro.solvers.base.SolverError` when the audit reports
        an error-severity finding (statically infeasible or mis-scaled
        slot problem), before any solver time is spent.
    certify:
        Run the optimality-certificate verifier
        (:func:`repro.analysis.certify.certify_solution`) on every
        successful solve.  ``"off"`` (default) skips it; ``"warn"``
        records the findings on the emitted
        :class:`~repro.obs.trace.SlotTrace` and the collector's
        ``optimizer.certify_*`` counters but never blocks the plan;
        ``"error"`` additionally raises
        :class:`~repro.solvers.base.SolverError` when a certificate
        check reports an error-severity finding (the claimed-optimal
        solution fails an independent recomputation), before the plan
        is returned.
    """

    level_method: str = "auto"
    formulation: str = "aggregated"
    lp_method: str = "highs"
    milp_method: str = "highs"
    consolidate: bool = False
    apply_pue: bool = False
    use_spare_capacity: bool = True
    deadline_margin: float = 1.0
    percentile_sla: Optional[float] = None
    warm_start: bool = True
    sparse: bool = False
    collector: Collector = field(default_factory=NullCollector, compare=False)
    fallback: bool = True
    fallback_retries: int = 1
    solver_iteration_budget: Optional[int] = None
    fallback_time_budget: Optional[float] = None
    audit: str = "off"
    certify: str = "off"

    def __post_init__(self) -> None:
        if self.audit not in AUDIT_MODES:
            raise ValueError(
                f"unknown audit mode {self.audit!r}; "
                f"choose from {AUDIT_MODES}"
            )
        if self.certify not in CERTIFY_MODES:
            raise ValueError(
                f"unknown certify mode {self.certify!r}; "
                f"choose from {CERTIFY_MODES}"
            )
        if self.level_method not in LEVEL_METHODS:
            raise ValueError(
                f"unknown level_method {self.level_method!r}; "
                f"choose from {LEVEL_METHODS}"
            )
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation {self.formulation!r}; "
                f"choose from {FORMULATIONS}"
            )
        if self.lp_method not in LP_METHODS:
            raise ValueError(
                f"unknown lp_method {self.lp_method!r}; "
                f"choose from {LP_METHODS}"
            )
        if self.milp_method not in MILP_METHODS:
            raise ValueError(
                f"unknown milp_method {self.milp_method!r}; "
                f"choose from {MILP_METHODS}"
            )
        object.__setattr__(self, "deadline_margin", float(self.deadline_margin))
        if not 0.0 < self.deadline_margin <= 1.0:
            raise ValueError(
                f"deadline_margin must be in (0, 1], got {self.deadline_margin}"
            )
        if self.percentile_sla is not None:
            object.__setattr__(
                self, "percentile_sla", float(self.percentile_sla)
            )
            if not 0.0 < self.percentile_sla < 1.0:
                raise ValueError(
                    f"percentile_sla must be in (0, 1), got {self.percentile_sla}"
                )
        object.__setattr__(self, "consolidate", bool(self.consolidate))
        object.__setattr__(self, "apply_pue", bool(self.apply_pue))
        object.__setattr__(
            self, "use_spare_capacity", bool(self.use_spare_capacity)
        )
        object.__setattr__(self, "warm_start", bool(self.warm_start))
        object.__setattr__(self, "sparse", bool(self.sparse))
        object.__setattr__(self, "fallback", bool(self.fallback))
        object.__setattr__(self, "fallback_retries", int(self.fallback_retries))
        if self.fallback_retries < 0:
            raise ValueError(
                f"fallback_retries must be >= 0, got {self.fallback_retries}"
            )
        if self.solver_iteration_budget is not None:
            object.__setattr__(
                self, "solver_iteration_budget",
                int(self.solver_iteration_budget),
            )
            if self.solver_iteration_budget < 1:
                raise ValueError(
                    "solver_iteration_budget must be >= 1, got "
                    f"{self.solver_iteration_budget}"
                )
        if self.fallback_time_budget is not None:
            object.__setattr__(
                self, "fallback_time_budget", float(self.fallback_time_budget)
            )
            if not self.fallback_time_budget > 0.0:
                raise ValueError(
                    "fallback_time_budget must be positive, got "
                    f"{self.fallback_time_budget}"
                )

    @property
    def delay_factor(self) -> float:
        """Headroom multiplier implied by ``percentile_sla`` (>= 1)."""
        if self.percentile_sla is None:
            return 1.0
        # eps > 1/e would *weaken* the mean constraint; floor at the
        # paper's mean-delay requirement.
        return max(1.0, float(np.log(1.0 / self.percentile_sla)))

    def replace(self, **changes: object) -> "OptimizerConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
