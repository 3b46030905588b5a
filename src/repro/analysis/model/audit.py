"""The problem target's runner: run every ``MD0xx`` pass over one slot.

:func:`audit_slot` is the programmatic API behind both the ``repro
audit`` CLI and the ``OptimizerConfig(audit=...)`` hook in
``plan_slot``: build an :class:`AuditContext` around the slot's
:class:`~repro.core.formulation.SlotInputs`, run every registered pass
family, and fold the findings plus the tightened constants into one
:class:`~repro.analysis.engine.Report`.  The auditor never solves
anything and never mutates the inputs — it is safe to run on every slot
of a day-long experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.engine import PROBLEM, Report
from repro.analysis.report import Finding
from repro.cloud.topology import CloudTopology
from repro.core.bigm import DEFAULT_BIG, DEFAULT_DELTA
from repro.core.formulation import (
    SlotInputs,
    feasibility_margin,
    fixed_level_lp,
    multilevel_milp,
)
from repro.solvers.base import LinearProgram, MixedIntegerProgram

__all__ = ["AuditContext", "AuditThresholds", "audit_slot"]


@dataclass
class AuditThresholds:
    """Configurable knobs shared by the audit passes.

    Attributes
    ----------
    bigm_ratio_limit:
        A configured big-M constant more than this factor above the
        data-driven minimum is flagged as a numerical trap (MD010).
    mccormick_ratio_limit:
        A McCormick envelope bound more than this factor above the
        tight (deadline-aware) load bound is flagged loose (MD012).
    row_decades_limit:
        Maximum tolerated log10 spread of a constraint row's nonzero
        coefficient magnitudes before MD030 fires.
    oversize_ratio:
        Fleet capacity more than this factor above the slot's offered
        load is reported as over-provisioned (MD045, info).
    """

    bigm_ratio_limit: float = 100.0
    mccormick_ratio_limit: float = 100.0
    row_decades_limit: float = 6.0
    oversize_ratio: float = 100.0


@dataclass
class AuditContext:
    """Everything the audit passes may need about one slot problem.

    The LP (and, for multi-level TUFs, the MILP) are built lazily
    through the production builders in :mod:`repro.core.formulation`;
    a builder that *refuses* the topology (statically infeasible
    unconditional-share reserve) leaves the corresponding problem
    ``None`` with the failure message recorded, so matrix passes skip
    gracefully while the feasibility pass reports the root cause.
    """

    inputs: SlotInputs
    #: The big-M constant the ``bigm`` solve path would use for this
    #: slot (see :data:`repro.core.bigm.DEFAULT_BIG`).
    big: float = 0.0
    #: The paper's "small enough" time increment delta.
    delta: float = 1e-9
    thresholds: AuditThresholds = field(default_factory=AuditThresholds)

    _lp: Optional[LinearProgram] = field(default=None, repr=False)
    _lp_error: Optional[str] = field(default=None, repr=False)
    _milp: Optional[MixedIntegerProgram] = field(default=None, repr=False)
    _milp_error: Optional[str] = field(default=None, repr=False)
    _built_lp: bool = field(default=False, repr=False)
    _built_milp: bool = field(default=False, repr=False)

    @property
    def topology(self) -> CloudTopology:
        return self.inputs.topology

    @property
    def multilevel(self) -> bool:
        """True when any class has a multi-level TUF (MILP path)."""
        return any(
            rc.tuf.num_levels > 1
            for rc in self.inputs.topology.request_classes
        )

    def lp(self) -> Optional[LinearProgram]:
        """The slot's fixed-level LP, or None when it cannot be built."""
        if not self._built_lp:
            self._built_lp = True
            try:
                self._lp, _ = fixed_level_lp(self.inputs)
            except ValueError as exc:
                self._lp_error = str(exc)
        return self._lp

    def milp(self) -> Optional[MixedIntegerProgram]:
        """The slot's multi-level MILP (None for one-level TUFs or on
        a builder refusal)."""
        if not self._built_milp:
            self._built_milp = True
            if self.multilevel:
                try:
                    self._milp, _ = multilevel_milp(self.inputs)
                except ValueError as exc:
                    self._milp_error = str(exc)
        return self._milp

    def build_errors(self) -> List[str]:
        """Builder refusal messages collected while materializing."""
        out = []
        if self._lp_error:
            out.append(self._lp_error)
        if self._milp_error:
            out.append(self._milp_error)
        return out

    # ------------------------------------------------------- derived data

    def effective_deadlines(self) -> np.ndarray:
        """``(K,)`` final deadlines after the margin/percentile scaling.

        dtype float64.  The same folding the builders apply: a headroom
        factor of ``delay_factor`` is a deadline of ``D/delay_factor``.
        """
        topo = self.inputs.topology
        deadlines = np.array(
            [rc.deadline for rc in topo.request_classes], dtype=float
        )
        return deadlines * self.inputs.deadline_scale / self.inputs.delay_factor


def audit_slot(
    inputs: SlotInputs,
    big: Optional[float] = None,
    delta: float = DEFAULT_DELTA,
    thresholds: Optional[AuditThresholds] = None,
) -> Report:
    """Statically audit one slot problem; report, never raise.

    Parameters
    ----------
    inputs:
        The slot problem (topology + arrivals + prices).
    big:
        The big-M constant the ``bigm`` solve path would use; ``None``
        audits :data:`repro.core.bigm.DEFAULT_BIG`, the path's default.
    delta:
        The paper's small time increment.
    thresholds:
        Looseness/scaling knobs; defaults to :class:`AuditThresholds`.

    The report's ``details`` hold the tightened constants and scaling
    summaries: ``tightened_big`` (per request class), ``matrix`` (per
    built program), ``feasibility_margin`` (per data center), and
    ``build_errors`` (builder refusal messages, if any).
    """
    from repro.analysis.model.bigm import BigMTightnessRule
    from repro.analysis.model.matrix import matrix_details

    ctx = AuditContext(
        inputs=inputs,
        big=DEFAULT_BIG if big is None else float(big),
        delta=delta,
        thresholds=thresholds if thresholds is not None else AuditThresholds(),
    )
    findings: List[Finding] = []
    for rule in PROBLEM.rules():
        findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: f.sort_key)

    details: Dict = {}
    tightened = BigMTightnessRule().tightened(ctx)
    if tightened:
        details["tightened_big"] = tightened
    margin = feasibility_margin(
        inputs.topology, inputs.deadline_scale / inputs.delay_factor
    )
    details["feasibility_margin"] = {
        dc.name: float(margin[l])
        for l, dc in enumerate(inputs.topology.datacenters)
    }
    lp = ctx.lp()
    if lp is not None:
        details["matrix"] = {"lp": matrix_details(lp)}
    milp = ctx.milp()
    if milp is not None:
        details.setdefault("matrix", {})["milp"] = matrix_details(milp.lp)
    build_errors = ctx.build_errors()
    if build_errors:
        details["build_errors"] = build_errors
    return Report(target=PROBLEM, findings=findings, details=details)
