"""The solution target's runner: run every ``CT0xx`` check over one
solved problem.

:func:`certify_solution` is the programmatic API behind the ``repro
certify`` CLI, the ``OptimizerConfig(certify=...)`` hook in
``plan_slot``, and the pytest fixture gating the property harnesses:
build a :class:`CertifyContext` around the solved problem, run every
registered check family, and fold the findings plus the coverage
summary into one :class:`~repro.analysis.engine.Report`.  The certifier
recomputes everything from the problem data — it never re-solves and
never mutates its inputs — so it is cheap enough to gate every solve of
a day-long experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.analysis.engine import SOLUTION, Report
from repro.analysis.report import Finding
from repro.core.formulation import SlotInputs
from repro.core.plan import DispatchPlan
from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    Solution,
)
from repro.solvers.tolerances import FEASIBILITY_TOL, INTEGRALITY_TOL

__all__ = ["CertifyContext", "CertifyThresholds", "certify_solution"]


@dataclass
class CertifyThresholds:
    """Configurable tolerances shared by the certificate checks.

    Defaults derive from :mod:`repro.solvers.tolerances` so the
    certifier and the solvers agree on what "satisfied" means; each
    check scales its tolerance by the relevant problem magnitude
    (right-hand side, objective norm) so certificates stay meaningful
    across the paper's \\$-scale objectives and big-M rows.

    Attributes
    ----------
    feas_tol:
        Relative primal-feasibility tolerance (bounds and rows,
        CT010/CT011).
    dual_tol:
        Relative dual-feasibility and reduced-cost-sign tolerance
        (CT020/CT021), scaled by ``max(1, |c|_inf)``.
    comp_tol:
        Complementary-slackness tolerance (CT030): a row is flagged when
        both its slack and its multiplier are above this, relatively.
    gap_rel:
        Relative primal-dual gap gate (CT031).
    int_tol:
        Distance from the nearest integer tolerated for
        integer-constrained variables (CT040).
    milp_gap_rel:
        Relative branch-and-bound bound-sandwich width above which
        CT041 warns (an incumbent far from its proven bound).
    profit_rel:
        Relative mismatch tolerated between the decoded plan's
        recomputed net profit and the solver objective (CT051).
    """

    feas_tol: float = FEASIBILITY_TOL
    dual_tol: float = 1e-6
    comp_tol: float = 1e-6
    gap_rel: float = 1e-6
    int_tol: float = INTEGRALITY_TOL
    milp_gap_rel: float = 1e-4
    profit_rel: float = 1e-6


@dataclass
class CertifyContext:
    """Everything the certificate checks may need about one solve.

    The context is built once per certification and caches the shared
    recomputations.  ``solution`` must be an ``OPTIMAL`` solution of
    ``lp`` (callers gate on :attr:`Solution.ok` before certifying);
    dual-side checks degrade gracefully when the backend attached no
    marginals (the own simplex, IPM and B&B solutions carry primal data
    only).
    """

    lp: LinearProgram
    solution: Solution
    #: Integrality mask when the solve was a MILP (enables CT040/041).
    integer_mask: Optional[np.ndarray] = None
    #: Slot problem behind the LP (enables the CT051 profit identity).
    inputs: Optional[SlotInputs] = None
    #: Decoded plan for the solution (enables CT051).
    plan: Optional[DispatchPlan] = None
    thresholds: CertifyThresholds = field(default_factory=CertifyThresholds)

    _x: Optional[np.ndarray] = field(default=None, repr=False)
    _slack_ub: Optional[np.ndarray] = field(default=None, repr=False)
    _reduced_costs: Optional[np.ndarray] = field(default=None, repr=False)
    _built_reduced: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.integer_mask is not None:
            self.integer_mask = np.asarray(
                self.integer_mask, dtype=bool
            ).ravel()

    # ------------------------------------------------------ cached derived

    @property
    def x(self) -> np.ndarray:
        """The solution vector as a float array (never None)."""
        if self._x is None:
            if self.solution.x is None:
                raise ValueError("cannot certify a solution without x")
            self._x = np.asarray(self.solution.x, dtype=float).ravel()
        return self._x

    @property
    def objective_scale(self) -> float:
        """``max(1, |c|_inf)`` — the dual-side tolerance scale."""
        return max(1.0, float(np.abs(self.lp.c).max(initial=0.0)))

    @property
    def has_duals(self) -> bool:
        """True when the dual-side families (CT020..CT031) can run.

        Requires inequality marginals matching the row count, plus
        equality marginals whenever the problem has equality rows (the
        reduced costs need both).  Marginals of the wrong length
        degrade to primal-only certification rather than crashing.
        """
        if self.lp.a_ub is not None:
            y = self.solution.ineq_marginals
            if y is None or np.asarray(y).size != self.lp.a_ub.shape[0]:
                return False
        elif self.solution.ineq_marginals is None:
            return False
        if self.lp.a_eq is not None:
            y_eq = self.solution.eq_marginals
            if y_eq is None or np.asarray(y_eq).size != self.lp.a_eq.shape[0]:
                return False
        return True

    def slack_ub(self) -> Optional[np.ndarray]:
        """``b_ub - A_ub x`` (None when the LP has no inequality rows)."""
        if self.lp.a_ub is None:
            return None
        if self._slack_ub is None:
            self._slack_ub = np.asarray(
                self.lp.b_ub - self.lp.a_ub @ self.x
            ).ravel()
        return self._slack_ub

    def reduced_costs(self) -> Optional[np.ndarray]:
        """``c - A_ub' y - A_eq' y_eq`` (None without dual data).

        In the marginal convention (``y`` is the change of the
        *minimization* objective per unit of rhs), binding ``<=`` rows
        carry ``y <= 0`` and the reduced cost of a variable at its
        lower bound is nonnegative.
        """
        if not self._built_reduced:
            self._built_reduced = True
            if self.has_duals:
                d = self.lp.c.astype(float).copy()
                if self.lp.a_ub is not None:
                    y = np.asarray(
                        self.solution.ineq_marginals, dtype=float
                    ).ravel()
                    d -= np.asarray(self.lp.a_ub.T @ y).ravel()
                if self.lp.a_eq is not None:
                    y_eq = np.asarray(
                        self.solution.eq_marginals, dtype=float
                    ).ravel()
                    d -= np.asarray(self.lp.a_eq.T @ y_eq).ravel()
                self._reduced_costs = d
        return self._reduced_costs


def certify_solution(
    problem: Union[LinearProgram, MixedIntegerProgram],
    solution: Solution,
    inputs: Optional[SlotInputs] = None,
    plan: Optional[DispatchPlan] = None,
    thresholds: Optional[CertifyThresholds] = None,
) -> Report:
    """Independently verify one solve; report, never raise.

    Parameters
    ----------
    problem:
        The LP actually solved, or the MILP when the solve enforced
        integrality (enables the CT040/CT041 incumbent checks).
    solution:
        The solver's answer.  Must carry ``x``; dual-side checks run
        only when the backend attached marginals (HiGHS LP, the sparse
        dual simplex) and are recorded as skipped otherwise.
    inputs:
        The slot problem behind the LP; enables the CT051 profit
        identity (with ``plan``) and the big-M-aware CT041 gap scale.
    plan:
        The decoded :class:`~repro.core.plan.DispatchPlan` for
        ``solution.x`` — pass the plan decoded *before* any
        consolidation/spare-capacity postprocessing, which deliberately
        reshapes profit-neutral structure.
    thresholds:
        Tolerance knobs; defaults to :class:`CertifyThresholds`.

    The report's ``details`` record coverage — ``checked`` (families
    that ran) and ``skipped`` (families that could not run, with the
    reason, e.g. the backend attached no duals) — and the recomputed
    headline numbers (``primal_objective``, worst residuals).
    """
    if isinstance(problem, MixedIntegerProgram):
        lp, integer_mask = problem.lp, problem.integer_mask
    else:
        lp, integer_mask = problem, None
    if solution.x is None:
        finding = Finding(
            code="CT010", severity="error", component="primal.x",
            message=(
                "nothing to certify: solution carries no point "
                f"(status {solution.status.value})"
            ),
        )
        return Report(
            target=SOLUTION,
            findings=[finding],
            details={"checked": [], "skipped": {"all": "no solution vector"}},
        )
    ctx = CertifyContext(
        lp=lp,
        solution=solution,
        integer_mask=integer_mask,
        inputs=inputs,
        plan=plan,
        thresholds=(
            thresholds if thresholds is not None else CertifyThresholds()
        ),
    )
    findings: List[Finding] = []
    checked: List[str] = []
    skipped: Dict[str, str] = {}
    for rule in SOLUTION.rules():
        ran, reason = _family_coverage(rule.name, ctx)
        if ran:
            checked.append(rule.name)
            findings.extend(rule.check(ctx))
        else:
            skipped[rule.name] = reason
    findings.sort(key=lambda f: f.sort_key)

    details: Dict = {"checked": checked, "skipped": skipped}
    details["primal_objective"] = float(lp.c @ ctx.x)
    if solution.objective is not None:
        details["reported_objective"] = float(solution.objective)
    residuals = lp.residuals(ctx.x)
    details["residuals"] = {k: float(v) for k, v in residuals.items()}
    return Report(target=SOLUTION, findings=findings, details=details)


def _family_coverage(name: str, ctx: CertifyContext) -> "tuple[bool, str]":
    """Whether one check family can run on ``ctx`` (and why not)."""
    if name in ("dual-feasibility", "optimality-gap"):
        if not ctx.has_duals:
            return False, "backend attached no dual marginals"
    elif name == "milp-incumbent":
        if ctx.integer_mask is None or not bool(np.any(ctx.integer_mask)):
            return False, "not a MILP solve"
    elif name == "profit-identity":
        if ctx.plan is None or ctx.inputs is None:
            return False, "no decoded plan supplied"
    return True, ""
