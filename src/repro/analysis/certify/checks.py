"""The certificate check families (``CT010`` .. ``CT051``).

Every family independently *recomputes* the quantity it certifies from
the problem data — none of them trusts a solver-reported residual.  The
code space:

* ``CT010``/``CT011`` — primal feasibility (bounds, rows);
* ``CT020``/``CT021`` — dual feasibility, reduced-cost signs;
* ``CT030``/``CT031`` — complementary slackness, relative duality gap;
* ``CT040``/``CT041`` — incumbent integrality, bound-sandwich width;
* ``CT050``/``CT051`` — coupling-row satisfaction after a decomposed
  block accept, and the collapse→expand profit identity.

Dual-side families skip silently when the backend attached no marginals
(the own simplex, IPM, B&B, and presolve-restored solutions are
primal-only); :func:`~repro.analysis.certify.certify.certify_solution`
records the skip in the report details so "clean" is never mistaken for
"fully checked".
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis.certify.certify import CertifyContext
from repro.analysis.engine import Rule, register
from repro.analysis.report import Finding

__all__ = [
    "PrimalCertificateRule",
    "DualCertificateRule",
    "GapCertificateRule",
    "IntegralityCertificateRule",
    "DecompositionCertificateRule",
]


@register
class PrimalCertificateRule(Rule):
    code = "CT010"
    codes = {
        "CT010": "solution violates a variable bound (or is non-finite)",
        "CT011": "solution violates a constraint row",
    }
    name = "primal-feasibility"
    rationale = (
        "A claimed-optimal point must first be a *feasible* point: every "
        "bound and every row recomputed from scratch within the "
        "feasibility tolerance, scaled by the bound/rhs magnitude so "
        "big-M rows and \\$-scale objectives are judged fairly."
    )

    def check(self, ctx: CertifyContext) -> Iterator[Finding]:
        x = ctx.x
        tol = ctx.thresholds.feas_tol
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            yield self.finding(
                "CT010", "error", f"primal.x[{bad}]",
                "solution vector contains a non-finite entry",
            )
            return
        lp = ctx.lp
        lo_viol = lp.lower - x
        hi_viol = x - lp.upper
        lo_lim = tol * np.maximum(
            1.0, np.where(np.isfinite(lp.lower), np.abs(lp.lower), 1.0)
        )
        hi_lim = tol * np.maximum(
            1.0, np.where(np.isfinite(lp.upper), np.abs(lp.upper), 1.0)
        )
        for viol, lim, side in ((lo_viol, lo_lim, "lower"),
                                (hi_viol, hi_lim, "upper")):
            over = viol - lim
            if np.any(over > 0.0):
                j = int(np.argmax(over))
                yield self.finding(
                    "CT010", "error", f"primal.bound[x{j}]",
                    f"{side} bound violated by {viol[j]:.3e} "
                    f"(tolerance {lim[j]:.3e}; "
                    f"{int(np.sum(over > 0.0))} bound(s) total)",
                    violation=float(viol[j]), tolerance=float(lim[j]),
                    count=float(np.sum(over > 0.0)),
                )
        if lp.a_ub is not None:
            slack = ctx.slack_ub()
            lim = tol * np.maximum(1.0, np.abs(lp.b_ub))
            over = -slack - lim
            if np.any(over > 0.0):
                i = int(np.argmax(over))
                yield self.finding(
                    "CT011", "error", f"primal.row[ub:{i}]",
                    f"inequality row exceeded by {-slack[i]:.3e} "
                    f"(tolerance {lim[i]:.3e}; "
                    f"{int(np.sum(over > 0.0))} row(s) total)",
                    violation=float(-slack[i]), tolerance=float(lim[i]),
                    count=float(np.sum(over > 0.0)),
                )
        if lp.a_eq is not None:
            resid = np.abs(np.asarray(lp.a_eq @ x).ravel() - lp.b_eq)
            lim = tol * np.maximum(1.0, np.abs(lp.b_eq))
            over = resid - lim
            if np.any(over > 0.0):
                i = int(np.argmax(over))
                yield self.finding(
                    "CT011", "error", f"primal.row[eq:{i}]",
                    f"equality row off by {resid[i]:.3e} "
                    f"(tolerance {lim[i]:.3e}; "
                    f"{int(np.sum(over > 0.0))} row(s) total)",
                    violation=float(resid[i]), tolerance=float(lim[i]),
                    count=float(np.sum(over > 0.0)),
                )


@register
class DualCertificateRule(Rule):
    code = "CT020"
    codes = {
        "CT020": "dual multiplier has the wrong sign (or is non-finite)",
        "CT021": "reduced cost violates its sign condition",
    }
    name = "dual-feasibility"
    rationale = (
        "In the marginal convention (duals report the change of the "
        "minimization objective per unit of rhs), a binding ``<=`` row "
        "carries y <= 0 and the reduced cost c - A'y must be "
        "nonnegative at a lower bound, nonpositive at an upper bound, "
        "and zero for interior variables.  A sign flip means the "
        "claimed dual certificate proves nothing."
    )

    def check(self, ctx: CertifyContext) -> Iterator[Finding]:
        if not ctx.has_duals:
            return
        scale = ctx.objective_scale
        tol = ctx.thresholds.dual_tol * scale
        y = np.asarray(ctx.solution.ineq_marginals, dtype=float).ravel()
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            yield self.finding(
                "CT020", "error", f"dual.row[ub:{bad}]",
                "inequality marginal is non-finite",
            )
            return
        if np.any(y > tol):
            i = int(np.argmax(y))
            yield self.finding(
                "CT020", "error", f"dual.row[ub:{i}]",
                f"marginal of a <= row is positive ({y[i]:.3e}; "
                f"tolerance {tol:.3e}; "
                f"{int(np.sum(y > tol))} row(s) total)",
                value=float(y[i]), tolerance=tol,
                count=float(np.sum(y > tol)),
            )
        d = ctx.reduced_costs()
        if d is None or not np.all(np.isfinite(d)):
            if d is not None:
                bad = int(np.flatnonzero(~np.isfinite(d))[0])
                yield self.finding(
                    "CT021", "error", f"dual.reduced[x{bad}]",
                    "reduced cost is non-finite",
                )
            return
        x, lp = ctx.x, ctx.lp
        feas = ctx.thresholds.feas_tol
        at_lower = np.isfinite(lp.lower) & (
            x - lp.lower
            <= feas * np.maximum(1.0, np.abs(np.where(
                np.isfinite(lp.lower), lp.lower, 0.0)))
        )
        at_upper = np.isfinite(lp.upper) & (
            lp.upper - x
            <= feas * np.maximum(1.0, np.abs(np.where(
                np.isfinite(lp.upper), lp.upper, 0.0)))
        )
        fixed = at_lower & at_upper
        viol = np.zeros_like(d)
        only_lower = at_lower & ~fixed
        only_upper = at_upper & ~fixed
        interior = ~at_lower & ~at_upper
        viol[only_lower] = np.maximum(0.0, -d[only_lower] - tol)
        viol[only_upper] = np.maximum(0.0, d[only_upper] - tol)
        viol[interior] = np.maximum(0.0, np.abs(d[interior]) - tol)
        if np.any(viol > 0.0):
            j = int(np.argmax(viol))
            kind = ("at lower bound" if only_lower[j]
                    else "at upper bound" if only_upper[j] else "interior")
            yield self.finding(
                "CT021", "error", f"dual.reduced[x{j}]",
                f"reduced cost {d[j]:.3e} violates the sign condition "
                f"for a variable {kind} (tolerance {tol:.3e}; "
                f"{int(np.sum(viol > 0.0))} variable(s) total)",
                reduced_cost=float(d[j]), tolerance=tol,
                count=float(np.sum(viol > 0.0)),
            )


@register
class GapCertificateRule(Rule):
    code = "CT030"
    codes = {
        "CT030": "complementary slackness violated on a row",
        "CT031": "relative primal-dual gap exceeds the gate",
    }
    name = "optimality-gap"
    rationale = (
        "Strong duality certifies optimality: a slack row must carry a "
        "zero multiplier, and the dual objective recomputed from the "
        "multipliers and bound terms must match the reported primal "
        "objective to the relative gap gate.  This is the check that "
        "catches a corrupted objective value even when the point itself "
        "is feasible."
    )

    def check(self, ctx: CertifyContext) -> Iterator[Finding]:
        if not ctx.has_duals:
            return
        lp = ctx.lp
        scale = ctx.objective_scale
        th = ctx.thresholds
        y = np.asarray(ctx.solution.ineq_marginals, dtype=float).ravel()
        if not np.all(np.isfinite(y)):
            return  # CT020 reports it
        slack = ctx.slack_ub()
        if slack is not None:
            slack_lim = th.comp_tol * np.maximum(1.0, np.abs(lp.b_ub))
            mult_lim = th.comp_tol * scale
            bad = (slack > slack_lim) & (np.abs(y) > mult_lim)
            if np.any(bad):
                prod = np.where(bad, slack * np.abs(y), 0.0)
                i = int(np.argmax(prod))
                yield self.finding(
                    "CT030", "error", f"gap.row[ub:{i}]",
                    f"row has slack {slack[i]:.3e} and multiplier "
                    f"{y[i]:.3e} at once ({int(bad.sum())} row(s) total)",
                    slack=float(slack[i]), multiplier=float(y[i]),
                    count=float(bad.sum()),
                )
        d = ctx.reduced_costs()
        if d is None or not np.all(np.isfinite(d)):
            return  # CT021 reports it
        tol = th.dual_tol * scale
        dual_obj = float(y @ lp.b_ub) if lp.a_ub is not None else 0.0
        if lp.a_eq is not None:
            y_eq = np.asarray(
                ctx.solution.eq_marginals, dtype=float
            ).ravel()
            if not np.all(np.isfinite(y_eq)):
                return
            dual_obj += float(y_eq @ lp.b_eq)
        # Bound terms of the dual objective; sub-tolerance reduced costs
        # are clamped to zero so inf bounds never produce inf * 0.
        pos = d > tol
        neg = d < -tol
        bounds_used = np.where(pos, lp.lower, np.where(neg, lp.upper, 0.0))
        active = pos | neg
        if np.any(active & ~np.isfinite(bounds_used)):
            return  # dual-infeasible direction: CT021 reports the sign
        contrib = np.where(active, d * bounds_used, 0.0)
        dual_obj += float(contrib.sum())
        primal = (
            float(ctx.solution.objective)
            if ctx.solution.objective is not None
            else float(lp.c @ ctx.x)
        )
        gap = abs(primal - dual_obj) / (1.0 + abs(primal))
        if gap > th.gap_rel:
            yield self.finding(
                "CT031", "error", "gap.objective",
                f"relative primal-dual gap {gap:.3e} exceeds "
                f"{th.gap_rel:.1e} (primal {primal:.6e}, "
                f"dual {dual_obj:.6e})",
                gap=gap, primal=primal, dual=dual_obj,
            )


@register
class IntegralityCertificateRule(Rule):
    code = "CT040"
    codes = {
        "CT040": "MILP incumbent has a fractional integer variable",
        "CT041": "branch-and-bound bound sandwich is loose or impossible",
    }
    name = "milp-incumbent"
    rationale = (
        "A MILP incumbent must actually be integral, and its objective "
        "must sit inside the proven bound sandwich.  The gap gate "
        "scales with the big-M recommended for the slot's TUFs, since "
        "multilevel objectives are O(big) and an absolute gate would "
        "either always or never fire."
    )

    def check(self, ctx: CertifyContext) -> Iterator[Finding]:
        if ctx.integer_mask is None or not np.any(ctx.integer_mask):
            return
        x = ctx.x
        th = ctx.thresholds
        idx = np.flatnonzero(ctx.integer_mask)
        frac = np.abs(x[idx] - np.round(x[idx]))
        if np.any(frac > th.int_tol):
            worst = int(np.argmax(frac))
            j = int(idx[worst])
            yield self.finding(
                "CT040", "error", f"milp.integer[x{j}]",
                f"integer variable is {x[j]:.6f} "
                f"({frac[worst]:.3e} from integral; "
                f"{int(np.sum(frac > th.int_tol))} variable(s) total)",
                value=float(x[j]), fractional=float(frac[worst]),
                count=float(np.sum(frac > th.int_tol)),
            )
        objective = (
            abs(float(ctx.solution.objective))
            if ctx.solution.objective is not None else 0.0
        )
        scale = max(1.0, objective, self._recommended_big(ctx))
        gap = float(ctx.solution.gap)
        if gap < -th.feas_tol * scale:
            yield self.finding(
                "CT041", "error", "milp.gap",
                f"bound sandwich is impossible: incumbent sits "
                f"{-gap:.3e} below the proven bound",
                gap=gap, scale=scale,
            )
        elif gap > th.milp_gap_rel * scale:
            yield self.finding(
                "CT041", "warning", "milp.gap",
                f"bound sandwich width {gap:.3e} exceeds "
                f"{th.milp_gap_rel:.1e} x scale {scale:.3e}",
                gap=gap, scale=scale,
            )

    @staticmethod
    def _recommended_big(ctx: CertifyContext) -> float:
        """Worst tightened big-M over the slot's multilevel TUFs."""
        if ctx.inputs is None:
            return 0.0
        from repro.analysis.model.bigm import recommended_big

        worst = 0.0
        for rc in ctx.inputs.topology.request_classes:
            if rc.tuf.num_levels > 1:
                worst = max(worst, float(recommended_big(
                    rc.tuf.values, rc.tuf.deadlines
                )))
        return worst


@register
class DecompositionCertificateRule(Rule):
    code = "CT050"
    codes = {
        "CT050": "coupling row violated after decomposed block accept",
        "CT051": "decoded plan's profit disagrees with the objective",
    }
    name = "decomposition-invariants"
    rationale = (
        "The sparse path solves per-class blocks and accepts the "
        "concatenation only if the shared capacity rows still hold; the "
        "symmetric collapse is only valid if expanding the aggregated "
        "solution back to per-server rates reproduces the objective as "
        "net profit.  Both invariants are recomputed here end to end."
    )

    def check(self, ctx: CertifyContext) -> Iterator[Finding]:
        lp = ctx.lp
        th = ctx.thresholds
        if ctx.coupling_rows is not None and lp.a_ub is not None:
            rows = ctx.coupling_rows
            slack = ctx.slack_ub()[rows]
            lim = th.feas_tol * np.maximum(1.0, np.abs(lp.b_ub[rows]))
            over = -slack - lim
            if np.any(over > 0.0):
                w = int(np.argmax(over))
                yield self.finding(
                    "CT050", "error", f"decomp.coupling[{int(rows[w])}]",
                    f"coupling row exceeded by {-slack[w]:.3e} after "
                    f"block accept (tolerance {lim[w]:.3e}; "
                    f"{int(np.sum(over > 0.0))} row(s) total)",
                    violation=float(-slack[w]), tolerance=float(lim[w]),
                    count=float(np.sum(over > 0.0)),
                )
        if ctx.plan is None or ctx.inputs is None:
            return
        if ctx.solution.objective is None:
            return
        from repro.core.objective import evaluate_plan

        try:
            breakdown = evaluate_plan(
                ctx.plan,
                ctx.inputs.arrivals,
                ctx.inputs.prices,
                slot_duration=ctx.inputs.slot_duration,
                apply_pue=ctx.inputs.apply_pue,
            )
        except ValueError as exc:
            yield self.finding(
                "CT051", "error", "decomp.profit",
                f"decoded plan is not scoreable: {exc}",
            )
            return
        recomputed = float(breakdown.net_profit)
        claimed = -float(ctx.solution.objective)
        lim = th.profit_rel * max(1.0, abs(recomputed), abs(claimed))
        if recomputed < claimed - lim:
            yield self.finding(
                "CT051", "error", "decomp.profit",
                f"recomputed net profit {recomputed:.6e} falls short of "
                f"the objective {claimed:.6e} "
                f"(shortfall {claimed - recomputed:.3e} > {lim:.3e})",
                recomputed=recomputed, claimed=claimed,
                tolerance=lim,
            )
        elif recomputed > claimed + lim:
            # Step TUFs earn the band the *realized* delay lands in, so
            # a plan with slack on a delay row can legitimately beat the
            # level the objective targeted — report, don't gate.
            yield self.finding(
                "CT051", "info", "decomp.profit",
                f"recomputed net profit {recomputed:.6e} beats the "
                f"objective {claimed:.6e} (realized delays land in a "
                f"better utility band)",
                recomputed=recomputed, claimed=claimed,
                tolerance=lim,
            )
