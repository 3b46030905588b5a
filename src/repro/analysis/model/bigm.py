"""Pass family 1: big-M tightness (paper Eqs. 11-13/16-26).

The paper's constraint series replaces the step-downward TUF's
``if/else`` with rows of the form ``f(R) + BIG * g(U) <= 0``.  ``BIG``
must be *at least* the data-driven minimum — otherwise a TUF-feasible
``(delay, level)`` combination violates a row and the formulation
silently forfeits whole utility levels — but every factor above that
minimum widens the coefficient range the nonlinear solver has to
balance against deadline residuals of order ``1e-4`` hours.  This pass
computes the minimal sufficient ``BIG`` per constraint row from the
actual level values and sub-deadlines, compares the configured constant
against it, and exposes the tightened values for builders to adopt
(:func:`recommended_big`).

The MILP path linearizes the bilinear revenue with McCormick envelopes
``y <= Lambda_max * z`` instead of a free ``BIG``; its bound is audited
the same way against the *deadline-aware* load bound
(:func:`tight_lambda_bound`), since a bound above what any feasible
dispatch can reach only degrades LP-relaxation strength and scaling.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.analysis.engine import Rule, register
from repro.analysis.model.audit import AuditContext
from repro.analysis.report import Finding
from repro.core.bigm import bigm_constraint_series

__all__ = [
    "minimal_big_for_series",
    "recommended_big",
    "tight_lambda_bound",
    "BigMTightnessRule",
    "McCormickEnvelopeRule",
]

#: Safety factor applied on top of the data-driven minimum by
#: :func:`recommended_big` — one order of magnitude of slack keeps the
#: constant robust to small data perturbations without re-opening the
#: conditioning gap the audit exists to close.
RECOMMENDED_SAFETY = 10.0


def _level_bands(deadlines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-level delay bands ``(lo, hi]`` of a step-downward TUF.

    Level ``q`` (0-based) is achieved for delays in
    ``(D_{q-1}, D_q]`` with ``D_{-1} = 0``.  Returns float64 arrays.
    """
    hi = np.asarray(deadlines, dtype=float)
    lo = np.concatenate([[0.0], hi[:-1]])
    return lo, hi


def minimal_big_for_series(
    values: "np.ndarray | list",
    deadlines: "np.ndarray | list",
    delta: float = 1e-9,
) -> np.ndarray:
    """Data-driven minimal ``BIG`` per Eq. 11-13 row of one TUF.

    For each row ``f(R) + BIG*g(U) <= 0`` of
    :func:`repro.core.bigm.bigm_constraint_series` and each TUF-feasible
    ``(R, U_q)`` combination, feasibility needs
    ``BIG >= f(R) / (-g(U_q))`` whenever ``g(U_q) < 0`` (rows with
    ``g(U_q) >= 0`` either do not constrain the combo or exclude it by
    design, independent of ``BIG``).  ``f`` is affine in ``R``, so the
    worst case over a level's delay band sits at a band endpoint.

    Returns the per-row minima as a float64 array (empty for one-level
    TUFs, whose series is a plain deadline constraint without ``BIG``).
    """
    values_arr = np.asarray(values, dtype=float)
    deadlines_arr = np.asarray(deadlines, dtype=float)
    n = values_arr.size
    if n <= 1:
        return np.empty(0)
    # Recover f and g numerically: with BIG=0 a row evaluates to f(R);
    # the BIG=1 evaluation adds exactly g(U).
    series_f = bigm_constraint_series(
        values_arr, deadlines_arr, big=0.0, delta=delta
    )
    series_fg = bigm_constraint_series(
        values_arr, deadlines_arr, big=1.0, delta=delta
    )
    lo, hi = _level_bands(deadlines_arr)
    minima = np.zeros(len(series_f))
    for i, (f_row, fg_row) in enumerate(zip(series_f, series_fg)):
        required = 0.0
        for q in range(n):
            u = float(values_arr[q])
            g = fg_row(0.0, u) - f_row(0.0, u)
            if g >= -1e-15:
                continue
            # Worst feasible delay for a level sits at a band endpoint
            # (f is affine in R).  The open lower endpoint is approached
            # within delta, the paper's time resolution.
            f_worst = max(
                f_row(float(lo[q]) + delta, u), f_row(float(hi[q]), u)
            )
            if f_worst > 0.0:
                required = max(required, f_worst / -g)
        minima[i] = required
    return minima


def recommended_big(
    values: "np.ndarray | list",
    deadlines: "np.ndarray | list",
    delta: float = 1e-9,
    safety: float = RECOMMENDED_SAFETY,
) -> float:
    """Tightened ``BIG`` for one TUF: data-driven minimum x ``safety``.

    This is the value the audit suggests builders adopt in place of a
    static constant; ``repro.core.bigm.solve_slot_bigm(big=None)``
    computes it per request class.
    """
    minima = minimal_big_for_series(values, deadlines, delta=delta)
    if minima.size == 0:
        return 0.0
    return float(minima.max() * safety)


def tight_lambda_bound(ctx: AuditContext) -> np.ndarray:
    """``(K, L)`` deadline-aware upper bounds on per-DC class loads.

    The production builder bounds the McCormick product with
    ``min(offered, M*C*mu)`` (raw capacity).  No feasible dispatch can
    exceed the *deadline-aware* capacity ``M*(C*mu - 1/D_k)`` implied by
    the delay constraint at full share, so that is the tight envelope.
    Entries are clipped at zero (a class unreachable at a data center
    contributes no feasible load).  dtype float64.
    """
    topo = ctx.inputs.topology
    offered = ctx.inputs.arrivals.sum(axis=1)  # (K,)
    mu = topo.service_rates  # (K, L)
    cap = topo.server_capacities  # (L,)
    servers = topo.servers_per_datacenter.astype(float)  # (L,)
    deadlines = ctx.effective_deadlines()  # (K,)
    safe = servers[None, :] * (
        mu * cap[None, :] - 1.0 / deadlines[:, None]
    )
    return np.minimum(offered[:, None], np.clip(safe, 0.0, None))


@register
class BigMTightnessRule(Rule):
    """MD010/MD011 — configured big-M vs. the data-driven minimum."""

    code = "MD010"
    codes = {
        "MD010": "big-M constant loose beyond the configured ratio",
        "MD011": "big-M constant below the data-driven minimum",
    }
    name = "bigm-tightness"
    rationale = (
        "The Eq. 11-13 rows hold iff U equals the TUF level at delay R "
        "*provided* BIG clears the data-driven minimum "
        "max f(R)/(-g(U)) over feasible (R, U) pairs. Below it, "
        "legitimate levels become infeasible and revenue silently "
        "vanishes; far above it, the penalty/SLSQP solve balances "
        "O(BIG) level terms against O(1e-4 h) deadline residuals and "
        "loses the deadline digits. Audit both directions and surface "
        "the tightened constant."
    )

    def check(self, ctx: AuditContext) -> Iterator[Finding]:
        limit = ctx.thresholds.bigm_ratio_limit
        for rc in ctx.inputs.topology.request_classes:
            tuf = rc.tuf
            if tuf.num_levels <= 1:
                continue
            minima = minimal_big_for_series(
                tuf.values, tuf.deadlines, delta=ctx.delta
            )
            minimal = float(minima.max())
            component = f"bigm[{rc.name}]"
            if minimal <= 0.0:
                continue
            if ctx.big < minimal:
                yield self.finding(
                    "MD011", "error", component,
                    f"big-M {ctx.big:g} is below the data-driven minimum "
                    f"{minimal:g}: TUF-feasible (delay, level) pairs "
                    "violate the Eq. 11-13 series and whole utility "
                    "levels are silently cut; raise BIG to at least "
                    f"{recommended_big(tuf.values, tuf.deadlines, ctx.delta):g}",
                    configured=ctx.big, minimal=minimal,
                    recommended=recommended_big(
                        tuf.values, tuf.deadlines, ctx.delta
                    ),
                )
            elif ctx.big > limit * minimal:
                yield self.finding(
                    "MD010", "warning", component,
                    f"big-M {ctx.big:g} is {ctx.big / minimal:.3g}x the "
                    f"data-driven minimum {minimal:g} (limit "
                    f"{limit:g}x): the constraint series mixes O(BIG) "
                    "and O(deadline) magnitudes, a numerical trap for "
                    "the penalty solve; tighten to "
                    f"{recommended_big(tuf.values, tuf.deadlines, ctx.delta):g}",
                    configured=ctx.big, minimal=minimal, ratio=ctx.big / minimal,
                    recommended=recommended_big(
                        tuf.values, tuf.deadlines, ctx.delta
                    ),
                )

    def tightened(self, ctx: AuditContext) -> Dict[str, float]:
        """Per-class tightened BIG values for the report's details."""
        out: Dict[str, float] = {}
        for rc in ctx.inputs.topology.request_classes:
            if rc.tuf.num_levels > 1:
                out[rc.name] = recommended_big(
                    rc.tuf.values, rc.tuf.deadlines, ctx.delta
                )
        return out


@register
class McCormickEnvelopeRule(Rule):
    """MD012/MD013 — MILP McCormick bounds vs. the tight load bound."""

    code = "MD012"
    codes = {
        "MD012": "McCormick envelope bound loose beyond the ratio",
        "MD013": "McCormick envelope bound cuts attainable load",
    }
    name = "mccormick-envelope"
    rationale = (
        "The exact linearization y = z * Lambda is only as strong as "
        "its bound: y <= Lambda_max * z with Lambda_max above every "
        "attainable load weakens the LP relaxation (more B&B nodes) "
        "and stretches the coefficient range; Lambda_max *below* the "
        "attainable load truncates feasible dispatch mass and the MILP "
        "silently under-serves. Compare the builder's bound against "
        "the deadline-aware capacity min(offered, M*(C*mu - 1/D))."
    )

    def check(self, ctx: AuditContext) -> Iterator[Finding]:
        if not ctx.multilevel:
            return
        topo = ctx.inputs.topology
        configured = ctx.inputs.lambda_max()  # what the builder installs
        tight = tight_lambda_bound(ctx)
        limit = ctx.thresholds.mccormick_ratio_limit
        for k, rc in enumerate(topo.request_classes):
            if rc.tuf.num_levels <= 1:
                continue
            for l, dc in enumerate(topo.datacenters):
                component = f"mccormick[{rc.name}@{dc.name}]"
                got = float(configured[k, l])
                want = float(tight[k, l])
                if got < want * (1.0 - 1e-12):
                    yield self.finding(
                        "MD013", "error", component,
                        f"envelope bound {got:g} is below the attainable "
                        f"load {want:g}: feasible dispatch mass is "
                        "truncated and the MILP under-serves this class",
                        configured=got, tight=want,
                    )
                elif want > 0.0 and got > limit * want:
                    yield self.finding(
                        "MD012", "warning", component,
                        f"envelope bound {got:g} is {got / want:.3g}x the "
                        f"tight deadline-aware bound {want:g} (limit "
                        f"{limit:g}x): the LP relaxation is needlessly "
                        "weak; tighten Lambda_max toward the deadline-"
                        "aware capacity",
                        configured=got, tight=want, ratio=got / want,
                    )
