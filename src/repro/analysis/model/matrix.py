"""Pass family 3: constraint-matrix diagnostics (MD030-MD036).

Pure-reporting counterparts of an LP presolve's reductions, plus
scaling diagnostics: per-row and per-column log10 coefficient spread
(ill-scaling is the classic failure mode of big-M formulations — see
pass family 1), duplicate rows, and interval-arithmetic certificates.
Where a presolve would *remove* an empty or redundant row, this pass
*reports* it, because a production builder emitting removable rows is
itself a finding about the formulation.

All checks operate on a plain :class:`~repro.solvers.base.LinearProgram`
so tests can feed synthetic programs directly; the registered rule runs
them over the slot's LP (with human-readable row/variable labels derived
from the topology) and, when present, the MILP relaxation.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.analysis.engine import Rule, register
from repro.analysis.model.audit import AuditContext
from repro.analysis.report import Finding
from repro.cloud.topology import CloudTopology
from repro.solvers.base import LinearProgram

__all__ = [
    "analyze_program",
    "matrix_details",
    "lp_row_labels",
    "lp_var_labels",
    "MatrixDiagnosticsRule",
]

#: Coefficients below this magnitude count as structural zeros.
_ZERO_TOL = 1e-12


def lp_row_labels(topology: CloudTopology) -> List[str]:
    """Human-readable labels for the aggregated fixed-level LP's rows.

    Mirrors the documented :class:`repro.core.formulation.FixedLevelLPCache`
    row layout: delay rows (class-major), share-budget rows, arrival-cap
    rows.
    """
    labels = []
    for rc in topology.request_classes:
        for dc in topology.datacenters:
            labels.append(f"delay:{rc.name}@{dc.name}")
    for dc in topology.datacenters:
        labels.append(f"share:{dc.name}")
    for rc in topology.request_classes:
        for fe in topology.frontends:
            labels.append(f"arrival:{rc.name}@{fe.name}")
    return labels


def lp_var_labels(topology: CloudTopology) -> List[str]:
    """Labels for the aggregated LP's variables: lam block then Phi block."""
    labels = []
    for rc in topology.request_classes:
        for fe in topology.frontends:
            for dc in topology.datacenters:
                labels.append(f"lam[{rc.name},{fe.name},{dc.name}]")
    for rc in topology.request_classes:
        for dc in topology.datacenters:
            labels.append(f"phi[{rc.name},{dc.name}]")
    return labels


def _canonical_csr(a: object) -> "_sp.csr_matrix":
    """``a`` as CSR with sub-tolerance entries dropped.

    Dense and sparse inputs land on the same canonical structure, so
    every check below runs over the nonzeros only — on an 1800-server
    per-server LP that is ~5e4 entries instead of the ~2e8 cells the
    old dense row/column loops visited.
    """
    mat = a.tocsr(copy=True) if _sp.issparse(a) else _sp.csr_matrix(a)
    mat.data = np.where(np.abs(mat.data) > _ZERO_TOL, mat.data, 0.0)
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _segment_spreads(
    indptr: np.ndarray, data: np.ndarray, size: int
) -> np.ndarray:
    """Per-segment log10 magnitude spread of a CSR/CSC axis.

    ``indptr`` delimits ``size`` segments over ``data``; segments with
    fewer than two nonzeros spread 0 decades.
    Empty segments are safe for ``reduceat`` because they have zero
    width in ``indptr``: reducing only at the non-empty starts makes
    each reduction end exactly at its segment's end.
    """
    counts = np.diff(indptr)
    spreads = np.zeros(size)
    nonempty = counts > 0
    if not np.any(nonempty):
        return spreads
    mags = np.abs(data)
    starts = indptr[:-1][nonempty]
    seg_max = np.maximum.reduceat(mags, starts)
    seg_min = np.minimum.reduceat(mags, starts)
    multi = nonempty.copy()
    multi[nonempty] = counts[nonempty] >= 2
    with np.errstate(divide="ignore"):
        spreads[multi] = (
            np.log10(seg_max[counts[nonempty] >= 2])
            - np.log10(seg_min[counts[nonempty] >= 2])
        )
    return spreads


def _interval_bounds(
    mat: "_sp.csr_matrix", lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row worst/best-case lhs under the variable bounds.

    The split-by-sign products only touch stored entries, so an
    infinite bound on a variable a row never uses cannot poison that
    row (and ``0 * inf`` never occurs).
    """
    pos = mat.maximum(0.0)
    neg = mat.minimum(0.0)
    with np.errstate(invalid="ignore"):
        worst = pos @ hi + neg @ lo
        best = pos @ lo + neg @ hi
    return np.asarray(worst).ravel(), np.asarray(best).ravel()


def analyze_program(
    lp: LinearProgram,
    prefix: str,
    make: Callable[..., Finding],
    row_decades_limit: float = 6.0,
    row_labels: Optional[List[str]] = None,
    var_labels: Optional[List[str]] = None,
) -> Iterator[Finding]:
    """Run MD030-MD036 over one program; ``make`` builds the findings.

    ``make`` is :meth:`Rule.finding` (kept injectable so the checks
    stay importable without the registry).  Labels default to positional
    ``row[i]`` / ``x[j]`` names.
    """
    n = lp.num_variables

    def row_name(r: int) -> str:
        if row_labels is not None and r < len(row_labels):
            return f"{prefix}.row[{row_labels[r]}]"
        return f"{prefix}.row[{r}]"

    def var_name(j: int) -> str:
        if var_labels is not None and j < len(var_labels):
            return f"{prefix}.var[{var_labels[j]}]"
        return f"{prefix}.var[{j}]"

    # ---- variable bounds: MD035 (error) and MD034 (info) ----------------
    for j in range(n):
        lo, hi = float(lp.lower[j]), float(lp.upper[j])
        if lo > hi:
            yield make(
                "MD035", "error", var_name(j),
                f"lower bound {lo:g} exceeds upper bound {hi:g}: the "
                "program is trivially infeasible",
                lower=lo, upper=hi,
            )
        elif lo == hi and np.isfinite(lo):
            yield make(
                "MD034", "info", var_name(j),
                f"variable is fixed at {lo:g} by its bounds; presolve "
                "will eliminate it",
                value=lo,
            )

    if lp.a_ub is None:
        return
    b = np.asarray(lp.b_ub, dtype=float)
    lo_b, hi_b = lp.lower, lp.upper

    # All structural work happens once over the CSR nonzeros: spreads
    # by segment reduction, interval bounds by sign-split matvecs, and
    # duplicates by canonical (indices, data) keys — nothing below ever
    # materializes a dense row or column.
    mat = _canonical_csr(lp.a_ub)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    row_nnz = np.diff(indptr)
    row_spreads = _segment_spreads(indptr, data, mat.shape[0])
    worst_lhs, best_lhs = _interval_bounds(mat, lo_b, hi_b)

    # ---- per-row checks --------------------------------------------------
    seen: dict = {}
    for r in range(mat.shape[0]):
        if row_nnz[r] == 0:
            if b[r] < -1e-9:
                yield make(
                    "MD036", "error", row_name(r),
                    f"empty row demands 0 <= {b[r]:g}: infeasibility "
                    "certificate",
                    rhs=float(b[r]),
                )
            else:
                yield make(
                    "MD032", "warning", row_name(r),
                    "row has no nonzero coefficients; the builder "
                    "emitted a vacuous constraint",
                    rhs=float(b[r]),
                )
            continue

        spread = float(row_spreads[r])
        if spread > row_decades_limit:
            yield make(
                "MD030", "warning", row_name(r),
                f"coefficient magnitudes span {spread:.2f} decades "
                f"(limit {row_decades_limit:g}): the row is ill-scaled "
                "and solver tolerances lose the small coefficients",
                decades=spread,
            )

        lo_r, hi_r = indptr[r], indptr[r + 1]
        key = (indices[lo_r:hi_r].tobytes(), data[lo_r:hi_r].tobytes())
        if key in seen:
            other = seen[key]
            yield make(
                "MD031", "warning", row_name(r),
                f"row duplicates {row_name(other)} (rhs {b[other]:g} vs "
                f"{b[r]:g}); the looser copy is dead weight",
                other_row=float(other), rhs=float(b[r]),
            )
        else:
            seen[key] = r

        # Interval arithmetic over the variable bounds.
        worst, best = float(worst_lhs[r]), float(best_lhs[r])
        if np.isfinite(worst) and worst <= b[r] + 1e-12:
            yield make(
                "MD033", "info", row_name(r),
                f"row is redundant: worst-case lhs {worst:g} cannot "
                f"exceed rhs {b[r]:g} under the variable bounds",
                worst=worst, rhs=float(b[r]),
            )
        if np.isfinite(best) and best > b[r] + 1e-9:
            yield make(
                "MD036", "error", row_name(r),
                f"row is unsatisfiable: best-case lhs {best:g} already "
                f"exceeds rhs {b[r]:g} under the variable bounds",
                best=best, rhs=float(b[r]),
            )

    # ---- per-column scaling ---------------------------------------------
    csc = mat.tocsc()
    col_spreads = _segment_spreads(csc.indptr, csc.data, n)
    for j in np.nonzero(col_spreads > row_decades_limit)[0]:
        yield make(
            "MD030", "warning", var_name(int(j)),
            f"column coefficient magnitudes span {col_spreads[j]:.2f} "
            f"decades (limit {row_decades_limit:g}): consider "
            "rescaling the variable",
            decades=float(col_spreads[j]),
        )


def matrix_details(lp: LinearProgram) -> dict:
    """Scaling summary for the report's ``details`` block (floats only)."""
    if lp.a_ub is None:
        return {}
    mat = _canonical_csr(lp.a_ub)
    mags = np.abs(mat.data)
    if mags.size == 0:
        return {}
    return {
        "coeff_min": float(mags.min()),
        "coeff_max": float(mags.max()),
        "coeff_decades": float(np.log10(mags.max()) - np.log10(mags.min())),
        "rows": float(mat.shape[0]),
        "columns": float(lp.num_variables),
    }


@register
class MatrixDiagnosticsRule(Rule):
    """MD030-MD036 — scaling, structure, and certificate checks."""

    code = "MD030"
    codes = {
        "MD030": "row/column coefficient spread beyond the decade limit",
        "MD031": "duplicate constraint rows",
        "MD032": "empty (vacuous) constraint row",
        "MD033": "redundant row under interval arithmetic",
        "MD034": "variable fixed by its bounds",
        "MD035": "lower bound exceeds upper bound",
        "MD036": "row infeasibility certificate",
    }
    name = "matrix-diagnostics"
    rationale = (
        "The slot LP mixes unit coefficients with C*mu terms of order "
        "1e4-1e5 and deadline reserves of order M/D; a row spanning too "
        "many decades, a duplicated or vacuous row, or a bound-level "
        "infeasibility certificate all point at builder bugs or "
        "degenerate topologies that a solver would either grind on or "
        "mask with a generic 'infeasible' verdict. Mirrors an LP "
        "presolve's reductions as pure reporting."
    )

    def check(self, ctx: AuditContext) -> Iterator[Finding]:
        limit = ctx.thresholds.row_decades_limit
        lp = ctx.lp()
        if lp is not None:
            yield from analyze_program(
                lp, "lp", self.finding,
                row_decades_limit=limit,
                row_labels=lp_row_labels(ctx.topology),
                var_labels=lp_var_labels(ctx.topology),
            )
        milp = ctx.milp()
        if milp is not None:
            yield from analyze_program(
                milp.lp, "milp", self.finding,
                row_decades_limit=limit,
            )
