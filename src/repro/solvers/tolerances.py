"""Central numerical-tolerance constants for the solver stack.

Every magnitude below was previously a scattered literal (``1e-6`` here,
``1e-9`` there) in the solver and formulation modules.  Collecting them
in one leaf module (no imports beyond the stdlib) does three things:

* the *same* feasibility/optimality semantics are applied everywhere —
  a solution accepted by one backend is not rejected by another over a
  differing hardcoded epsilon;
* the certificate verifier (:mod:`repro.analysis.certify`) can check
  solutions against the exact tolerances the solvers promised, instead
  of re-guessing magnitudes;
* reprolint rule RP009 can flag any *new* hardcoded tolerance literal
  compared or added in ``solvers/``/``core/`` outside this module, so
  the extraction cannot silently regress.

The names encode intent, not just magnitude — two constants may share a
value (``FEASIBILITY_TOL`` and ``INTEGRALITY_TOL`` are both ``1e-6``)
yet must stay independently tunable.
"""

from __future__ import annotations

__all__ = [
    "FEASIBILITY_TOL",
    "INTEGRALITY_TOL",
    "OPTIMALITY_TOL",
    "WARM_BASIS_TOL",
    "ZERO_TOL",
    "PIVOT_TOL",
    "STRICT_TOL",
]

#: Constraint-satisfaction tolerance: the scaled violation up to which a
#: point still counts as feasible (``LinearProgram.is_feasible``, the
#: simplex phase-1 optimum check, plan share/deadline validation).
FEASIBILITY_TOL = 1e-6

#: How far from the nearest integer a value may sit and still count as
#: integral (branch & bound incumbents, MILP bound tightening).
INTEGRALITY_TOL = 1e-6

#: Reduced-cost / complementarity target of the iterative solvers (the
#: primal simplex pricing tolerance, the IPM convergence criterion, the
#: dual simplex's primal-violation stopping threshold).
OPTIMALITY_TOL = 1e-8

#: Slack allowed when revalidating a warm-started basis against new slot
#: data (primal feasibility of the reused basis, artificial pivot
#: detection).  Deliberately looser than ``ZERO_TOL``: a marginally
#: stale basis is still a better seed than a cold start.
WARM_BASIS_TOL = 1e-7

#: General numerical zero for pivot-eligibility tests, tie-breaking,
#: and bound nudges before ceil/floor.
ZERO_TOL = 1e-9

#: Below this magnitude a pivot element is treated as vanished and the
#: basis exchange is refused (dual simplex).
PIVOT_TOL = 1e-10

#: Strictest tolerance: B&B pruning slack, greedy-search improvement
#: threshold, right-sizing's active-load test.  Close to float64
#: round-off at the library's typical problem scales.
STRICT_TOL = 1e-12
