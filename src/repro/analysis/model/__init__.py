"""Formulation auditor: the problem target (``MD0xx``) of the analysis
engine.

Where :mod:`repro.analysis.rules` reads *source code*, this package
reads a built :class:`~repro.core.formulation.SlotInputs` / LP / MILP
and reports — never raises, never solves — on an ``MD0xx`` code space:

* **MD010-MD013** (:mod:`.bigm`) — big-M and McCormick tightness
  against the data-driven minima, with tightened constants exposed;
* **MD020-MD021** (:mod:`.units`) — dimensional homogeneity of every
  objective/constraint family under the quantity unit registry;
* **MD030-MD036** (:mod:`.matrix`) — coefficient scaling, duplicate/
  empty/redundant rows, bound and row infeasibility certificates;
* **MD040-MD045** (:mod:`.feasibility`) — solve-free feasibility and
  right-sizing pre-checks (deadline achievability, capacity vs.
  arrivals).

Entry points: :func:`audit_slot` (programmatic), ``repro audit`` (CLI;
:mod:`repro.analysis.cli`), and ``OptimizerConfig(audit="warn"|"error")``
(per-slot hook in ``plan_slot``).  Importing the package registers
every pass.
"""

from repro.analysis.model.audit import AuditContext, AuditThresholds, audit_slot
from repro.analysis.model.bigm import minimal_big_for_series, recommended_big
from repro.analysis.model.feasibility import (  # noqa: F401 - registration
    FeasibilityRule,
)
from repro.analysis.model.matrix import analyze_program
from repro.analysis.model.units import Unit

# Dropped from this surface (AR030 dead exports): tight_lambda_bound,
# check_homogeneity, default_unit_registry, formulation_term_table —
# still importable from their defining modules for interactive use.
__all__ = [
    "AuditContext",
    "AuditThresholds",
    "Unit",
    "analyze_program",
    "audit_slot",
    "minimal_big_for_series",
    "recommended_big",
]
