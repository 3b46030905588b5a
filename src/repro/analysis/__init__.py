"""Domain-aware analysis for this codebase: one engine, four targets.

The paper's profit numbers rest on numerically delicate machinery —
big-M step-TUF constraints (Eqs. 11-16), M/M/1 stability boundaries
(Eq. 1), and per-slot re-solves — where a float-equality check, an
unseeded RNG, a loose big-M or an unverified solve corrupts results
*silently* instead of crashing.  This package is the correctness
tooling that keeps those bug classes out, as one rule engine over four
targets (see :mod:`repro.analysis.engine`):

* ``RP0xx`` — the *source* (``repro lint``): :mod:`.rules`, run by
  :mod:`.runner` (``lint_paths`` / ``lint_source``) with inline
  ``# reprolint: disable=...`` directives (:mod:`.suppression`);
* ``AR0xx`` — the *import tree* (``repro arch``): :mod:`.arch`
  (layer contracts, cycles, the ``API_SURFACE.json`` lock, dead code,
  hot-path purity);
* ``MD0xx`` — the built slot *problem* (``repro audit``):
  :mod:`.model` (big-M tightness, units, matrix diagnostics,
  feasibility pre-checks);
* ``CT0xx`` — the *solution* (``repro certify``): :mod:`.certify`
  (primal/dual feasibility, gap, integrality, profit identity).

:mod:`.report` holds the one :class:`Finding` type, the renderers, the
findings baselines and the exit codes; :mod:`.cli` builds the four
subcommands and the ``repro check`` umbrella from the engine.

Importing any ``repro`` subpackage runs ``repro/__init__.py``, which
loads numpy, scipy and the core solve stack, so no analysis tool is
dependency-free.  This package adds only the engine and the report
machinery (stdlib only); each target's rules load on first use, so
the solve-path hooks (``OptimizerConfig(audit=..., certify=...)``)
never import the lint rules, the lint runner or the architecture
auditor.
"""

from repro.analysis.engine import Report, Rule, all_rules, get_rule, register
from repro.analysis.report import Finding

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
]
