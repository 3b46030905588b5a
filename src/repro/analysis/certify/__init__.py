"""Optimality-certificate verifier: the solution target (``CT0xx``) of
the analysis engine.

Where :mod:`repro.analysis.rules` reads the *source code* and
:mod:`repro.analysis.model` the *built slot problem* before solving,
this package independently verifies the *solved answer*: primal
feasibility, dual feasibility and reduced-cost signs, complementary
slackness and the duality gap, MILP incumbent integrality and bound
sandwiches, and the collapse→expand profit identity — all
recomputed from the problem data, trusting no solver-reported
residual.

Three entry points, mirroring the auditor:

* :func:`certify_solution` — the programmatic API;
* ``OptimizerConfig(certify="warn"|"error")`` — per-solve gating in
  ``plan_slot`` (findings land on ``SlotTrace.certificates``);
* ``repro certify`` — the CLI gate (exit 1 on CT-level errors).

Importing the package registers every check (:mod:`.checks`).
"""

from repro.analysis.certify.certify import (
    CertifyContext,
    CertifyThresholds,
    certify_solution,
)
from repro.analysis.certify import checks as _checks  # noqa: F401  (registration import)

__all__ = [
    "CertifyContext",
    "CertifyThresholds",
    "certify_solution",
]
