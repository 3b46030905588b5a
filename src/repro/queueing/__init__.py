"""Analytic queueing models.

The paper's delay model (Eq. 1) treats the type-``k`` VM on a server as
an M/M/1 queue with service rate ``phi * C * mu_k``:

    R_k = 1 / (phi_k * C * mu_k - lambda_k)

This package provides that model plus an open Jackson network extension
(multi-tier services) and helpers to validate the analytics against the
discrete-event simulator in :mod:`repro.des`.
"""

from repro.queueing.mm1 import MM1Queue, mm1_mean_delay, mm1_required_capacity, mm1_max_rate
from repro.queueing.jackson import JacksonNetwork
from repro.queueing.validation import compare_with_des

__all__ = [
    "MM1Queue",
    "mm1_mean_delay",
    "mm1_required_capacity",
    "mm1_max_rate",
    "JacksonNetwork",
    "compare_with_des",
]
