"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, StepDownwardTUF


@pytest.fixture
def single_class_topology() -> CloudTopology:
    """1 class, 1 front-end, 1 DC of 4 servers — the smallest sane system."""
    rc = RequestClass(
        "search", ConstantTUF(value=10.0, deadline=0.02), transfer_unit_cost=0.003
    )
    dc = DataCenter(
        "dc1", num_servers=4,
        service_rates=np.array([150.0]),
        energy_per_request=np.array([3e-4]),
    )
    return CloudTopology(
        request_classes=(rc,),
        frontends=(FrontEnd("fe1"),),
        datacenters=(dc,),
        distances=np.array([[500.0]]),
    )


@pytest.fixture
def small_topology() -> CloudTopology:
    """2 classes, 2 front-ends, 2 DCs — small but fully featured."""
    classes = (
        RequestClass("r1", ConstantTUF(5.0, 0.05), transfer_unit_cost=0.001),
        RequestClass("r2", ConstantTUF(9.0, 0.08), transfer_unit_cost=0.002),
    )
    datacenters = (
        DataCenter("dc1", num_servers=3,
                   service_rates=np.array([120.0, 100.0]),
                   energy_per_request=np.array([2e-4, 3e-4])),
        DataCenter("dc2", num_servers=2,
                   service_rates=np.array([140.0, 90.0]),
                   energy_per_request=np.array([1e-4, 4e-4])),
    )
    frontends = (FrontEnd("fe1"), FrontEnd("fe2"))
    distances = np.array([[300.0, 1200.0], [900.0, 400.0]])
    return CloudTopology(classes, frontends, datacenters, distances)


@pytest.fixture
def multilevel_topology() -> CloudTopology:
    """2 classes with two-level TUFs, 1 front-end, 2 DCs (section-VII-like)."""
    classes = (
        RequestClass("r1", StepDownwardTUF([10.0, 4.0], [0.002, 0.006]),
                     transfer_unit_cost=1e-5),
        RequestClass("r2", StepDownwardTUF([20.0, 8.0], [0.003, 0.008]),
                     transfer_unit_cost=2e-5),
    )
    datacenters = (
        DataCenter("dc1", num_servers=3,
                   service_rates=np.array([5000.0, 4000.0]),
                   energy_per_request=np.array([0.2, 0.3])),
        DataCenter("dc2", num_servers=3,
                   service_rates=np.array([4500.0, 5000.0]),
                   energy_per_request=np.array([0.3, 0.25])),
    )
    return CloudTopology(
        classes, (FrontEnd("fe1"),), datacenters,
        distances=np.array([[1000.0, 2000.0]]),
    )


@pytest.fixture
def formulation_audit():
    """The formulation auditor as a fixture: audit a SlotInputs.

    Tier-1 tests use this to assert a scenario's slot problem is
    statically sound (``formulation_audit(inputs).clean``) without each
    test importing the analysis package.
    """
    from repro.analysis.model import audit_slot

    return audit_slot


@pytest.fixture(scope="session")
def certify():
    """The optimality certifier as a fixture: verify one solve.

    ``certify(problem, solution, **kwargs)`` recomputes every CT0xx
    certificate (primal/dual feasibility, complementary slackness,
    duality gap, integrality) from the problem data and fails the test
    with the rendered report on any error-severity finding.  Returns
    the :class:`~repro.analysis.engine.Report` so tests can
    additionally assert on coverage or warnings.  Session-scoped (the
    helper is stateless) so hypothesis tests may use it freely.
    """
    from repro.analysis.certify import certify_solution

    def _certify(problem, solution, **kwargs):
        report = certify_solution(problem, solution, **kwargs)
        assert not report.errors, "\n" + report.render_text()
        return report

    return _certify
