"""Formulation auditor: pass families, report API, and the
audit-vs-solver agreement contract (a statically infeasible slot must
also fail in ``plan_slot``; clean slots must solve)."""

import json

import numpy as np
import pytest

from repro.analysis import all_rules, get_rule
from repro.analysis.model import (
    audit_slot,
    minimal_big_for_series,
    recommended_big,
)
from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.bigm import DEFAULT_BIG
from repro.core.config import OptimizerConfig
from repro.core.formulation import SlotInputs
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.obs import InMemoryCollector
from repro.solvers.base import SolverError

#: Data-driven minimal BIG of the conftest multilevel fixture's r1 TUF
#: ([10, 4] / [0.002, 0.006]): max((D2-D1)/(U1-U2), (D1+delta)/(U1-U2)).
R1_MINIMAL = (0.006 - 0.002) / (10.0 - 4.0)


def codes(report):
    return [f.code for f in report.findings]


@pytest.fixture
def onelevel_inputs(small_topology):
    return SlotInputs(
        topology=small_topology,
        arrivals=np.full((2, 2), 40.0),
        prices=np.array([0.05, 0.12]),
    )


@pytest.fixture
def multilevel_inputs(multilevel_topology):
    return SlotInputs(
        topology=multilevel_topology,
        arrivals=np.array([[100.0], [100.0]]),
        prices=np.array([0.1, 0.1]),
    )


@pytest.fixture
def infeasible_topology():
    """A deadline below any achievable delay: 1/(D*C*mu) >> 1."""
    rc = RequestClass(
        "r1", ConstantTUF(10.0, 1e-9), transfer_unit_cost=0.001
    )
    dc = DataCenter(
        "dc1", num_servers=2,
        service_rates=np.array([100.0]),
        energy_per_request=np.array([2e-4]),
    )
    return CloudTopology(
        (rc,), (FrontEnd("fe1"),), (dc,), distances=np.array([[100.0]])
    )


class TestRegistry:
    def test_all_pass_families_registered(self):
        leads = {rule.code for rule in all_rules("MD")}
        assert {"MD010", "MD012", "MD020", "MD030", "MD040"} <= leads

    def test_families_carry_metadata(self):
        for rule in all_rules("MD"):
            assert rule.name, rule.code
            assert rule.rationale, rule.code
            assert rule.code in rule.codes

    def test_lookup_by_member_code(self):
        assert get_rule("MD011").code == "MD010"
        assert get_rule("MD043").code == "MD040"
        with pytest.raises(KeyError, match="MD999"):
            get_rule("MD999")


class TestMinimalBig:
    def test_two_level_minimum(self):
        minima = minimal_big_for_series(
            np.array([10.0, 4.0]), np.array([0.002, 0.006])
        )
        assert minima == pytest.approx([R1_MINIMAL, 0.002 / 6.0], rel=1e-6)

    def test_recommended_applies_safety_factor(self):
        rec = recommended_big(np.array([10.0, 4.0]), np.array([0.002, 0.006]))
        assert rec == pytest.approx(10.0 * R1_MINIMAL, rel=1e-6)

    def test_one_level_tuf_needs_no_big(self):
        minima = minimal_big_for_series(np.array([10.0]), np.array([0.02]))
        assert minima.size == 0
        assert recommended_big(np.array([10.0]), np.array([0.02])) == 0.0


class TestCleanSlots:
    def test_one_level_slot_is_spotless(self, onelevel_inputs,
                                        formulation_audit):
        report = formulation_audit(onelevel_inputs)
        assert report.clean
        assert report.findings == []
        assert report.render_text() == "formulation audit: clean"

    def test_default_big_flags_looseness_not_errors(self, multilevel_inputs):
        # DEFAULT_BIG is ~1e7x the data-driven minimum for this fixture:
        # numerically risky (warning) but still a valid formulation.
        report = audit_slot(multilevel_inputs)
        assert report.clean
        assert codes(report) == ["MD010", "MD010", "MD045"]
        by_class = {f.component: f for f in report.warnings}
        assert set(by_class) == {"bigm[r1]", "bigm[r2]"}
        assert by_class["bigm[r1]"].data["configured"] == DEFAULT_BIG
        assert by_class["bigm[r1]"].data["recommended"] == pytest.approx(
            10.0 * R1_MINIMAL, rel=1e-6
        )

    def test_tightened_big_is_silent(self, multilevel_inputs):
        report = audit_slot(multilevel_inputs, big=10.0 * R1_MINIMAL)
        assert report.clean
        assert "MD010" not in codes(report)
        assert "MD011" not in codes(report)

    def test_details_expose_tightened_constants(self, multilevel_inputs):
        details = audit_slot(multilevel_inputs).details
        assert details["tightened_big"]["r1"] == pytest.approx(
            10.0 * R1_MINIMAL, rel=1e-6
        )
        assert set(details["matrix"]) == {"lp", "milp"}
        assert all(v > 0 for v in details["feasibility_margin"].values())


class TestMisScaledSlots:
    def test_too_small_big_is_an_error(self, multilevel_inputs):
        report = audit_slot(multilevel_inputs, big=0.5 * R1_MINIMAL)
        assert not report.clean
        assert [f.code for f in report.errors] == ["MD011", "MD011"]
        # Errors sort ahead of the MD045 info in both renderings.
        first_line = report.render_text().splitlines()[0]
        assert "error MD011" in first_line

    def test_unachievable_deadline_produces_feasibility_errors(
        self, infeasible_topology
    ):
        inputs = SlotInputs(
            topology=infeasible_topology,
            arrivals=np.array([[10.0]]),
            prices=np.array([0.1]),
        )
        report = audit_slot(inputs)
        assert not report.clean
        assert codes(report) == ["MD040", "MD042", "MD043", "MD044"]
        assert report.details["feasibility_margin"]["dc1"] < 0
        assert any(
            "infeasible topology" in msg
            for msg in report.details["build_errors"]
        )

    def test_json_report_round_trips(self, multilevel_inputs):
        report = audit_slot(multilevel_inputs, big=0.5 * R1_MINIMAL)
        payload = json.loads(report.render_json())
        assert payload["summary"]["errors"] == 2
        assert payload["summary"]["findings"] == len(report.findings)
        recorded = [f["code"] for f in payload["findings"]]
        assert recorded == codes(report)
        assert payload["details"]["tightened_big"]["r1"] == pytest.approx(
            10.0 * R1_MINIMAL, rel=1e-6
        )


class TestOptimizerAgreement:
    """OptimizerConfig(audit=...) and audit-vs-solver consistency."""

    def test_audit_mode_validated(self):
        with pytest.raises(ValueError, match="audit"):
            OptimizerConfig(audit="loud")

    def test_audit_off_leaves_trace_empty(self, small_topology):
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(
            small_topology, config=OptimizerConfig(collector=collector)
        )
        opt.plan_slot(np.full((2, 2), 40.0), np.array([0.05, 0.12]))
        assert collector.slot_traces[0].audit == []
        assert "optimizer.audits" not in collector.counters

    def test_audit_warn_surfaces_findings_in_trace(self, multilevel_topology):
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(
            multilevel_topology,
            config=OptimizerConfig(audit="warn", collector=collector),
        )
        opt.plan_slot(np.array([[100.0], [100.0]]), np.array([0.1, 0.1]))
        trace = collector.slot_traces[0]
        assert [f["code"] for f in trace.audit] == ["MD010", "MD010", "MD045"]
        assert trace.audit[0]["severity"] == "warning"
        assert collector.counters["optimizer.audits"] == 1
        assert collector.counters["optimizer.audit_findings"] == 3
        assert "optimizer.audit_errors" not in collector.counters

    def test_audit_error_passes_clean_slots(self, small_topology):
        opt = ProfitAwareOptimizer(
            small_topology, config=OptimizerConfig(audit="error")
        )
        plan = opt.plan_slot(np.full((2, 2), 40.0), np.array([0.05, 0.12]))
        assert plan.meets_deadlines()

    def test_audit_error_refuses_infeasible_slot(self, infeasible_topology):
        collector = InMemoryCollector()
        opt = ProfitAwareOptimizer(
            infeasible_topology,
            config=OptimizerConfig(audit="error", collector=collector),
        )
        with pytest.raises(SolverError, match="MD040"):
            opt.plan_slot(np.array([[10.0]]), np.array([0.1]))
        assert collector.counters["optimizer.audit_errors"] >= 1

    def test_solver_agrees_with_static_verdict(self, infeasible_topology):
        """Agreement: a slot the auditor rejects must also fail the
        solve path (the builders refuse the same reserve condition)."""
        inputs = SlotInputs(
            topology=infeasible_topology,
            arrivals=np.array([[10.0]]),
            prices=np.array([0.1]),
        )
        assert not audit_slot(inputs).clean
        opt = ProfitAwareOptimizer(infeasible_topology)
        with pytest.raises((ValueError, SolverError), match="infeasible"):
            opt.plan_slot(np.array([[10.0]]), np.array([0.1]))

    def test_clean_audit_means_solvable(self, onelevel_inputs, small_topology):
        assert audit_slot(onelevel_inputs).clean
        plan = ProfitAwareOptimizer(small_topology).plan_slot(
            np.full((2, 2), 40.0), np.array([0.05, 0.12])
        )
        assert plan.served_rates().sum() > 0
