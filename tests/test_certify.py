"""Adversarial tests for the CT0xx optimality certifier.

A certifier earns its keep by *rejecting* corrupted certificates, not
by passing clean ones: each test here takes a known-optimal solve and
breaks exactly one invariant (a basic variable, a dual sign, the
objective, an incumbent's integrality), asserting the
precise ``CT0xx`` code fires.  The §VI acceptance test then certifies a
full simulated day on both the dense and sparse paths.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import Finding, Rule, all_rules, get_rule, register
from repro.analysis.certify import certify_solution
from repro.core.config import OptimizerConfig
from repro.core.formulation import SlotInputs, fixed_level_lp
from repro.core.optimizer import ProfitAwareOptimizer
from repro.obs import InMemoryCollector
from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    Solution,
    SolveStatus,
    SolverError,
)
from repro.solvers.branch_bound import solve_milp
from repro.solvers.linprog import solve_lp


def _codes(report):
    return [f.code for f in report.findings]


def _solved_lp():
    """min -x0 - 2 x1 s.t. x0 + x1 <= 1, x >= 0: optimum (0, 1), -2."""
    lp = LinearProgram(
        c=np.array([-1.0, -2.0]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([1.0]),
    )
    return lp, solve_lp(lp, "highs").require_ok()


class TestCleanCertificates:
    def test_highs_solution_certifies_clean_with_duals(self):
        lp, sol = _solved_lp()
        report = certify_solution(lp, sol)
        assert report.clean, report.render_text()
        assert "primal-feasibility" in report.details["checked"]
        assert "dual-feasibility" in report.details["checked"]
        assert "optimality-gap" in report.details["checked"]

    def test_primal_only_backend_skips_dual_families(self):
        lp, sol = _solved_lp()
        report = certify_solution(lp, replace(sol, ineq_marginals=None))
        assert report.clean
        skipped = report.details["skipped"]
        assert "dual-feasibility" in skipped
        assert "optimality-gap" in skipped
        assert "marginal" in skipped["dual-feasibility"]

    def test_mismatched_marginal_shape_degrades_not_crashes(self):
        # Block-local duals with the wrong length must downgrade to a
        # primal-only certification, never index out of bounds.
        lp, sol = _solved_lp()
        report = certify_solution(
            lp, replace(sol, ineq_marginals=np.array([-2.0, 0.0]))
        )
        assert report.clean
        assert "dual-feasibility" in report.details["skipped"]

    def test_report_records_recomputed_objective(self):
        lp, sol = _solved_lp()
        report = certify_solution(lp, sol)
        assert report.details["primal_objective"] == pytest.approx(-2.0)
        assert report.details["reported_objective"] == pytest.approx(-2.0)


class TestAdversarialCorruption:
    def test_bound_violation_is_ct010(self):
        lp, sol = _solved_lp()
        bad = sol.x.copy()
        bad[0] = -0.5
        report = certify_solution(lp, replace(sol, x=bad))
        assert "CT010" in _codes(report)
        assert not report.clean

    def test_nonfinite_point_is_ct010(self):
        lp, sol = _solved_lp()
        bad = sol.x.copy()
        bad[1] = np.nan
        report = certify_solution(lp, replace(sol, x=bad))
        assert _codes(report)[0] == "CT010"
        assert "non-finite" in report.findings[0].message

    def test_row_violation_is_ct011(self):
        lp, sol = _solved_lp()
        report = certify_solution(
            lp, replace(sol, x=np.array([1.0, 1.0]))
        )
        assert "CT011" in _codes(report)

    def test_flipped_dual_sign_is_ct020(self):
        lp, sol = _solved_lp()
        flipped = -np.asarray(sol.ineq_marginals)
        report = certify_solution(
            lp, replace(sol, ineq_marginals=flipped)
        )
        assert "CT020" in _codes(report)

    def test_wrong_reduced_cost_sign_is_ct021(self):
        lp, sol = _solved_lp()
        # y = 0 makes the reduced cost of the basic variable x1 equal
        # to c1 = -2 != 0: an interior/basic variable with a nonzero
        # reduced cost is no certificate of optimality.
        report = certify_solution(
            lp, replace(sol, ineq_marginals=np.zeros(1))
        )
        assert "CT021" in _codes(report)

    def test_slack_row_with_multiplier_is_ct030(self):
        lp = LinearProgram(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
            b_ub=np.array([1.0, 5.0]),
        )
        sol = solve_lp(lp, "highs").require_ok()
        # Row 1 has slack 5 at the optimum (0, 1); charge it anyway.
        corrupt = np.asarray(sol.ineq_marginals).copy()
        corrupt[1] = -1.0
        report = certify_solution(
            lp, replace(sol, ineq_marginals=corrupt)
        )
        assert "CT030" in _codes(report)

    def test_corrupted_objective_is_ct031(self):
        lp, sol = _solved_lp()
        report = certify_solution(lp, replace(sol, objective=-3.5))
        assert "CT031" in _codes(report)
        assert not report.clean

    def test_fractional_incumbent_is_ct040(self):
        lp, _ = _solved_lp()
        mip = MixedIntegerProgram(lp, integer_mask=[True, True])
        sol = solve_milp(mip, "bb").require_ok()
        report = certify_solution(mip, sol)
        assert report.clean, report.render_text()
        bad = sol.x.copy()
        bad[1] = 0.5
        corrupted = certify_solution(
            mip, replace(sol, x=bad, objective=float(lp.c @ bad))
        )
        assert "CT040" in _codes(corrupted)

    def test_impossible_bound_sandwich_is_ct041_error(self):
        lp, _ = _solved_lp()
        mip = MixedIntegerProgram(lp, integer_mask=[True, True])
        sol = solve_milp(mip, "bb").require_ok()
        report = certify_solution(mip, replace(sol, gap=-1.0))
        errors = [f.code for f in report.errors]
        assert "CT041" in errors

    def test_loose_bound_sandwich_is_ct041_warning(self):
        lp, _ = _solved_lp()
        mip = MixedIntegerProgram(lp, integer_mask=[True, True])
        sol = solve_milp(mip, "bb").require_ok()
        report = certify_solution(mip, replace(sol, gap=0.5))
        assert "CT041" in _codes(report)
        assert report.clean  # warning, not error

    def test_no_solution_vector_is_ct010(self):
        lp, _ = _solved_lp()
        sol = Solution(status=SolveStatus.INFEASIBLE)
        report = certify_solution(lp, sol)
        assert _codes(report) == ["CT010"]
        assert report.details["skipped"] == {"all": "no solution vector"}


class TestProfitIdentity:
    def _solved_slot(self, topology):
        arrivals = np.full(
            (topology.num_classes, topology.num_frontends), 40.0
        )
        prices = np.full(topology.num_datacenters, 0.05)
        inputs = SlotInputs(
            topology=topology, arrivals=arrivals, prices=prices
        )
        lp, decoder = fixed_level_lp(inputs)
        sol = solve_lp(lp, "highs").require_ok()
        return inputs, lp, sol, decoder(sol.x)

    def test_decoded_plan_certifies_clean(self, small_topology):
        inputs, lp, sol, plan = self._solved_slot(small_topology)
        report = certify_solution(lp, sol, inputs=inputs, plan=plan)
        assert report.clean, report.render_text()
        assert "profit-identity" in report.details["checked"]

    def test_profit_shortfall_is_ct051_error(self, small_topology):
        inputs, lp, sol, plan = self._solved_slot(small_topology)
        # Claim one more unit of profit than the plan can realize.
        report = certify_solution(
            lp,
            replace(sol, objective=float(sol.objective) - 1.0),
            inputs=inputs,
            plan=plan,
        )
        errors = [f.code for f in report.errors]
        assert "CT051" in errors

    def test_profit_overshoot_is_info_not_error(self, small_topology):
        inputs, lp, sol, plan = self._solved_slot(small_topology)
        # Claiming *less* than realized is legitimate for step TUFs
        # (realized delays can land in a better band): info severity.
        # Drop the duals so the (also-corrupted) duality gap does not
        # fire alongside; the profit identity is what is under test.
        report = certify_solution(
            lp,
            replace(sol, objective=float(sol.objective) + 1.0,
                    ineq_marginals=None),
            inputs=inputs,
            plan=plan,
        )
        assert report.clean
        assert any(
            f.code == "CT051" and f.severity == "info"
            for f in report.findings
        )


class TestRegistry:
    def test_five_families_sorted_by_lead_code(self):
        leads = [rule.code for rule in all_rules("CT")]
        assert leads == ["CT010", "CT020", "CT030", "CT040", "CT051"]

    def test_lookup_by_member_code(self):
        assert get_rule("CT021").name == "dual-feasibility"
        assert get_rule("CT051").name == "profit-identity"
        with pytest.raises(KeyError):
            get_rule("CT999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            @register
            class Clone(Rule):
                code = "CT010"
                codes = {"CT010": "clone"}
                name = "clone"
                rationale = "clone"

    def test_finding_validation(self):
        with pytest.raises(ValueError):
            Finding(code="XX1", severity="error",
                        component="c", message="m")
        with pytest.raises(ValueError):
            Finding(code="CT010", severity="fatal",
                        component="c", message="m")

    def test_rules_carry_metadata(self):
        for rule in all_rules("CT"):
            assert rule.name and rule.rationale, rule.code
            assert rule.code in rule.codes


class TestOptimizerWiring:
    def _run_slot(self, topology, **config_kwargs):
        collector = InMemoryCollector()
        config = OptimizerConfig(collector=collector, **config_kwargs)
        optimizer = ProfitAwareOptimizer(topology, config=config)
        arrivals = np.full(
            (topology.num_classes, topology.num_frontends), 40.0
        )
        prices = np.full(topology.num_datacenters, 0.05)
        optimizer.plan_slot(arrivals, prices)
        return collector

    def test_warn_mode_records_clean_certificates(self, small_topology):
        collector = self._run_slot(small_topology, certify="warn")
        assert collector.counters.get("optimizer.certifies", 0) == 1
        trace = collector.slot_traces[0]
        assert trace.certificates == []

    def test_off_mode_never_certifies(self, small_topology):
        collector = self._run_slot(small_topology, certify="off")
        assert "optimizer.certifies" not in collector.counters
        assert collector.slot_traces[0].certificates == []

    def test_error_mode_passes_on_clean_solves(self, small_topology):
        collector = self._run_slot(small_topology, certify="error")
        assert collector.counters.get("optimizer.certifies", 0) == 1

    def test_error_mode_raises_on_bad_certificate(
        self, small_topology, monkeypatch
    ):
        # Corrupt the objective between solve and certification so the
        # gate sees an uncertifiable answer on an otherwise-fine path.
        from repro.core import optimizer as opt_mod

        original = opt_mod.ProfitAwareOptimizer._solve_lp

        def corrupting(self, inputs, lp_method=None, max_iterations=None):
            plan, fields, payload = original(
                self, inputs, lp_method=lp_method,
                max_iterations=max_iterations,
            )
            assert payload is not None
            payload["solution"] = replace(
                payload["solution"],
                objective=float(payload["solution"].objective) - 10.0,
            )
            return plan, fields, payload

        monkeypatch.setattr(
            opt_mod.ProfitAwareOptimizer, "_solve_lp", corrupting
        )
        with pytest.raises(SolverError, match="CT0"):
            self._run_slot(
                small_topology, certify="error", fallback=False
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="certify"):
            OptimizerConfig(certify="loud")

    def test_certificates_round_trip_jsonl(self):
        from repro.obs.trace import SlotTrace

        trace = SlotTrace(
            slot=0, method="lp", formulation="fixed", warm_start="cold",
            objective=-1.0, total_time=0.1,
            certificates=[{
                "code": "CT031", "severity": "error",
                "component": "gap.objective", "message": "gap", "data": {},
            }],
        )
        again = SlotTrace.from_json(trace.to_json())
        assert again.certificates == trace.certificates


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_section6_day_certifies_clean(sparse):
    """Acceptance: every solve of the §VI day passes verification."""
    from repro.experiments.section6 import section6_experiment

    exp = section6_experiment()
    collector = InMemoryCollector()
    config = OptimizerConfig(
        sparse=sparse, certify="warn", collector=collector
    )
    optimizer = ProfitAwareOptimizer(exp.topology, config=config)
    for slot in range(exp.trace.num_slots):
        optimizer.plan_slot(
            exp.trace.arrivals_at(slot), exp.market.prices_at(slot)
        )
    errors = [
        record
        for trace in collector.slot_traces
        for record in trace.certificates
        if record["severity"] == "error"
    ]
    assert errors == []
    certified = collector.counters.get("optimizer.certifies", 0)
    skipped = collector.counters.get("optimizer.certify_skipped", 0)
    assert certified + skipped == exp.trace.num_slots
    assert certified > 0
