"""Edge-case tests sweeping remaining corners of the public surface."""

import numpy as np
import pytest

from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.plan import DispatchPlan
from repro.des.engine import Engine
from repro.obs import SlotTrace
from repro.solvers.base import SolverError
from repro.utils.tables import render_table


class TestEngineEdges:
    def test_run_with_max_events(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: seen.append(i))
        engine.run(max_events=2)
        assert seen == [0, 1]
        assert engine.pending == 3

    def test_run_until_with_max_events(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: seen.append(i))
        engine.run_until(10.0, max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_cancelled_events_cleared_from_pending(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        engine.run_until(2.0)
        assert engine.pending == 0


class TestRenderTableEdges:
    def test_no_title(self):
        text = render_table(["a"], [[1]])
        assert not text.startswith("\n")
        assert text.splitlines()[0].strip() == "a"

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert len(text.splitlines()) == 2  # header + separator

    def test_wide_cells_expand_columns(self):
        text = render_table(["x"], [["a-very-long-cell-value"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(sep) == len(row)


class TestPlanEdges:
    def test_dc_of_server_mapping(self, small_topology):
        plan = DispatchPlan.empty(small_topology)
        mapping = plan._dc_of_server()
        assert mapping.tolist() == [0, 0, 0, 1, 1]

    def test_server_service_rates_matrix(self, small_topology):
        plan = DispatchPlan.empty(small_topology)
        rates = plan.server_service_rates()
        assert rates.shape == (2, 5)
        # dc1 servers carry dc1's mu; dc2 servers dc2's.
        assert rates[0, 0] == small_topology.service_rates[0, 0]
        assert rates[0, 4] == small_topology.service_rates[0, 1]

    def test_shares_sum_tolerance(self, small_topology):
        # A hair over 1.0 from float noise is tolerated...
        shares = np.zeros((2, 5))
        shares[:, 0] = [0.5, 0.5 + 1e-8]
        DispatchPlan(small_topology, np.zeros((2, 2, 5)), shares)
        # ...a real violation is not.
        shares[:, 0] = [0.6, 0.6]
        with pytest.raises(ValueError):
            DispatchPlan(small_topology, np.zeros((2, 2, 5)), shares)


class TestOptimizerEdges:
    def test_zero_arrivals_zero_profit(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        plan = opt.plan_slot(np.zeros((2, 2)), np.array([0.1, 0.1]))
        assert plan.served_rates().sum() == pytest.approx(0.0, abs=1e-9)
        assert plan.powered_on_per_dc().sum() == 0

    def test_stats_dataclass_fields(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        opt.plan_slot(np.full((2, 2), 5.0), np.array([0.1, 0.1]))
        stats = opt.last_stats
        assert isinstance(stats, SlotTrace)
        assert stats.method == "lp"
        assert stats.num_constraints > 0

    def test_single_frontend_single_class(self, single_class_topology):
        opt = ProfitAwareOptimizer(single_class_topology)
        plan = opt.plan_slot(np.array([[250.0]]), np.array([0.07]))
        assert plan.meets_deadlines()
        # 4 servers x (mu - 1/D) bounds the admission.
        cap = 4 * (150.0 - 1.0 / 0.02)
        assert plan.served_rates()[0] <= cap + 1e-6

    def test_deadline_margin_reduces_admission(self, single_class_topology):
        arrivals = np.array([[1000.0]])
        prices = np.array([0.07])
        full = ProfitAwareOptimizer(single_class_topology).plan_slot(
            arrivals, prices)
        tight = ProfitAwareOptimizer(single_class_topology, config=OptimizerConfig(deadline_margin=0.5)).plan_slot(arrivals, prices)
        assert tight.served_rates()[0] < full.served_rates()[0]


class TestSolverErrorType:
    def test_solver_error_is_runtime_error(self):
        assert issubclass(SolverError, RuntimeError)
