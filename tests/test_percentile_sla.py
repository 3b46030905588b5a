"""Tests for percentile (tail) SLAs on the slot problem."""

import numpy as np
import pytest

from repro.core.optimizer import (OptimizerConfig,
                                  ProfitAwareOptimizer)
from repro.queueing.mm1 import MM1Queue


@pytest.fixture
def inputs(small_topology):
    return small_topology, np.full((2, 2), 60.0), np.array([0.05, 0.12])


class TestPercentileSLA:
    def test_validation(self, small_topology):
        with pytest.raises(ValueError):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(percentile_sla=0.0))
        with pytest.raises(ValueError):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(percentile_sla=1.0))

    def test_none_reproduces_paper(self, inputs):
        topo, arrivals, prices = inputs
        base = ProfitAwareOptimizer(topo).plan_slot(arrivals, prices)
        explicit = ProfitAwareOptimizer(topo, config=OptimizerConfig(percentile_sla=None)).plan_slot(arrivals, prices)
        assert np.allclose(base.rates, explicit.rates)

    def test_weak_eps_floors_at_mean_constraint(self, inputs):
        # eps > 1/e would relax below the mean-delay SLA; it must floor.
        topo, arrivals, prices = inputs
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(percentile_sla=0.9))
        assert opt.config.delay_factor == 1.0

    def test_analytic_violation_probability_met(self, inputs):
        topo, arrivals, prices = inputs
        eps = 0.05
        plan = ProfitAwareOptimizer(topo, config=OptimizerConfig(percentile_sla=eps, use_spare_capacity=False)).plan_slot(arrivals, prices)
        loads = plan.server_loads()
        effective = plan.shares * plan.server_service_rates()
        for k, rc in enumerate(topo.request_classes):
            for n in range(topo.num_servers):
                if loads[k, n] <= 1e-9:
                    continue
                queue = MM1Queue(service_rate=float(effective[k, n]),
                                 arrival_rate=float(loads[k, n]))
                assert queue.delay_violation_probability(rc.deadline) \
                    <= eps * 1.01

    def test_tail_sla_costs_capacity_under_saturation(self, small_topology):
        arrivals = np.full((2, 2), 400.0)  # saturating
        prices = np.array([0.05, 0.12])
        mean_plan = ProfitAwareOptimizer(small_topology).plan_slot(
            arrivals, prices)
        tail_plan = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(percentile_sla=0.05)).plan_slot(arrivals, prices)
        assert (tail_plan.served_rates().sum()
                < mean_plan.served_rates().sum())

    def test_des_confirms_tail_guarantee(self, inputs):
        # Simulate the most-loaded planned VM and count sojourns past
        # the deadline: the empirical violation rate must respect eps.
        from repro.des.engine import Engine
        from repro.des.measurements import SojournStats
        from repro.des.processes import PoissonArrivals
        from repro.des.server import VirtualMachine

        topo, arrivals, prices = inputs
        eps = 0.1
        plan = ProfitAwareOptimizer(topo, config=OptimizerConfig(percentile_sla=eps, use_spare_capacity=False)).plan_slot(arrivals, prices)
        loads = plan.server_loads()
        effective = plan.shares * plan.server_service_rates()
        k, n = np.unravel_index(np.argmax(loads), loads.shape)
        deadline = topo.request_classes[k].deadline

        engine = Engine()
        stats = SojournStats(warmup_time=20.0, keep_raw=True)
        vm = VirtualMachine(engine, rate=float(effective[k, n]), stats=stats)
        horizon = 6000.0 / float(loads[k, n])
        PoissonArrivals(engine, rate=float(loads[k, n]), sink=vm.arrive,
                        seed=3, stop_time=horizon)
        engine.run()
        raw = np.asarray(stats.raw)
        assert raw.size > 3000
        violation_rate = float((raw > deadline).mean())
        # PS sojourn tails are somewhat heavier than FCFS's exponential,
        # so allow slack above the FCFS-exact eps; the rate must still be
        # far below the mean-SLA's ~1/e.
        assert violation_rate < 2.5 * eps

    def test_mean_sla_violates_tail_that_percentile_fixes(self, inputs):
        # Contrast: the paper's mean-delay plan leaves a heavy tail.
        topo, arrivals, prices = inputs
        mean_plan = ProfitAwareOptimizer(topo, config=OptimizerConfig(use_spare_capacity=False)).plan_slot(arrivals, prices)
        loads = mean_plan.server_loads()
        effective = mean_plan.shares * mean_plan.server_service_rates()
        worst = 0.0
        for k, rc in enumerate(topo.request_classes):
            for n in range(topo.num_servers):
                if loads[k, n] <= 1e-9:
                    continue
                queue = MM1Queue(float(effective[k, n]), float(loads[k, n]))
                worst = max(worst,
                            queue.delay_violation_probability(rc.deadline))
        # Mean-delay SLA tolerates ~1/e of requests past the deadline.
        assert worst > 0.3
