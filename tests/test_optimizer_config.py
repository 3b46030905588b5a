"""Tests for OptimizerConfig and the optimizer's config-only API."""

import pickle
import warnings

import numpy as np
import pytest

from repro.core.config import OptimizerConfig
from repro.core.optimizer import ProfitAwareOptimizer
from repro.obs import InMemoryCollector, NullCollector


@pytest.fixture
def slot(small_topology):
    rng = np.random.default_rng(11)
    arrivals = rng.uniform(20.0, 60.0, size=(2, 2))
    prices = np.array([0.06, 0.10])
    return small_topology, arrivals, prices


class TestValidation:
    def test_defaults_are_valid(self):
        config = OptimizerConfig()
        assert config.level_method == "auto"
        assert config.warm_start is True
        assert isinstance(config.collector, NullCollector)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(level_method="magic"), "level_method"),
        (dict(formulation="sideways"), "formulation"),
        (dict(lp_method="cplex"), "lp_method"),
        (dict(milp_method="gurobi"), "milp_method"),
        (dict(deadline_margin=0.0), "deadline_margin"),
        (dict(deadline_margin=1.5), "deadline_margin"),
        (dict(percentile_sla=0.0), "percentile_sla"),
        (dict(percentile_sla=1.0), "percentile_sla"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            OptimizerConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            OptimizerConfig().level_method = "lp"

    def test_replace_revalidates(self):
        config = OptimizerConfig()
        assert config.replace(deadline_margin=0.9).deadline_margin == 0.9
        with pytest.raises(ValueError):
            config.replace(deadline_margin=-1.0)

    def test_delay_factor(self):
        assert OptimizerConfig().delay_factor == 1.0
        eps = 0.05
        expected = float(np.log(1.0 / eps))
        assert OptimizerConfig(percentile_sla=eps).delay_factor == \
            pytest.approx(expected)
        # eps > 1/e floors at the mean-delay requirement.
        assert OptimizerConfig(percentile_sla=0.9).delay_factor == 1.0

    def test_equality_ignores_collector(self):
        a = OptimizerConfig(collector=InMemoryCollector())
        b = OptimizerConfig()
        assert a == b

    def test_picklable(self):
        config = OptimizerConfig(level_method="greedy", lp_method="ipm")
        assert pickle.loads(pickle.dumps(config)) == config


class TestOptimizerSignature:
    def test_config_signature(self, slot):
        topo, arrivals, prices = slot
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            opt = ProfitAwareOptimizer(
                topo, config=OptimizerConfig(deadline_margin=0.9)
            )
        assert opt.config.deadline_margin == 0.9
        assert opt.plan_slot(arrivals, prices) is not None

    def test_flat_kwargs_rejected(self, small_topology):
        """The PR-2 deprecation shim is gone: flat knobs are TypeErrors."""
        with pytest.raises(TypeError):
            ProfitAwareOptimizer(small_topology, deadline_margin=0.9)
        with pytest.raises(TypeError):
            ProfitAwareOptimizer(
                small_topology, lp_method="simplex", warm_start=True
            )

    def test_config_plus_kwargs_rejected(self, small_topology):
        with pytest.raises(TypeError):
            ProfitAwareOptimizer(
                small_topology, config=OptimizerConfig(), warm_start=False
            )

    def test_unknown_kwarg_rejected(self, small_topology):
        with pytest.raises(TypeError):
            ProfitAwareOptimizer(small_topology, wram_start=False)

    def test_slot_duration_validated(self, slot):
        topo, arrivals, prices = slot
        opt = ProfitAwareOptimizer(topo)
        with pytest.raises(ValueError, match="slot_duration"):
            opt.plan_slot(arrivals, prices, slot_duration=0.0)
        with pytest.raises(ValueError, match="slot_duration"):
            opt.plan_slot(arrivals, prices, slot_duration=-1.0)


class TestStatsAndTraceFields:
    def test_warm_outcome_off_when_disabled(self, slot):
        topo, arrivals, prices = slot
        opt = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(warm_start=False)
        )
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_start == "off"

    def test_warm_outcome_cold_then_hit(self, slot):
        topo, arrivals, prices = slot
        opt = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(lp_method="simplex")
        )
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_start == "cold"
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_start == "hit"

    def test_highs_lp_never_hits(self, slot):
        """The scipy HiGHS LP bridge emits no state: cold every slot."""
        topo, arrivals, prices = slot
        opt = ProfitAwareOptimizer(
            topo, config=OptimizerConfig(lp_method="highs")
        )
        opt.plan_slot(arrivals, prices)
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.warm_start == "cold"

    def test_phase_times_recorded(self, slot):
        topo, arrivals, prices = slot
        opt = ProfitAwareOptimizer(topo)
        opt.plan_slot(arrivals, prices)
        phases = opt.last_stats.phase_times
        assert phases["solve"] > 0.0
        assert phases["build"] >= 0.0
        assert (phases["build"] + phases["solve"]
                + phases["postprocess"]) <= opt.last_stats.total_time + 1e-9
