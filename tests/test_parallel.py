"""Tests for the parallel slot-solving runner."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.baselines import BalancedDispatcher
from repro.core.optimizer import ProfitAwareOptimizer
from repro.obs import InMemoryCollector
from repro.sim.parallel import DispatcherSpec, parallel_run_simulation
from repro.market.market import MultiElectricityMarket
from repro.market.prices import PriceTrace
from repro.sim.slotted import run_simulation
from repro.workload.traces import WorkloadTrace


class _WorkerBomb(BalancedDispatcher):
    """Plans normally in-process, raises inside pool workers.

    Lets the parent re-solve the poisoned chunks serially and compare
    against an unpoisoned reference run.  Module-level so it pickles;
    the fork start method (the Linux default) carries the monkeypatched
    ``_KINDS`` registry into the children.
    """

    name = "worker_bomb"

    def plan_slot(self, arrivals, prices, slot_duration=1.0):
        if multiprocessing.parent_process() is not None:
            raise RuntimeError("injected worker failure")
        return super().plan_slot(arrivals, prices,
                                 slot_duration=slot_duration)


class _WorkerKiller(BalancedDispatcher):
    """Kills the worker process outright (-> ``BrokenProcessPool``)."""

    name = "worker_killer"

    def plan_slot(self, arrivals, prices, slot_duration=1.0):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return super().plan_slot(arrivals, prices,
                                 slot_duration=slot_duration)


@pytest.fixture
def setup(small_topology):
    rng = np.random.default_rng(3)
    trace = WorkloadTrace(rng.uniform(10.0, 60.0, size=(2, 2, 6)))
    market = MultiElectricityMarket([
        PriceTrace("a", rng.uniform(0.04, 0.12, size=6)),
        PriceTrace("b", rng.uniform(0.04, 0.12, size=6)),
    ])
    return small_topology, trace, market


class TestDispatcherSpec:
    def test_builds_known_kinds(self, small_topology):
        for kind in ("optimized", "balanced", "even_split"):
            dispatcher = DispatcherSpec(kind).build(small_topology)
            assert hasattr(dispatcher, "plan_slot")

    def test_kwargs_forwarded(self, small_topology):
        spec = DispatcherSpec("optimized", {"deadline_margin": 0.9})
        assert spec.build(small_topology).config.deadline_margin == 0.9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DispatcherSpec("magic")

    def test_collector_on_baseline_kind_warns(self, small_topology):
        # Baselines have no telemetry hooks: the run works, but the
        # caller should learn their traces will stay empty.
        with pytest.warns(RuntimeWarning, match="no telemetry hooks"):
            DispatcherSpec("balanced").build(
                small_topology, collector=InMemoryCollector()
            )

    def test_collector_on_optimizer_kind_does_not_warn(self, small_topology):
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            dispatcher = DispatcherSpec("optimized").build(
                small_topology, collector=InMemoryCollector()
            )
        assert isinstance(dispatcher.collector, InMemoryCollector)


class TestParallelRun:
    def test_serial_path_matches_reference(self, setup):
        topo, trace, market = setup
        reference = run_simulation(ProfitAwareOptimizer(topo), trace, market)
        parallel = parallel_run_simulation(
            topo, DispatcherSpec("optimized"), trace, market, workers=1
        )
        assert parallel.num_slots == reference.num_slots
        assert np.allclose(parallel.net_profit_series,
                           reference.net_profit_series)

    def test_pool_matches_serial(self, setup):
        topo, trace, market = setup
        serial = parallel_run_simulation(
            topo, DispatcherSpec("optimized"), trace, market, workers=1
        )
        pooled = parallel_run_simulation(
            topo, DispatcherSpec("optimized"), trace, market, workers=2
        )
        assert np.allclose(pooled.net_profit_series,
                           serial.net_profit_series)
        # Records come back in slot order regardless of completion order.
        assert [r.slot for r in pooled.records] == list(range(6))

    def test_balanced_spec(self, setup):
        topo, trace, market = setup
        from repro.core.baselines import BalancedDispatcher
        reference = run_simulation(BalancedDispatcher(topo), trace, market)
        pooled = parallel_run_simulation(
            topo, DispatcherSpec("balanced"), trace, market, workers=2
        )
        assert np.allclose(pooled.net_profit_series,
                           reference.net_profit_series)

    def test_num_slots_limit(self, setup):
        topo, trace, market = setup
        result = parallel_run_simulation(
            topo, DispatcherSpec("balanced"), trace, market,
            num_slots=3, workers=1,
        )
        assert result.num_slots == 3

    def test_workers_validated(self, setup):
        topo, trace, market = setup
        with pytest.raises(ValueError):
            parallel_run_simulation(
                topo, DispatcherSpec("balanced"), trace, market, workers=0
            )

    def test_workers_clamped_to_slot_count(self, setup):
        # More workers than slots must not spawn idle processes (or
        # crash on empty chunks) — the pool is clamped to the slot count.
        topo, trace, market = setup
        result = parallel_run_simulation(
            topo, DispatcherSpec("balanced"), trace, market,
            num_slots=2, workers=64,
        )
        assert result.num_slots == 2
        assert [r.slot for r in result.records] == [0, 1]

    def test_cpu_count_none_falls_back_to_serial(self, setup, monkeypatch):
        # os.cpu_count() may return None (e.g. restricted containers);
        # the default must degrade to a serial run, not crash.
        import repro.sim.parallel as parallel_mod
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: None)
        topo, trace, market = setup
        reference = run_simulation(ProfitAwareOptimizer(topo), trace, market)
        result = parallel_run_simulation(
            topo, DispatcherSpec("optimized"), trace, market, workers=None
        )
        assert np.allclose(result.net_profit_series,
                           reference.net_profit_series)

    def test_zero_slots(self, setup):
        topo, trace, market = setup
        result = parallel_run_simulation(
            topo, DispatcherSpec("balanced"), trace, market,
            num_slots=0, workers=4,
        )
        assert result.num_slots == 0
        # Degenerate run: an empty (0,) completion vector, not a scalar.
        assert result.completion_fractions.shape == (0,)

    def test_chunked_pool_matches_serial_with_warm_start(self, setup):
        # Chunked scheduling keeps warm state inside each worker's chunk;
        # with the exact backends that must not change any result.
        topo, trace, market = setup
        spec = DispatcherSpec("optimized", {"warm_start": True})
        serial = parallel_run_simulation(topo, spec, trace, market, workers=1)
        pooled = parallel_run_simulation(topo, spec, trace, market, workers=3)
        assert np.allclose(pooled.net_profit_series,
                           serial.net_profit_series)


class TestWorkerRecovery:
    @pytest.fixture(autouse=True)
    def _register_bombs(self, monkeypatch):
        import repro.sim.parallel as parallel_mod
        monkeypatch.setitem(parallel_mod._KINDS, "worker_bomb", _WorkerBomb)
        monkeypatch.setitem(parallel_mod._KINDS, "worker_killer",
                            _WorkerKiller)

    def test_worker_exception_recovered_serially(self, setup):
        topo, trace, market = setup
        reference = run_simulation(BalancedDispatcher(topo), trace, market)
        with pytest.warns(RuntimeWarning, match="re-solving its slots"):
            result = parallel_run_simulation(
                topo, DispatcherSpec("worker_bomb"), trace, market,
                workers=2,
            )
        # Every slot recovered, in order, with identical objectives.
        assert [r.slot for r in result.records] == list(range(6))
        assert np.allclose(result.net_profit_series,
                           reference.net_profit_series)
        # And the causes are on record, per slot.
        assert set(result.failures) == set(range(6))
        assert all("injected worker failure" in cause
                   for cause in result.failures.values())

    def test_dead_worker_recovered_serially(self, setup):
        # A worker dying outright surfaces as BrokenProcessPool, which
        # poisons every outstanding future — all chunks must recover.
        topo, trace, market = setup
        reference = run_simulation(BalancedDispatcher(topo), trace, market)
        with pytest.warns(RuntimeWarning, match="re-solving its slots"):
            result = parallel_run_simulation(
                topo, DispatcherSpec("worker_killer"), trace, market,
                workers=2,
            )
        assert np.allclose(result.net_profit_series,
                           reference.net_profit_series)
        assert set(result.failures) == set(range(6))
        assert any("BrokenProcessPool" in cause
                   for cause in result.failures.values())

    def test_clean_run_reports_no_failures(self, setup):
        topo, trace, market = setup
        result = parallel_run_simulation(
            topo, DispatcherSpec("balanced"), trace, market, workers=2,
        )
        assert result.failures == {}


def test_serial_zero_slot_run_has_empty_completion_vector(small_topology):
    rng = np.random.default_rng(0)
    trace = WorkloadTrace(rng.uniform(10.0, 60.0, size=(2, 2, 3)))
    market = MultiElectricityMarket([
        PriceTrace("a", rng.uniform(0.04, 0.12, size=3)),
        PriceTrace("b", rng.uniform(0.04, 0.12, size=3)),
    ])
    result = run_simulation(
        BalancedDispatcher(small_topology), trace, market, num_slots=0
    )
    assert result.num_slots == 0
    assert result.completion_fractions.shape == (0,)
    assert result.completion_fractions.ndim == 1


def test_compute_completion_fractions_empty_records():
    from repro.sim.slotted import SimulationResult
    frac = SimulationResult.compute_completion_fractions([])
    assert isinstance(frac, np.ndarray)
    assert frac.shape == (0,)


def test_chunked_splits_are_contiguous_and_complete():
    from repro.sim.parallel import _chunked
    tasks = list(range(10))
    for k in (1, 2, 3, 7, 10, 25):
        chunks = _chunked(tasks, k)
        assert [x for c in chunks for x in c] == tasks
        assert all(c for c in chunks)
        assert len(chunks) == min(k, len(tasks))
