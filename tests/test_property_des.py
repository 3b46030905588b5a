"""Property tests for the DES event queue after the batching refactor.

The array-backed heap in :class:`repro.des.engine.Engine` must be
observationally identical to the pre-refactor object-based
:class:`repro.des.reference.ReferenceEngine`: randomized
schedule/cancel/step/run sequences are replayed against both engines
and every observable — event firing order, clock values, monotonicity,
``events_processed``, ``pending`` — must agree exactly.  A second group
pins the batched :class:`~repro.des.processes.PoissonArrivals` sampling
to the per-call realization, bit for bit.  A third pins
:func:`~repro.des.cluster.simulate_plan`'s per-VM kernel to the same
plan run on one :class:`~repro.des.engine.Engine` with the incremental
primitives, bit for bit on every outcome field.
"""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.datacenter import DataCenter
from repro.cloud.energy import EnergyModel
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.plan import DispatchPlan
from repro.core.request import RequestClass
from repro.core.tuf import StepDownwardTUF
from repro.des.cluster import _serve, simulate_plan
from repro.des.engine import Engine
from repro.des.measurements import SojournStats, WelfordAccumulator
from repro.des.processes import SAMPLE_BATCH, PoissonArrivals
from repro.des.reference import ReferenceEngine
from repro.des.server import FCFSQueueServer, VirtualMachine
from repro.utils.rng import RandomStreams, as_generator

# One randomized operation against both engines.  Weights skew toward
# scheduling so cancel/step/run_until exercise non-trivial heaps.
op_strategy = st.one_of(
    st.tuples(st.just("schedule"),
              st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("schedule"),
              st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("schedule_at"),
              st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("step"), st.just(0)),
    st.tuples(st.just("run_until"),
              st.floats(0.0, 15.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("run_max"), st.integers(1, 5)),
)


class _Driver:
    """Applies one op sequence to an engine, recording every observable."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self.handles = []
        self._label = 0

    def _fire(self, label):
        def action():
            self.log.append((label, self.engine.now))
        return action

    def apply(self, op):
        kind, arg = op
        engine = self.engine
        if kind == "schedule":
            self.handles.append(engine.schedule(arg, self._fire(self._label)))
            self._label += 1
        elif kind == "schedule_at":
            target = max(arg, engine.now)
            self.handles.append(
                engine.schedule_at(target, self._fire(self._label)))
            self._label += 1
        elif kind == "cancel":
            if self.handles:
                self.handles[arg % len(self.handles)].cancel()
        elif kind == "step":
            self.log.append(("step->", engine.step()))
        elif kind == "run_until":
            engine.run_until(engine.now + arg)
        elif kind == "run_max":
            engine.run(max_events=arg)
        else:  # pragma: no cover - strategy is exhaustive
            raise AssertionError(kind)

    def observables(self):
        return (self.log, self.engine.now, self.engine.events_processed,
                self.engine.pending)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=40))
def test_engines_observationally_identical(ops):
    new = _Driver(Engine())
    ref = _Driver(ReferenceEngine())
    for op in ops:
        new.apply(op)
        ref.apply(op)
        assert new.engine.now == ref.engine.now
        assert new.engine.events_processed == ref.engine.events_processed
        assert new.engine.pending == ref.engine.pending
    # Drain both completely: identical firing order including ties.
    new.engine.run()
    ref.engine.run()
    assert new.observables() == ref.observables()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=40))
def test_clock_is_monotone_and_counts_match_log(ops):
    driver = _Driver(Engine())
    last_now = 0.0
    for op in ops:
        driver.apply(op)
        assert driver.engine.now >= last_now
        last_now = driver.engine.now
    driver.engine.run()
    fired = [entry for entry in driver.log if entry[0] != "step->"]
    steps = sum(1 for entry in driver.log
                if entry == ("step->", True))
    assert driver.engine.events_processed == len(fired)
    assert steps <= len(fired)
    # Firing times are non-decreasing (ties broken by schedule order).
    times = [t for _, t in fired]
    assert times == sorted(times)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rate=st.floats(0.2, 0.95, allow_nan=False),
       horizon=st.floats(20.0, 200.0, allow_nan=False))
def test_mm1_identical_across_engines(seed, rate, horizon):
    """A full M/M/1 run must not depend on which engine drives it."""

    def run(engine_cls):
        engine = engine_cls()
        server = FCFSQueueServer(engine, rate=1.0)
        arrivals = PoissonArrivals(engine, rate=rate, sink=server.arrive,
                                   seed=seed, stop_time=horizon)
        engine.run_until(horizon)
        engine.run()
        return (arrivals.generated, engine.events_processed,
                server.stats.count, server.stats.mean)

    assert run(Engine) == run(ReferenceEngine)


class TestBatchedSamplingEquivalence:
    """Batched draws must be bit-identical to the per-call stream."""

    @staticmethod
    def _per_call_realization(seed, rate, stop_time):
        """The pre-refactor sampling loop, reproduced literally."""
        rng = as_generator(seed)
        now = 0.0
        events = []
        while True:
            gap = float(rng.exponential(1.0 / rate))
            if now + gap >= stop_time:
                break
            now += gap
            events.append((now, float(rng.exponential(1.0))))
        return events

    @pytest.mark.parametrize("batch", [1, 2, 7, 1024])
    def test_bit_identical_for_any_batch_size(self, batch):
        seed, rate, stop = 1234, 2.5, 60.0
        engine = Engine()
        seen = []
        PoissonArrivals(engine, rate=rate,
                        sink=lambda w: seen.append((engine.now, w)),
                        seed=seed, stop_time=stop, batch=batch)
        engine.run()
        expected = self._per_call_realization(seed, rate, stop)
        assert len(seen) == len(expected)
        np.testing.assert_array_equal(np.asarray(seen), np.asarray(expected))

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="batch"):
            PoissonArrivals(Engine(), rate=1.0, sink=lambda w: None,
                            seed=0, batch=0)


class TestMeasurementEquivalence:
    """Inlined SojournStats must match the standalone Welford fold."""

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=100,
    ))
    def test_sojourn_stats_matches_welford(self, values):
        acc = WelfordAccumulator()
        stats = SojournStats()
        for v in values:
            acc.add(v)
            stats.record(0.0, v)
        assert stats.count == acc.count
        assert stats.mean == acc.mean
        assert stats.std == acc.std
        assert stats.stderr == acc.stderr

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
        min_size=0, max_size=60,
    ), split=st.integers(0, 60))
    def test_add_batch_matches_sequential(self, values, split):
        split = min(split, len(values))
        sequential = WelfordAccumulator()
        for v in values:
            sequential.add(v)
        batched = WelfordAccumulator()
        batched.add_batch(np.asarray(values[:split]))
        batched.add_batch(np.asarray(values[split:]))
        assert batched.count == sequential.count
        assert batched.mean == pytest.approx(sequential.mean, abs=1e-9)
        assert batched.variance == pytest.approx(sequential.variance,
                                                 rel=1e-6, abs=1e-9)


# --------------------------------------------------------------------------
# simulate_plan's per-VM kernel vs the engine-driven primitives

#: Full-capacity service rate of every (class, data centre) pair: high
#: enough that the busiest drawn VM (1536 expected jobs over a horizon
#: of 0.5 at 5% utilization) needs a share of about 0.31, so two
#: classes always fit on one server.
_SERVICE_RATE = 2.0e5


def _kernel_topology():
    """2 classes, 2 front-ends, 2 DCs of 2 servers (8 candidate VMs)."""
    classes = (
        RequestClass("r1", StepDownwardTUF([10.0, 4.0], [0.002, 0.05]),
                     transfer_unit_cost=1e-5),
        RequestClass("r2", StepDownwardTUF([20.0, 8.0], [0.01, 0.3]),
                     transfer_unit_cost=2e-5),
    )
    datacenters = tuple(
        DataCenter(name, num_servers=2,
                   service_rates=np.array([_SERVICE_RATE, _SERVICE_RATE]),
                   energy_per_request=energy)
        for name, energy in (("dc1", np.array([2e-4, 3e-4])),
                             ("dc2", np.array([1e-4, 4e-4])))
    )
    return CloudTopology(classes, (FrontEnd("fe1"), FrontEnd("fe2")),
                         datacenters,
                         distances=np.array([[300.0, 1200.0], [900.0, 400.0]]))


class _Recorder:
    """A VM's statistics sink: every job's sojourn plus the warmup-filtered
    Welford mean, each through its own :class:`SojournStats`, and
    optionally a log of departure times."""

    def __init__(self, warmup: float, log=None):
        self.every = SojournStats(keep_raw=True)
        self.measured = SojournStats(warmup_time=warmup)
        self.log = log

    def record(self, arrival_time: float, departure_time: float) -> None:
        if self.log is not None:
            self.log.append(("completion", departure_time))
        self.every.record(arrival_time, departure_time)
        self.measured.record(arrival_time, departure_time)


def _reference_simulation(plan, prices, horizon, seed, warmup_fraction):
    """``ClusterSimulation.run`` built from the incremental primitives.

    Every active VM is a :class:`VirtualMachine` fed by its own
    :class:`PoissonArrivals` on one shared :class:`Engine`.  Every
    completed job is counted and earns per-job revenue; the mean-delay
    utility level and ``mean_sojourn`` use post-warmup jobs only.
    Returns the outcome's fields and each active VM's arrival count.
    """
    topo = plan.topology
    streams = RandomStreams(seed)
    engine = Engine()
    loads = plan.server_loads()
    service = plan.server_service_rates()
    warmup = warmup_fraction * horizon
    vms = {}
    for k in range(topo.num_classes):
        for n in range(topo.num_servers):
            lam = float(loads[k, n])
            share = float(plan.shares[k, n])
            if lam <= 0 or share <= 0:
                continue
            recorder = _Recorder(warmup)
            vm = VirtualMachine(engine, rate=share * service[k, n],
                                stats=recorder)
            vms[(k, n)] = (recorder, PoissonArrivals(
                engine, rate=lam, sink=vm.arrive,
                seed=streams.stream(f"arrivals-{k}-{n}"), stop_time=horizon,
            ))
    engine.run_until(horizon)
    engine.run()

    analytic = plan.delays()
    energy_per_req = EnergyModel(topo.datacenters).per_request_cost(prices)
    transfer_per_req = topo.transfer_model().per_request_cost()
    dc_of = plan._dc_of_server()
    fields = dict(revenue_mean_delay=0.0, revenue_per_job=0.0,
                  energy_cost=0.0, transfer_cost=0.0, completed=0,
                  generated=0, mean_sojourn={}, predicted_sojourn={})
    for (k, n), (recorder, arrivals) in vms.items():
        tuf = topo.request_classes[k].tuf
        raw = np.asarray(recorder.every.raw)
        if raw.size:
            fields["revenue_per_job"] += float(np.sum(tuf.utility(raw)))
            fields["completed"] += int(raw.size)
        if recorder.measured.count:
            fields["mean_sojourn"][(k, n)] = recorder.measured.mean
            fields["predicted_sojourn"][(k, n)] = float(analytic[k, n])
            fields["revenue_mean_delay"] += (
                float(tuf.utility(recorder.measured.mean)) * raw.size)
        count = arrivals.generated
        fields["generated"] += count
        l = int(dc_of[n])
        fields["energy_cost"] += float(energy_per_req[k, l]) * count
        total = plan.rates[k, :, n].sum()
        if total > 0:
            weights = plan.rates[k, :, n] / total
            fields["transfer_cost"] += float(
                (weights * transfer_per_req[k, :, l]).sum()) * count
    counts = {key: arrivals.generated for key, (_, arrivals) in vms.items()}
    return fields, counts


#: Expected arrivals over the horizon per kind of candidate VM: idle
#: (no VM), a first gap that likely crosses the horizon, about one job,
#: a busy queue, and a stream spanning several ``SAMPLE_BATCH`` blocks.
_VM_KINDS = {
    "idle": (0.0, 0.0),
    "empty": (1e-3, 0.05),
    "single": (0.5, 1.5),
    "busy": (5.0, 200.0),
    "blocks": (1.2 * SAMPLE_BATCH / 2, 3.0 * SAMPLE_BATCH / 2),
}

_vm_strategy = st.tuples(
    st.sampled_from(sorted(_VM_KINDS)),
    st.floats(0.0, 1.0),  # position within the kind's arrival range
    st.floats(0.05, 0.95),  # utilization of the VM
    st.floats(0.0, 1.0),  # share of the load sent from front-end 0
)


def _kernel_plan(vms, horizon):
    """A plan with one drawn ``(kind, pos, rho, split)`` per (class, server)."""
    topo = _kernel_topology()
    K, S, N = topo.num_classes, topo.num_frontends, topo.num_servers
    rates = np.zeros((K, S, N))
    shares = np.zeros((K, N))
    for idx, (kind, pos, rho, split) in enumerate(vms):
        lo, hi = _VM_KINDS[kind]
        lam = (lo + pos * (hi - lo)) / horizon
        if lam <= 0.0:
            continue
        k, n = divmod(idx, N)
        rates[k, :, n] = lam * np.array([split, 1.0 - split])
        shares[k, n] = lam / rho / _SERVICE_RATE
    return DispatchPlan(topo, rates, shares)


def _assert_kernel_matches_reference(vms, horizon, seed, warmup):
    plan = _kernel_plan(vms, horizon)
    prices = np.array([0.05, 0.11])
    got = asdict(simulate_plan(plan, prices, slot_duration=horizon,
                               seed=seed, warmup_fraction=warmup))
    want, counts = _reference_simulation(plan, prices, horizon, seed, warmup)
    assert got == want
    # Bit for bit: equal floats and dict keys, same insertion order.
    assert list(got["mean_sojourn"]) == list(want["mean_sojourn"])
    return counts


#: A fixed draw holding a VM with no arrival, single-job VMs and a
#: multi-block VM (checked by the edge-case test).
_EDGE_VMS = (
    [("empty", 0.5, 0.5, 0.3), ("single", 0.5, 0.5, 1.0),
     ("blocks", 1.0, 0.9, 0.5), ("idle", 0.0, 0.5, 0.5)]
    + [("single", pos, 0.3, 0.0) for pos in (0.0, 0.25, 0.75, 1.0)]
)


@settings(max_examples=40, deadline=None)
@given(vms=st.lists(_vm_strategy, min_size=8, max_size=8),
       horizon=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1),
       warmup=st.floats(0.0, 0.5))
def test_kernel_matches_engine_reference(vms, horizon, seed, warmup):
    _assert_kernel_matches_reference(vms, horizon, seed, warmup)


@pytest.mark.parametrize("warmup", [0.0, 0.25, 0.5])
def test_kernel_matches_reference_on_edge_vms(warmup):
    counts = _assert_kernel_matches_reference(_EDGE_VMS, 1.0, 3, warmup)
    arrivals = sorted(counts.values())
    assert arrivals[0] == 0  # the first gap crossed the horizon
    assert 1 in arrivals  # single-job VMs
    assert arrivals[-1] > SAMPLE_BATCH // 2  # a stream over several blocks


def _engine_vm(gaps, works, rate, warmup):
    """One :class:`VirtualMachine` on an :class:`Engine`, fed arrivals at
    ``gaps`` the way :class:`PoissonArrivals` schedules them: each
    arrival runs the VM's ``arrive`` and then defers the next arrival.
    Returns the VM's recorder and the ordered arrival/completion log."""
    engine = Engine()
    log = []
    recorder = _Recorder(warmup, log)
    vm = VirtualMachine(engine, rate, stats=recorder)
    upcoming = iter(zip(gaps, works))

    def schedule_next():
        nxt = next(upcoming, None)
        if nxt is not None:
            engine.defer(nxt[0], lambda: fire(nxt[1]))

    def fire(work):
        log.append(("arrival", engine.now))
        vm.arrive(work)
        schedule_next()

    schedule_next()
    engine.run()
    return recorder, log


def _tied_gaps(rng, count, rate):
    """Arrival gaps and works where about half the arrivals land exactly
    on a pending completion: either the one the previous arrival
    scheduled or the one the completion after it schedules."""
    gaps, works = [], []
    now = 0.0
    for _ in range(count):
        gap = float(rng.exponential(1.0 / rate))
        if gaps and rng.random() < 0.5:
            _, log = _engine_vm(gaps, works, rate, 0.0)
            last = max(i for i, (kind, _) in enumerate(log) if kind == "arrival")
            due = [t for kind, t in log[last + 1:] if kind == "completion"]
            if due:
                target = due[min(int(rng.integers(2)), len(due) - 1)]
                tied = target - now
                for _ in range(4):  # nudge until now + tied rounds to target
                    if now + tied == target:
                        gap = tied
                        break
                    tied = float(np.nextafter(
                        tied, math.inf if now + tied < target else -math.inf))
        gaps.append(gap)
        works.append(float(rng.exponential(1.0)))
        now += gap
    return gaps, works


def test_serve_orders_exact_ties_like_the_engine():
    """Random draws almost never put an arrival and a completion at the
    same float time, so craft such ties and check that the kernel runs
    them in the engine's ``seq`` order."""
    orders = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rate = float(rng.uniform(0.5, 3.0))
        warmup = float(rng.uniform(0.0, 5.0))
        gaps, works = _tied_gaps(rng, 25, rate)
        recorder, log = _engine_vm(gaps, works, rate, warmup)
        times = list(itertools.accumulate(gaps))
        sojourns, measured, mean = _serve(times, works, rate, warmup)
        assert sojourns == recorder.every.raw
        assert measured == recorder.measured.count
        assert mean == recorder.measured.mean
        orders.update((a[0], b[0]) for a, b in zip(log, log[1:])
                      if a[1] == b[1] and a[0] != b[0])
    # Both tie orders occurred: completion first and arrival first.
    assert orders == {("completion", "arrival"), ("arrival", "completion")}


def test_serve_boundaries_match_the_engine():
    """Equal remaining works complete first-listed first (like ``min``),
    and a job arriving exactly at the warmup time is measured."""
    works = [2.0, 1.0]
    # A (work 2) has 1 unit left when B (work 1) arrives at t=2.
    recorder, _ = _engine_vm([1.0, 1.0], works, 1.0, 2.0)
    assert _serve([1.0, 2.0], works, 1.0, 2.0) == (
        recorder.every.raw, recorder.measured.count, recorder.measured.mean)
    assert recorder.every.raw == [3.0, 2.0]
    assert recorder.measured.count == 1
