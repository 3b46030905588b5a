"""Parallel slot solving with a process pool.

Slot problems are mutually independent given the trace (the paper's
controller carries no state between slots), so a day-long run
parallelizes trivially across slots.  This module distributes the slot
solves over a ``multiprocessing`` pool and reassembles an ordered
:class:`~repro.sim.slotted.SimulationResult`.

Slots are scheduled in contiguous **chunks**, one per worker, rather
than one task per slot: each worker builds its dispatcher once and
solves its chunk in trace order, so a warm-starting dispatcher (see
``ProfitAwareOptimizer(warm_start=True)``) keeps its formulation cache
and solver state across the slots of its chunk.  Only the chunk
boundaries pay a cold start.

Dispatchers are described by picklable *specs* rather than live objects
(solver handles and closures do not cross process boundaries):

>>> spec = DispatcherSpec("optimized", {"level_method": "milp"})

Speedups are modest at the paper's problem sizes (each LP solve is
milliseconds) and grow with per-server formulations and MILP slots;
``workers=1`` short-circuits to the serial path.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.topology import CloudTopology
from repro.core.baselines import BalancedDispatcher, EvenSplitDispatcher
from repro.core.controller import SlotRecord
from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.market.market import MultiElectricityMarket
from repro.obs.collectors import Collector, InMemoryCollector
from repro.sim.accounting import ProfitLedger
from repro.sim.slotted import SimulationResult
from repro.workload.traces import WorkloadTrace

__all__ = [
    "DispatcherSpec",
    "parallel_run_simulation",
]

_KINDS = {
    "optimized": ProfitAwareOptimizer,
    "balanced": BalancedDispatcher,
    "even_split": EvenSplitDispatcher,
}


@dataclass(frozen=True)
class DispatcherSpec:
    """Picklable recipe for building a dispatcher in a worker process.

    For ``kind="optimized"`` the ``kwargs`` either contain a single
    ``"config"`` key holding an :class:`OptimizerConfig`, or flat
    config-field values (``{"level_method": "milp"}``); both build the
    optimizer through its config-only signature.
    """

    kind: str
    kwargs: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown dispatcher kind {self.kind!r}; "
                f"choose from {sorted(_KINDS)}"
            )

    def build(
        self,
        topology: CloudTopology,
        collector: Optional[Collector] = None,
    ):
        """Instantiate the dispatcher against ``topology``.

        ``collector`` (when given, and when the dispatcher supports
        telemetry) overrides the config's collector — this is how each
        worker process wires its own :class:`InMemoryCollector` in.
        Baseline kinds (``"balanced"``, ``"even_split"``) carry no
        telemetry hooks, so a collector passed for them is dropped with
        a warning: the run works, but its slot traces stay empty.
        """
        cls = _KINDS[self.kind]
        if collector is not None and cls is not ProfitAwareOptimizer \
                and not hasattr(cls, "collector"):
            warnings.warn(
                f"dispatcher kind {self.kind!r} has no telemetry hooks; "
                "the collector is ignored and its slot traces will be "
                "empty",
                RuntimeWarning,
                stacklevel=2,
            )
        if cls is ProfitAwareOptimizer:
            kwargs = dict(self.kwargs)
            config = kwargs.pop("config", None)
            if config is not None and kwargs:
                raise ValueError(
                    "DispatcherSpec kwargs must hold either a 'config' "
                    "entry or flat OptimizerConfig fields, not both "
                    f"(got extra {sorted(kwargs)})"
                )
            if config is None:
                config = OptimizerConfig(**kwargs)
            if collector is not None:
                config = config.replace(collector=collector)
            return ProfitAwareOptimizer(topology, config=config)
        return cls(topology, **self.kwargs)


def _solve_chunk(
    args: Tuple,
) -> Tuple[List[Tuple[int, np.ndarray, np.ndarray]], Optional[InMemoryCollector]]:
    """Worker: solve a contiguous chunk of slots with one dispatcher.

    Building the dispatcher once per chunk (not per slot) lets its
    formulation cache and warm-start state carry across the chunk.
    When telemetry is requested the worker accumulates into its own
    :class:`InMemoryCollector` (returned alongside the plans) and
    stamps the dispatcher's slot counter before each solve, so merged
    traces carry true trace-order slot indices.
    """
    topology, spec, chunk, collect = args
    collector = InMemoryCollector() if collect else None
    dispatcher = spec.build(topology, collector=collector)
    track_slots = collect and hasattr(dispatcher, "slot_index")
    out: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for slot, arrivals, prices, slot_duration in chunk:
        if track_slots:
            dispatcher.slot_index = slot
        plan = dispatcher.plan_slot(
            arrivals, prices, slot_duration=slot_duration
        )
        out.append((slot, plan.rates, plan.shares))
    return out, collector


def _chunked(tasks: Sequence, num_chunks: int) -> List[List]:
    """Split ``tasks`` into ``num_chunks`` contiguous, near-equal chunks."""
    n = len(tasks)
    num_chunks = max(1, min(num_chunks, n))
    bounds = np.linspace(0, n, num_chunks + 1).astype(int)
    return [list(tasks[bounds[i]:bounds[i + 1]]) for i in range(num_chunks)
            if bounds[i] < bounds[i + 1]]


def parallel_run_simulation(
    topology: CloudTopology,
    spec: DispatcherSpec,
    trace: WorkloadTrace,
    market: MultiElectricityMarket,
    num_slots: Optional[int] = None,
    workers: Optional[int] = None,
    apply_pue: bool = False,
    collector: Optional[InMemoryCollector] = None,
) -> SimulationResult:
    """Run a slotted simulation with slot solves fanned out to a pool.

    Parameters
    ----------
    topology:
        The static system (pickled once per chunk).
    spec:
        Dispatcher recipe (see :class:`DispatcherSpec`).
    workers:
        Pool size; defaults to ``os.cpu_count()`` (serial when that is
        unavailable).  The pool never exceeds the slot count — extra
        workers would only idle — and ``workers=1`` runs serially
        in-process (no pool overhead, identical results).
    collector:
        Optional :class:`~repro.obs.collectors.InMemoryCollector`.
        Live collectors cannot be shared across processes, so each
        worker accumulates into its own collector, which crosses back
        over the pool boundary with the chunk's plans and is
        :meth:`~repro.obs.collectors.InMemoryCollector.merge`\\ d into
        this one at the barrier (slot traces re-sorted to trace order).
        Baseline specs (``"balanced"``, ``"even_split"``) have no
        telemetry hooks, so with them the merged collector holds loop
        counters only and ``slot_traces`` stays empty (see
        :meth:`DispatcherSpec.build`).

    Fault tolerance
    ---------------
    A worker exception — including a worker process dying outright
    (``BrokenProcessPool``) — no longer loses the run.  Each failed
    chunk is re-solved **serially in this process**, split one slot at
    a time so a single poisoned slot cannot mask its neighbours; the
    chunk-level causes land per slot in
    :attr:`~repro.sim.slotted.SimulationResult.failures` and a
    ``RuntimeWarning`` is emitted per failed chunk.  Only when a slot
    still fails during the serial re-solve does the run abort, with the
    slot index named in the raised error.  Serial re-solves build a
    fresh dispatcher per slot (cold start), which by the warm==cold
    equivalence guarantee changes no objective.
    """
    total = num_slots if num_slots is not None else trace.num_slots
    tasks = [
        (t, trace.arrivals_at(t), market.prices_at(t), trace.slot_duration)
        for t in range(total)
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1 (got {workers}); pass workers=None "
            "to size the pool from os.cpu_count()"
        )
    workers = min(workers, max(total, 1))
    collect = collector is not None

    failures: Dict[int, str] = {}
    if workers == 1:
        solved, worker_collector = _solve_chunk((topology, spec, tasks, collect))
        if collect and worker_collector is not None:
            collector.merge(worker_collector)
    else:
        chunks = _chunked(tasks, workers)
        solved = []
        failed_chunks: List[Tuple[List, BaseException]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_solve_chunk, (topology, spec, chunk, collect))
                for chunk in chunks
            ]
            for chunk, future in zip(chunks, futures):
                try:
                    chunk_result, worker_collector = future.result()
                except (Exception, BrokenProcessPool) as exc:
                    # A dead worker (BrokenProcessPool) also fails every
                    # other outstanding future; each chunk is recovered
                    # individually below.
                    failed_chunks.append((chunk, exc))
                    continue
                solved.extend(chunk_result)
                if collect and worker_collector is not None:
                    collector.merge(worker_collector)
        for chunk, exc in failed_chunks:
            cause = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"worker chunk covering slots "
                f"{chunk[0][0]}..{chunk[-1][0]} failed ({cause}); "
                "re-solving its slots serially",
                RuntimeWarning,
            )
            for task in chunk:
                slot = task[0]
                failures[slot] = cause
                try:
                    part, worker_collector = _solve_chunk(
                        (topology, spec, [task], collect)
                    )
                except Exception as slot_exc:
                    raise RuntimeError(
                        f"slot {slot} failed during serial recovery "
                        f"(original worker failure: {cause})"
                    ) from slot_exc
                solved.extend(part)
                if collect and worker_collector is not None:
                    collector.merge(worker_collector)

    solved.sort(key=lambda item: item[0])
    from repro.core.plan import DispatchPlan

    ledger = ProfitLedger()
    records: List[SlotRecord] = []
    for t, rates, shares in solved:
        plan = DispatchPlan(topology=topology, rates=rates, shares=shares)
        arrivals = trace.arrivals_at(t)
        prices = market.prices_at(t)
        outcome = evaluate_plan(
            plan, arrivals, prices,
            slot_duration=trace.slot_duration, apply_pue=apply_pue,
        )
        ledger.record(outcome)
        records.append(SlotRecord(
            slot=t, plan=plan, outcome=outcome,
            prices=prices, arrivals=arrivals,
        ))
    return SimulationResult(
        dispatcher_name=spec.kind, records=records, ledger=ledger,
        failures=failures,
    )
