"""Observability: solver/slot telemetry for the whole pipeline.

Zero-dependency counters, timers, histograms, and structured per-slot
trace records, threaded through the solvers
(:mod:`repro.solvers.simplex`, :mod:`repro.solvers.interior_point`,
:mod:`repro.solvers.branch_bound`, :mod:`repro.solvers.sparse`), the
optimizer, the controller, and both simulation loops.  Everything is
opt-in: the default :data:`NULL_COLLECTOR` makes every hook a no-op, so
uninstrumented runs pay (almost) nothing.

>>> from repro.obs import InMemoryCollector
>>> from repro import OptimizerConfig, ProfitAwareOptimizer
>>> collector = InMemoryCollector()
>>> opt = ProfitAwareOptimizer(         # doctest: +SKIP
...     topology, config=OptimizerConfig(collector=collector))

After a run, ``collector.slot_traces`` holds one
:class:`~repro.obs.trace.SlotTrace` per planned slot (phase timings,
iteration counts, warm-start outcome, objective, residuals, fallback
level and stage), which round-trips to JSONL via :func:`write_traces` /
:func:`read_traces`.  A ``SlotTrace`` is the optimizer's only record of
a solve: it is built on every ``plan_slot`` call, telemetry on or off,
and kept as ``optimizer.last_stats``; an enabled collector records that
same object.  The ``repro trace`` CLI subcommand wraps the whole flow.
"""

from repro.obs.collectors import (
    NULL_COLLECTOR,
    Collector,
    InMemoryCollector,
    NullCollector,
    TimerStats,
)
from repro.obs.trace import (
    SlotTrace,
    read_traces,
    write_traces,
)

# WARM_OUTCOMES stays importable from repro.obs.trace; it was dropped
# from this surface as a dead export (AR030).
__all__ = [
    "Collector",
    "NullCollector",
    "NULL_COLLECTOR",
    "InMemoryCollector",
    "TimerStats",
    "SlotTrace",
    "read_traces",
    "write_traces",
]
