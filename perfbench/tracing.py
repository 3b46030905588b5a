"""Spans and per-layer metrics of a traced run.

The benchmark records a span around each call it makes into a layer
(``run_simulation``, a streaming tick, ``plan_slot``, ``evaluate_plan``,
``simulate_plan``).  The children of a ``plan_slot`` span come from the
program's own ``SlotTrace``: its phase times, laid end to end from the
call's start, plus two derived spans — ``analysis.audit`` (call wall
time minus ``SlotTrace.total_time``, because the audit runs before the
optimizer starts its clock) and ``analysis.certify`` (``total_time``
minus the phase times).  Those child spans have exact durations but
synthetic start times.

Spans stay in memory and are written as JSONL when the run ends.  All
per-layer values are per pass over the workload's input block (totals
over the traced passes divided by their number), so counts repeat
exactly between runs with the same seed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.obs.collectors import InMemoryCollector

#: Layer of each ``SlotTrace`` phase, in the order a solve runs them.
PHASE_LAYERS = {
    "build": "core.build",
    "collapse": "solvers.collapse",
    "decompose": "solvers.decompose",
    "solve": "solvers.solve",
    "expand": "solvers.expand",
    "postprocess": "core.postprocess",
}


class Tracer:
    """In-memory spans plus the per-layer totals of the traced passes."""

    def __init__(self) -> None:
        self.collector = InMemoryCollector()
        self.origin = time.perf_counter()
        #: ``[id, parent, decision, name, start, end]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Identifier shared by the spans of one decision (slot or tick).
        self.decision = 0
        self.passes = 0
        self.totals: Dict[str, float] = {}

    # ------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, self.decision, name,
                           time.perf_counter() - self.origin, None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][5] = time.perf_counter() - self.origin
        popped = self._stack.pop()
        assert popped == span_id, "spans must close in reverse order"

    def _child(self, parent: int, name: str, start: float,
               seconds: float) -> float:
        if seconds > 0.0:
            self.spans.append([len(self.spans), parent, self.spans[parent][2],
                               name, start, start + seconds])
        return start + seconds

    def plan_phases(self, span_id: int, trace) -> None:
        """Children of one ``plan_slot`` span from its ``SlotTrace``."""
        if trace is None:
            return
        _, _, _, _, start, end = self.spans[span_id]
        phases = trace.phase_times
        t = self._child(span_id, "analysis.audit", start,
                        max(end - start - trace.total_time, 0.0))
        for phase, name in PHASE_LAYERS.items():
            if phase == "postprocess":
                t = self._child(span_id, "analysis.certify", t, max(
                    trace.total_time - trace.phase_time_total, 0.0))
            t = self._child(span_id, name, t, phases.get(phase, 0.0))

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer not covered by the layer's child spans."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for span_id, _, _, name, start, end in self.spans:
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[span_id]
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "decision", "name", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ------------------------------------------------------------ totals

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + float(value)

    def note_calls(self, calls) -> None:
        """Fold one traced pass's ``plan_slot`` calls in."""
        for call in calls:
            self.add("core.plan_slot.calls", 1)
            self.add("core.plan_slot.busy_s", call.seconds)
            trace = call.trace
            if trace is None:
                continue
            self.add("analysis.audit_s",
                     max(call.seconds - trace.total_time, 0.0))
            self.add("analysis.certify_s",
                     max(trace.total_time - trace.phase_time_total, 0.0))

    def slot_layers(self, out, calls, wall: float) -> None:
        self.passes += 1
        self.note_calls(calls)
        self.add("bench.pass_wall_s", wall)
        self.totals["sim.retained_mb"] = out.retained_bytes / 2**20

    def stream_layers(self, out, calls, result, ticks: List[float]) -> None:
        self.passes += 1
        self.note_calls(calls)
        self.add("stream.ticks", result.ticks)
        self.add("stream.resolves", result.full_solves)
        self.add("stream.repairs", result.repairs)
        self.add("stream.repair_escalations", result.repair_escalations)
        self.add("stream.drift_events", result.drift_events)
        self.add("stream.estimator_rel_error", result.estimator_rel_error)
        self.add("stream.tick_busy_s", sum(ticks))
        self.totals["sim.retained_mb"] = out.retained_bytes / 2**20

    def des_layers(self, out, plans, outcomes, latencies: List[float]) -> None:
        self.passes += 1
        self.add("des.simulate_plan.calls", len(latencies))
        self.add("des.simulate_plan.busy_s", sum(latencies))
        self.add("des.jobs_generated", sum(o.generated for o in outcomes))
        self.add("des.jobs_completed", sum(o.completed for o in outcomes))
        self.add("des.queues", sum(
            int(np.count_nonzero((p.server_loads() > 0) & (p.shares > 0)))
            for p, _ in plans))
        for o in outcomes:
            for key, realized in o.mean_sojourn.items():
                self.add("des.realized_sojourn", realized)
                self.add("des.planned_sojourn", o.predicted_sojourn[key])
        self.totals["sim.retained_mb"] = out.retained_bytes / 2**20

    # ----------------------------------------------------------- metrics

    def metrics(self, trace_overhead_s: float, fail_rate: float,
                setup: Dict[str, float], first_plan_s: float,
                peak_alloc: int) -> Dict[str, float]:
        """Every per-layer value by its name in ``BENCHMARK.json``; 0
        where a layer did no work."""
        passes = max(self.passes, 1)
        t = self.totals
        per_pass = {k: v / passes for k, v in t.items()}
        collector = self.collector
        traces = collector.slot_traces
        phases: Dict[str, float] = {}
        for trace in traces:
            for phase, seconds in trace.phase_times.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        warm = collector.warm_start_counts()
        offered = warm.get("hit", 0) + warm.get("miss", 0)
        counters = collector.counters
        timers = collector.timers

        def timer_total(name: str) -> float:
            stats = timers.get(name)
            return stats.total if stats else 0.0

        evaluate = [s for s in self.spans if s[3] == "core.evaluate_plan"]
        n_traces = max(len(traces), 1)
        self_times = self.self_times()
        resolves = t.get("stream.resolves", 0.0)
        repairs = t.get("stream.repairs", 0.0)
        escalations = t.get("stream.repair_escalations", 0.0)
        des_busy = t.get("des.simulate_plan.busy_s", 0.0)
        planned = t.get("des.planned_sojourn", 0.0)
        values = {
            "setup.imports_s": setup["imports_s"],
            "setup.inputs_s": setup["inputs_s"],
            "setup.dispatcher_s": setup["dispatcher_s"],
            "core.first_plan_ms": first_plan_s * 1e3,
            "core.plan_slot.calls": per_pass.get("core.plan_slot.calls", 0.0),
            "core.plan_slot.busy_s": per_pass.get("core.plan_slot.busy_s", 0.0),
            "core.build_s": phases.get("build", 0.0) / passes,
            "core.postprocess_s": phases.get("postprocess", 0.0) / passes,
            "core.evaluate_plan.calls": len(evaluate) / passes,
            "core.evaluate_plan.busy_s":
                sum(s[5] - s[4] for s in evaluate) / passes,
            "core.warm_hit_ratio":
                warm.get("hit", 0) / offered if offered else 0.0,
            "core.fallback_slots":
                sum(1 for tr in traces if tr.fallback > 0) / passes,
            "core.plan_slot.peak_alloc_mb": peak_alloc / 2**20,
            "solvers.decompose_s": phases.get("decompose", 0.0) / passes,
            "solvers.expand_s": phases.get("expand", 0.0) / passes,
            "solvers.collapse_s": phases.get("collapse", 0.0) / passes,
            "solvers.solve_s": phases.get("solve", 0.0) / passes,
            "solvers.iterations": sum(tr.iterations for tr in traces) / passes,
            "solvers.nodes": sum(tr.nodes for tr in traces) / passes,
            "solvers.lp_evaluations":
                sum(tr.lp_evaluations for tr in traces) / passes,
            "solvers.num_variables":
                sum(tr.num_variables for tr in traces) / n_traces,
            "solvers.num_constraints":
                sum(tr.num_constraints for tr in traces) / n_traces,
            "analysis.audit_s": per_pass.get("analysis.audit_s", 0.0),
            "analysis.certify_s": per_pass.get("analysis.certify_s", 0.0),
            "analysis.audit_findings":
                counters.get("optimizer.audit_findings", 0.0) / passes,
            "analysis.certify_findings":
                counters.get("optimizer.certify_findings", 0.0) / passes,
            "analysis.certify_errors":
                counters.get("optimizer.certify_errors", 0.0) / passes,
            "sim.loop_overhead_s": max(
                per_pass.get("bench.pass_wall_s", 0.0)
                - (timer_total("controller.plan_slot")
                   + timer_total("controller.evaluate")) / passes, 0.0)
            if "bench.pass_wall_s" in t else 0.0,
            "sim.retained_mb": t.get("sim.retained_mb", 0.0),
            "stream.ticks": per_pass.get("stream.ticks", 0.0),
            "stream.resolves": per_pass.get("stream.resolves", 0.0),
            "stream.repairs": per_pass.get("stream.repairs", 0.0),
            "stream.repair_escalations":
                per_pass.get("stream.repair_escalations", 0.0),
            "stream.drift_events": per_pass.get("stream.drift_events", 0.0),
            "stream.resolve_ratio":
                resolves / t["stream.ticks"] if t.get("stream.ticks") else 0.0,
            "stream.repair_success_ratio":
                repairs / (repairs + escalations)
                if repairs + escalations else 0.0,
            "stream.plan_busy_s": timer_total("stream.plan_slot") / passes,
            "stream.overhead_s": max(
                per_pass.get("stream.tick_busy_s", 0.0)
                - timer_total("stream.plan_slot") / passes, 0.0)
            if "stream.tick_busy_s" in t else 0.0,
            "stream.estimator_rel_error":
                per_pass.get("stream.estimator_rel_error", 0.0),
            "des.simulate_plan.calls":
                per_pass.get("des.simulate_plan.calls", 0.0),
            "des.simulate_plan.busy_s": des_busy / passes,
            "des.jobs_generated": per_pass.get("des.jobs_generated", 0.0),
            "des.jobs_completed": per_pass.get("des.jobs_completed", 0.0),
            "des.queues": t.get("des.queues", 0.0)
            / max(t.get("des.simulate_plan.calls", 0.0), 1.0),
            "des.events_per_s": (t.get("des.jobs_generated", 0.0)
                                 + t.get("des.jobs_completed", 0.0)) / des_busy
            if des_busy else 0.0,
            "des.sojourn_gap":
                t.get("des.realized_sojourn", 0.0) / planned - 1.0
                if planned else 0.0,
            "bench.trace_overhead_s": trace_overhead_s,
            "fail_rate": fail_rate,
        }
        for layer in ("bench", "sim", "stream", "core", "analysis",
                      "solvers", "des"):
            values[f"self.{layer}_s"] = self_times.get(layer, 0.0) / passes
        return values
