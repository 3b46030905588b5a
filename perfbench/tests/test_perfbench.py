"""Tests of the benchmark itself: tiny runs, failure accounting, BENCHMARK.json.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import repro.stream.controller as stream_controller
import run
import workloads
from checks import check_plan, check_standing_plan, oracle_problems
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.plan import DispatchPlan

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name, workload_class=None):
    """A workload over a one-day (one-window) block with seed 3."""
    workload = (workload_class or workloads.WORKLOADS[name])(3, 1)
    workload.build_inputs()
    workload.build_dispatcher()
    workload.setup_times = {"imports_s": 0.1, "inputs_s": 0.1,
                            "dispatcher_s": 0.1}
    return workload


def measure(workload, traced, spans_path=None):
    return run.measure(workload, seconds=0.01, traced=traced, min_passes=2,
                       spans_path=spans_path)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, traced, tmp_path):
    spans = tmp_path / "spans.jsonl"
    report = measure(tiny(name), traced, spans)
    assert report["problems"] == []
    assert report["failed"] == 0 and report["attempted"] > 0
    report["setup_s"] = 0.6
    metrics = run.metrics_of(report, traced, setups=[0.5, 0.7])
    declared = SPEC["per_layer" if traced else "end_to_end"]
    computed = report["layer"] if traced else dict(report["metrics"],
                                                   setup_s=0.6)
    assert set(computed) == {d["name"] for d in declared}
    assert ({n: m["unit"] for n, m in metrics.items()}
            == {d["name"]: d["unit"] for d in declared})
    assert all(np.isfinite(m["value"]) for m in metrics.values())
    if traced:
        assert metrics["core.first_plan_ms"]["value"] > 0
        spans_read = [json.loads(line)
                      for line in spans.read_text().splitlines()]
        assert spans_read and all(s["end"] >= s["start"] for s in spans_read)
        ids = {s["id"] for s in spans_read}
        assert all(s["parent"] is None or s["parent"] in ids
                   for s in spans_read)
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_fleet_pass_matches_the_dense_oracle():
    workload = tiny("fleet_lp")
    result = workload.run_pass()
    objectives, profit = workload.oracle()
    assert oracle_problems(result.objectives, result.net_profit,
                           objectives, profit) == []
    shifted = list(objectives)
    shifted[3] *= 1 + 1e-4
    assert oracle_problems(result.objectives, result.net_profit,
                           shifted, profit)


def test_checks_catch_each_broken_constraint():
    # The paper-scale plan of the first decision, made in set-up.
    call = tiny("stream_online").dispatcher.calls[0]
    plan = call.plan
    assert check_plan(plan, call.arrivals) == ""
    assert check_plan(plan, call.arrivals * 0.5).startswith("Eq. 6")
    over = SimpleNamespace(topology=plan.topology, rates=plan.rates,
                           shares=plan.shares * 2.0)
    assert check_standing_plan(over).startswith("Eq. 7")
    starved = DispatchPlan(plan.topology, plan.rates, plan.shares * 0.5)
    assert "unstable" in check_plan(starved, call.arrivals)
    # The busiest queue keeps a stable share, but its delay is twice the
    # class deadline.
    load = plan.rates.sum(axis=1)
    k, n = np.unravel_index(load.argmax(), load.shape)
    deadline = plan.topology.request_classes[k].deadline
    late_shares = plan.shares.copy()
    late_shares[k, n] = ((load[k, n] + 0.5 / deadline)
                         / checks._server_capacity(plan.topology)[k, n])
    late = DispatchPlan(plan.topology, plan.rates, late_shares)
    assert check_plan(late, call.arrivals).startswith(
        "Eq. 8: a queue's delay is 2.0000")


class _Corrupting:
    """A dispatcher that starves one slot's plan of CPU shares."""

    def __init__(self, inner, slot):
        self.__dict__.update(inner=inner, slot=slot, made=0)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value):
        setattr(self.inner, name, value)

    def plan_slot(self, arrivals, prices, slot_duration=1.0):
        plan = self.inner.plan_slot(arrivals, prices,
                                    slot_duration=slot_duration)
        self.__dict__["made"] += 1
        if self.made % 24 == self.slot + 1:
            plan = DispatchPlan(plan.topology, plan.rates, plan.shares * 0.01)
        return plan


@pytest.mark.parametrize("traced", [False, True])
def test_a_corrupted_plan_counts_as_failed(traced):
    workload = tiny("fleet_lp")
    workload.dispatcher = workloads.TimedDispatcher(_Corrupting(
        ProfitAwareOptimizer(workload.topology, config=workload.config()),
        slot=5))
    report = measure(workload, traced)
    passes = report["attempted"] // workload.trace.num_slots
    assert report["failed"] == passes
    assert report["problems"] and all("Eq. 8" in p or "decided" in p
                                      for p in report["problems"])
    if traced:
        assert report["layer"]["fail_rate"] == pytest.approx(1 / 24)


class _StarvedFleet(workloads.FleetLP):
    """One solver iteration per slot: the primary solve falls back."""

    def config(self):
        return OptimizerConfig(sparse=True, solver_iteration_budget=1)


def test_an_injected_fallback_counts_as_failed():
    report = measure(tiny("fleet_lp", _StarvedFleet), traced=True)
    assert report["problems"] == []
    assert report["failed"] > 0
    assert report["layer"]["fail_rate"] == report["failed"] / report["attempted"]
    assert report["layer"]["core.fallback_slots"] > 0


def test_a_broken_repair_counts_as_failed(monkeypatch):
    """A repaired plan is checked at the tick that serves it, even when a
    later tick of the same slot replaces it."""
    repair = stream_controller.repair_plan

    def starving_repair(plan, target, *args, **kwargs):
        outcome = repair(plan, target, *args, **kwargs)
        starved = DispatchPlan(outcome.plan.topology, outcome.plan.rates,
                               outcome.plan.shares * 0.01)
        return dataclasses.replace(outcome, plan=starved)

    workload = tiny("stream_online")
    clean = workload.run_pass()
    assert clean.failed == set() and clean.problems == []
    monkeypatch.setattr(stream_controller, "repair_plan", starving_repair)
    broken = workload.run_pass()
    assert broken.failed
    assert all("scored plan: Eq. 8" in p for p in broken.problems)


def test_inputs_come_from_the_seed():
    a_trace, a_market = workloads.worldcup_days(5, 2)
    b_trace, b_market = workloads.worldcup_days(5, 2)
    c_trace, c_market = workloads.worldcup_days(6, 2)
    assert np.array_equal(a_trace.rates, b_trace.rates)
    assert not np.array_equal(a_trace.rates, c_trace.rates)
    prices = [np.array([m.prices_at(t) for t in range(48)])
              for m in (a_market, b_market, c_market)]
    assert np.array_equal(prices[0], prices[1])
    assert not np.array_equal(prices[0], prices[2])


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert (BENCH.parent / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
