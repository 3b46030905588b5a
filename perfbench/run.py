"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fleet_lp --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced run (and writes its spans under ``perfbench/out/``).
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not run.

The process that prints the result imports the program but does no
timed work itself.  It starts fresh child processes of this script:

* one that runs the workload's set-up and timed passes, and reports the
  peak RSS of that process alone (no oracle and no other workload ever
  runs in it);
* several that run only the set-up, for the median ``setup_s``.

The dense oracle of ``fleet_lp`` runs in the parent, after the child.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fleet_lp", "milp_audit", "stream_online", "des_replay")

#: An untraced run makes at least this many passes, so that each
#: decision's fastest time is very likely one the host did not slow down.
MIN_PASSES = 5

#: Set-up-only child processes per untraced run; with the timed child's
#: own set-up they give the samples whose median is ``setup_s``.
SETUP_CHILDREN = 4

#: Wall seconds a run may go on past ``--seconds`` to make its passes.
LOOP_SLACK_S = 60

#: Child processes must end well inside a run's 180 s limit.
CHILD_TIMEOUT_S = 150

#: Load comes from one process with no threads: the numerical libraries
#: would otherwise start a worker thread per core.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Relative difference allowed between passes over the same inputs.
PASS_REL_TOL = 1e-9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> None:
    """Put the program and the benchmark's modules on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"the program's sources are not at {SRC}; run the benchmark "
            "from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]


# ---------------------------------------------------------------------------
# Child: set-up and timed passes


def _same_decisions(a, b) -> bool:
    from checks import relative_gap

    return (len(a.objectives) == len(b.objectives)
            and all(relative_gap(x, y) <= PASS_REL_TOL
                    for x, y in zip(a.objectives, b.objectives))
            and relative_gap(a.net_profit, b.net_profit) <= PASS_REL_TOL)


def measure(workload, seconds: float, traced: bool,
            min_passes: int = MIN_PASSES, spans_path=None) -> dict:
    """Run passes over the block for ``seconds`` and summarise them.

    An untraced run goes on until ``seconds`` of pass time are measured
    and ``min_passes`` passes are made (or until the wall-clock cap).
    Every pass makes the same decisions on the same inputs, so a
    decision's times differ only by what the host did meanwhile; on a
    shared host, whose speed drops by up to 1.7x for seconds at a time,
    each decision's fastest time over the passes measures the program
    and not its neighbours.  Latency percentiles are taken over those
    per-decision times.  Throughput divides a pass's work by the sum of
    its fastest *cycles*: a pass splits into one cycle per decision,
    from the decision's start to the next one's (the first cycle also
    holds the pass's start-up, the last its wind-down), so the cycles
    add up to the pass and include the scoring and loop work between
    decisions.

    A traced run makes one untraced pass first, to measure the tracing
    overhead on the same block, then traced passes for ``seconds``, then
    one pass under ``tracemalloc`` for the allocation peaks.
    """
    import numpy as np

    from tracing import Tracer

    cap = time.perf_counter() + seconds + LOOP_SLACK_S
    calibration = workload.run_pass() if traced else None
    tracer = Tracer() if traced else None
    passes = []
    busy = 0.0
    attempted = failed = 0
    problems = []
    while True:
        result = workload.run_pass(tracer)
        if passes and not _same_decisions(result, passes[0]):
            problems.append(f"pass {len(passes) + 1} decided differently "
                            "from pass 1 on the same inputs")
        busy += result.wall
        attempted += len(result.latencies)
        failed += len(result.failed)
        problems.extend(f"pass {len(passes) + 1}: {p}"
                        for p in result.problems)
        passes.append(result)
        enough = busy >= seconds and (traced or len(passes) >= min_passes)
        if enough or time.perf_counter() > cap:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    out = {"objectives": first.objectives, "net_profit": first.net_profit}
    if not traced:
        alike = [p for p in passes if len(p.starts) == len(first.starts)]
        fastest = np.min([p.latencies for p in alike], axis=0)
        cycles = np.min([np.diff([p.begin, *p.starts[1:], p.begin + p.wall])
                         for p in alike], axis=0)
        out["metrics"] = {
            "decision_ms_p50": float(np.percentile(fastest, 50)) * 1e3,
            "decision_ms_p90": float(np.percentile(fastest, 90)) * 1e3,
            "throughput_per_s": first.work / float(cycles.sum()),
            "profit_per_request_usd": first.net_profit / first.requests,
            "peak_mem_mb": peak_rss_mb,
        }
    else:
        allocation = workload.run_pass(measure_alloc=True)
        for extra, label in ((calibration, "untraced"),
                             (allocation, "allocation")):
            attempted += len(extra.latencies)
            failed += len(extra.failed)
            problems.extend(f"{label} pass: {p}" for p in extra.problems)
        out["layer"] = tracer.metrics(
            trace_overhead_s=first.wall - calibration.wall,
            fail_rate=failed / max(attempted, 1),
            setup=workload.setup_times,
            first_plan_s=workload.first_plan_s,
            peak_alloc=allocation.peak_alloc,
        )
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    out.update(attempted=attempted, failed=failed, problems=problems)
    return out


def child_main(args) -> int:
    load_program()
    import workloads
    imported = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.BLOCKS[args.workload])
    workload.build_inputs()
    inputs = time.perf_counter()
    workload.build_dispatcher()
    ready = time.perf_counter()
    workload.setup_times = {
        "imports_s": imported - START,
        "inputs_s": inputs - imported,
        "dispatcher_s": ready - inputs,
    }
    out = {"setup_s": ready - START}
    if args.child == "run":
        spans = (HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
                 if args.trace else None)
        out.update(measure(workload, args.seconds, bool(args.trace),
                           spans_path=spans))
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parent: children, oracle, result line


def run_child(kind: str, args) -> dict:
    """Run this script as a fresh child process and return its report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", kind, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=ROOT, env=dict(os.environ, **ONE_THREAD),
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          check=False, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def oracle_check(args, report: dict) -> list:
    """Problems of a ``fleet_lp`` pass against the dense aggregated LP."""
    if args.workload != "fleet_lp":
        return []
    import workloads
    from checks import oracle_problems

    workload = workloads.FleetLP(args.seed, workloads.BLOCKS["fleet_lp"])
    workload.build_inputs()
    workload.build_dispatcher()
    objectives, net_profit = workload.oracle()
    return oracle_problems(report["objectives"], report["net_profit"],
                           objectives, net_profit)


def declared(section: str) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares in
    ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def metrics_of(report: dict, traced: bool, setups=()) -> dict:
    """The result line's metrics: per-layer when traced, else end-to-end
    with ``setup_s`` the median over the run's set-ups.  A declared
    metric the run did not compute raises ``KeyError``."""
    if traced:
        values = report["layer"]
        units = declared("per_layer")
    else:
        values = dict(report["metrics"],
                      setup_s=statistics.median([report["setup_s"], *setups]))
        units = declared("end_to_end")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def parent_main(args) -> int:
    load_program()
    # Importing here also leaves compiled modules behind, so the
    # children's measured imports never include compiling them.
    import workloads  # noqa: F401

    report = run_child("run", args)
    problems = report["problems"] + oracle_check(args, report)
    setups = [] if args.trace else [
        run_child("setup", args)["setup_s"] for _ in range(SETUP_CHILDREN)]
    metrics = metrics_of(report, bool(args.trace), setups)
    correct = not problems
    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{label}: {report['attempted']} decisions, "
          f"{report['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failed checks")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return child_main(args) if args.child else parent_main(args)
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
