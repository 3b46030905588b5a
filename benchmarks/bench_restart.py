"""Micro-timing of the compiled slot LP's warm restart.

Two recorded solve sequences are replayed through the layer they run
in, one compiled :class:`~repro.solvers.sparse.SparseProgram` each:

* ``levels`` — the §VII day's level-search node LPs on its 8 x 8
  program: every node is :meth:`~repro.core.formulation.LevelFill.fill`
  then :meth:`SparseProgram.solve`, each offered the token the search
  offered it;
* ``slots`` — the §VI day's 24 slot LPs on its 24 x 45 program, each
  restarted from the previous slot's token.

The sequences are recorded once, from the optimizer itself; the replays
time nothing but ``fill`` and ``solve``.  Each repeat compiles a fresh
program, so every repeat pays its own first visit of every basis.  Per
sequence the record holds µs per zero-pivot warm hit (median), µs per
pivot (the warm solves' time above that median, per pivot), µs per node
LP (mean of ``fill`` plus ``solve``) and inversions per warm start
(``np.linalg.inv`` calls inside solves offered a token, counted by
wrapping it from outside, on one repeat).

Run directly for a JSON record::

    PYTHONPATH=src python benchmarks/bench_restart.py --quick
    PYTHONPATH=src python benchmarks/bench_restart.py --output restart.json

Pointing ``PYTHONPATH`` at another checkout's ``src`` times that
checkout on the same replay.  Through pytest
(``pytest benchmarks/bench_restart.py``) it checks correctness only:
every replayed solution must be byte-identical to a replay through a
freshly compiled program whose memo of basis inverses is emptied before
every solve.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import OptimizerConfig
from repro.core.formulation import FixedLevelLPCache, LevelFill, SlotInputs
from repro.core.optimizer import ProfitAwareOptimizer
from repro.experiments.section6 import section6_experiment
from repro.experiments.section7 import section7_experiment
from repro.solvers.base import LinearProgram
from repro.solvers.sparse import SparseProgram

#: One replayed event: ``("fill", prefix, accepted)`` or
#: ``("solve", index of the solve whose token is offered, or None)``.
Event = Tuple

#: One sequence: its name, the formulation cache and slot inputs it was
#: recorded on, and each slot's events.
Recording = Dict


@contextmanager
def _patched(owner, name, wrapper):
    original = getattr(owner, name)
    setattr(owner, name, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _record(optimizer: ProfitAwareOptimizer, slots, duration: float,
            with_fills: bool) -> List[List[Event]]:
    """Run ``slots`` through ``optimizer`` and record each slot's fills
    and solves, with the solve whose token each solve was offered."""
    events: List[List[Event]] = []
    tokens: Dict[int, int] = {}
    keep: List[object] = []  # holds every token, so no id is reused

    def wrap_solve(solve):
        def recorded(program, lp, state=None, collector=None,
                     max_iterations=None):
            solution = solve(program, lp, state=state, collector=collector,
                             max_iterations=max_iterations)
            source = None if state is None else tokens[id(state)]
            events[-1].append(("solve", source))
            if solution.state is not None:
                tokens[id(solution.state)] = len(keep)
            keep.append(solution.state)
            return solution
        return recorded

    def wrap_fill(fill):
        def recorded(nodes, prefix):
            accepted = fill(nodes, prefix)
            events[-1].append(("fill", tuple(prefix), accepted))
            return accepted
        return recorded

    with _patched(SparseProgram, "solve", wrap_solve), \
            _patched(LevelFill, "fill", wrap_fill):
        for arrivals, prices in slots:
            events.append([])
            optimizer.plan_slot(arrivals, prices, slot_duration=duration)
    if not with_fills:
        for slot in events:
            assert all(e[0] == "solve" for e in slot), slot
    return events


def record_levels() -> Recording:
    """The §VII day's level search (8 x 8 program)."""
    exp = section7_experiment()
    slots = [(exp.trace.arrivals_at(t), exp.market.prices_at(t))
             for t in range(exp.trace.num_slots)]
    optimizer = exp.optimizer(config=OptimizerConfig())
    events = _record(optimizer, slots, 1.0, with_fills=True)
    cache = FixedLevelLPCache(exp.topology, sparse=True)
    inputs = [SlotInputs(exp.topology, arrivals=a, prices=p)
              for a, p in slots]
    return {"name": "levels", "cache": cache, "inputs": inputs,
            "events": events}


def record_slots() -> Recording:
    """The §VI day's slot LPs (24 x 45 program)."""
    exp = section6_experiment()
    slots = [(exp.trace.arrivals_at(t), exp.market.prices_at(t))
             for t in range(exp.trace.num_slots)]
    duration = exp.trace.slot_duration
    optimizer = ProfitAwareOptimizer(
        exp.topology, config=OptimizerConfig(sparse=True))
    events = _record(optimizer, slots, duration, with_fills=False)
    cache = FixedLevelLPCache(exp.topology, sparse=True)
    inputs = [SlotInputs(exp.topology, arrivals=a, prices=p,
                         slot_duration=duration) for a, p in slots]
    return {"name": "slots", "cache": cache, "inputs": inputs,
            "events": events}


def _slot_programs(recording: Recording) -> List[object]:
    """Per slot, the level fill (``levels``) or the built LP (``slots``)."""
    cache = recording["cache"]
    if recording["name"] == "levels":
        return [cache.level_fill(inputs) for inputs in recording["inputs"]]
    return [cache.build(inputs)[0] for inputs in recording["inputs"]]


def _empty_memo(program: SparseProgram) -> None:
    memo = getattr(program, "inverses", None)
    if memo is not None:
        memo.clear()


def replay(recording: Recording, program: Optional[SparseProgram] = None,
           forget: bool = False):
    """Replay ``recording`` on ``program`` (compiled here when ``None``).

    Returns the solutions and, per solve, ``(fill_s, solve_s)``: the
    time of the fills since the previous solve, and of the solve.
    ``forget`` empties the program's memo of basis inverses before
    every solve.
    """
    slot_lps = _slot_programs(recording)
    solutions: List[object] = []
    times: List[Tuple[float, float]] = []
    for slot_lp, events in zip(slot_lps, recording["events"]):
        nodes: Optional[LevelFill] = None
        if isinstance(slot_lp, LinearProgram):
            lp = slot_lp
        else:
            nodes, lp = slot_lp, slot_lp.lp
        if program is None:
            program = SparseProgram.compile(lp)
        fill_s = 0.0
        for event in events:
            if event[0] == "fill":
                assert nodes is not None
                t0 = time.perf_counter()
                accepted = nodes.fill(event[1])
                fill_s += time.perf_counter() - t0
                assert accepted == event[2], event
                continue
            state = None if event[1] is None else solutions[event[1]].state
            if forget:
                _empty_memo(program)
            t0 = time.perf_counter()
            solution = program.solve(lp, state=state)
            times.append((fill_s, time.perf_counter() - t0))
            fill_s = 0.0
            solutions.append(solution)
    return solutions, times, program


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def same_solution(got, ref) -> bool:
    """Byte-for-byte equality of two solutions and their tokens."""
    if (got.status, got.message, got.iterations, got.warm_start_used) != (
            ref.status, ref.message, ref.iterations, ref.warm_start_used):
        return False
    if not (_same(got.x, ref.x) and _same(got.objective, ref.objective)
            and _same(got.ineq_marginals, ref.ineq_marginals)):
        return False
    if (got.state is None) != (ref.state is None):
        return False
    if got.state is None:
        return True
    return (got.state.method == ref.state.method
            and tuple(got.state.signature) == tuple(ref.state.signature)
            and all(_same(getattr(got.state, f), getattr(ref.state, f))
                    for f in ("basis", "slack", "dual", "point")))


def byte_identical(recording: Recording) -> bool:
    """Whether two replays on one program (the second on its filled
    memo) equal a replay that empties the memo before every solve."""
    ref, _, _ = replay(recording, forget=True)
    first, _, program = replay(recording)
    second, _, _ = replay(recording, program=program)
    return all(same_solution(got, want)
               for run in (first, second) for got, want in zip(run, ref))


def count_inversions(recording: Recording) -> Dict[str, int]:
    """``np.linalg.inv`` calls inside solves offered a token, on one
    replay through a freshly compiled program."""
    counts = {"inversions": 0, "warm_starts": 0}
    inside = [False]

    def wrap_inv(inv):
        def counted(*args, **kwargs):
            counts["inversions"] += inside[0]
            return inv(*args, **kwargs)
        return counted

    def wrap_solve(solve):
        def counted(program, lp, state=None, **kwargs):
            inside[0] = state is not None
            counts["warm_starts"] += inside[0]
            try:
                return solve(program, lp, state=state, **kwargs)
            finally:
                inside[0] = False
        return counted

    with _patched(np.linalg, "inv", wrap_inv), \
            _patched(SparseProgram, "solve", wrap_solve):
        replay(recording)
    return counts


def measure(recording: Recording, repeats: int) -> Dict:
    """Time ``repeats`` replays, each on a freshly compiled program."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    replay(recording)  # warm up imports and lazy set-up
    runs = []
    for _ in range(repeats):
        solutions, times, _ = replay(recording)
        runs.append(np.array(times))
    per_call = np.median(np.stack(runs), axis=0)  # (solves, 2)
    fill_s, solve_s = per_call[:, 0], per_call[:, 1]
    warm = np.array([s.warm_start_used for s in solutions])
    pivots = np.array([s.iterations for s in solutions])
    hits = warm & (pivots == 0)
    hit_s = float(np.median(solve_s[hits])) if hits.any() else float("nan")
    pivoting = warm & (pivots > 0)
    pivot_s = (float((solve_s[pivoting] - hit_s).sum()
                     / pivots[pivoting].sum())
               if pivoting.any() else float("nan"))
    counts = count_inversions(recording)
    n, m, _ = solutions[0].state.signature
    return {
        "name": recording["name"],
        "shape": [int(m), int(n)],
        "solves": int(len(solutions)),
        "warm_starts": counts["warm_starts"],
        "zero_pivot_warm_hits": int(hits.sum()),
        "pivots": int(pivots.sum()),
        "warm_hit_us": hit_s * 1e6,
        "pivot_us": pivot_s * 1e6,
        "node_lp_us": float((fill_s + solve_s).mean() * 1e6),
        "inversions": counts["inversions"],
        "inversions_per_warm_start": (
            counts["inversions"] / counts["warm_starts"]
            if counts["warm_starts"] else float("nan")),
    }


def run(repeats: int) -> Dict:
    """The JSON record: both sequences' timings and the identity flag."""
    recordings = [record_levels(), record_slots()]
    return {
        "benchmark": "restart",
        "repeats": int(repeats),
        "byte_identical": all(byte_identical(r) for r in recordings),
        "programs": [measure(r, repeats) for r in recordings],
    }


def _lines(record: Dict) -> List[str]:
    lines = []
    for p in record["programs"]:
        lines.append(
            f"{p['name']:>6s} {p['shape'][0]:>2d} x {p['shape'][1]:<2d}: "
            f"warm hit {p['warm_hit_us']:7.1f} us | "
            f"pivot {p['pivot_us']:7.1f} us | "
            f"node LP {p['node_lp_us']:7.1f} us | "
            f"{p['inversions']} inversions / {p['warm_starts']} warm starts"
        )
    lines.append(f"byte-identical to a memo-free replay: "
                 f"{record['byte_identical']}")
    return lines


def test_replays_are_byte_identical_to_a_memo_free_program(report):
    for recording in (record_levels(), record_slots()):
        assert byte_identical(recording), recording["name"]
        solutions, _, _ = replay(recording)
        assert any(s.warm_start_used for s in solutions)
    record = run(repeats=1)
    report("Warm restart micro-timing (one repeat, informational)",
           _lines(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Micro-timing of the compiled slot LP's warm restart."
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke run)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", type=str, default=None,
                        help="write the JSON record here instead of stdout")
    args = parser.parse_args(argv)
    repeats = (args.repeats if args.repeats is not None
               else (5 if args.quick else 30))
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    record = run(repeats)
    payload = json.dumps(record, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
        print("\n".join(_lines(record)))
    else:
        print(payload)
    if not record["byte_identical"]:
        print("FAIL: a replayed solution differs from the memo-free replay",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
