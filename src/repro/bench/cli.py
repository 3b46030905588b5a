"""The ``repro bench`` subcommand.

Runs canonical scenarios from :mod:`repro.bench.scenarios`, each in a
fresh child process, writes one schema-versioned
``BENCH_<scenario>.json`` per scenario into ``--out``, and (with
``--check``) compares each fresh record against the committed baseline
of the same name in ``--baseline-dir``.

Exit codes follow the repo's analysis CLIs: ``0`` clean, ``1`` a
regression / rejected baseline / failed scenario, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.schema import bench_filename, compare_records, load_record
from repro.bench.scenarios import SCENARIOS, available_scenarios, run_scenario
from repro.cli_registry import register_subcommand

__all__ = ["add_bench_arguments", "run_bench"]

#: Default regression tolerance (fraction) for ``--check``.
DEFAULT_TOLERANCE = 0.25


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to an (sub)parser."""
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable); see --list for the catalog",
    )
    parser.add_argument(
        "--all", action="store_true", dest="run_all",
        help="run every scenario in the catalog",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down workloads for CI (records are marked mode=smoke)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override every scenario's canonical seed",
    )
    parser.add_argument(
        "--out", type=str, default=".", metavar="DIR",
        help="directory receiving BENCH_<scenario>.json (default: .)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh records against committed baselines",
    )
    parser.add_argument(
        "--baseline-dir", type=str, default=".", metavar="DIR",
        help="directory holding the baseline BENCH_*.json (default: .)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional regression for --check "
             f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the scenario catalog and exit",
    )


def _print_catalog() -> None:
    width = max(len(name) for name in available_scenarios())
    for name in available_scenarios():
        print(f"{name:<{width}}  {SCENARIOS[name].description}")


def _summarize(record: Dict[str, Any]) -> str:
    timing = record["timing"]
    parts = [f"{record['scenario']}: {timing['wall_s']:.4f}s"]
    for name, value in sorted(timing.get("throughput", {}).items()):
        parts.append(f"{name}={value:,.0f}")
    for name, value in sorted(timing.get("ratios", {}).items()):
        parts.append(f"{name}={value:.2f}x")
    parts.append(f"rss={timing['peak_rss_mb']:.0f}MiB")
    return "  ".join(parts)


def _run_isolated(name: str, mode: str, seed: Optional[int]) -> Dict[str, Any]:
    """Run one scenario in a fresh child process and return its record.

    ``peak_rss_mb`` reads the process-lifetime ``ru_maxrss``, so only a
    process of its own gives a scenario its own peak.  The child comes
    from a forkserver where the platform has one: Linux folds a parent's
    resident size into the ``ru_maxrss`` of a fork+exec child, and the
    forkserver stays small.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(run_scenario, name, mode=mode, seed=seed).result()


@register_subcommand(
    "bench",
    help_text="canonical perf-benchmark suite emitting BENCH_*.json; "
              "exit 1 on baseline regressions",
    configure=add_bench_arguments,
)
def run_bench(args: argparse.Namespace) -> int:
    """Execute the bench subcommand; returns a process exit code."""
    if args.list_scenarios:
        _print_catalog()
        return 0
    if args.run_all and args.scenario:
        print("error: pass either --all or --scenario, not both",
              file=sys.stderr)
        return 2
    if not args.run_all and not args.scenario:
        print("error: nothing to run; pass --all, --scenario NAME, or "
              "--list", file=sys.stderr)
        return 2
    if args.tolerance < 0:
        print(f"error: --tolerance must be >= 0 (got {args.tolerance})",
              file=sys.stderr)
        return 2
    if args.run_all:
        names = available_scenarios()
    else:
        names = list(dict.fromkeys(args.scenario))
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(available_scenarios())}",
                file=sys.stderr,
            )
            return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    failures: List[str] = []
    for name in names:
        record = _run_isolated(name, mode, args.seed)
        path = out_dir / bench_filename(name)
        with path.open("w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(_summarize(record))
        print(f"  wrote {path}")
        if not args.check:
            continue
        baseline_path = Path(args.baseline_dir) / bench_filename(name)
        if not baseline_path.exists():
            print(f"  warning: no baseline at {baseline_path}; "
                  "comparison skipped")
            continue
        try:
            baseline = load_record(baseline_path)
        except (ValueError, json.JSONDecodeError) as exc:
            failures.append(f"{name}: baseline {baseline_path} rejected: {exc}")
            print(f"  FAIL baseline rejected: {exc}")
            continue
        comparison = compare_records(baseline, record,
                                     tolerance=args.tolerance)
        for note in comparison.notes:
            print(f"  note: {note}")
        if comparison.ok:
            print(f"  check vs {baseline_path}: OK "
                  f"(tolerance {args.tolerance:.0%})")
        else:
            for problem in comparison.problems:
                print(f"  FAIL {problem}")
            failures.extend(f"{name}: {p}" for p in comparison.problems)

    if failures:
        print(f"\n{len(failures)} benchmark check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0
