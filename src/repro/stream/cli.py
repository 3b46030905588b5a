"""The ``repro stream`` subcommand: run the streaming control plane.

Runs a scenario's workload through :class:`StreamingController` under a
chosen policy and prints per-slot profits plus the streaming counters
(full solves, repairs, shed requests, drift events, estimator error).
``--json`` writes the summary as machine-readable JSON for CI smoke
assertions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

from repro.cli_registry import (
    SCENARIOS,
    register_subcommand,
    scenario_experiment,
)

__all__ = ["add_stream_arguments", "run_stream"]


def add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the stream options to a (sub)parser."""
    parser.add_argument(
        "--scenario", choices=SCENARIOS,
        default="section6",
        help="experiment supplying workload/market (default: the §VI day)",
    )
    parser.add_argument(
        "--policy", choices=["periodic", "drift", "margin"],
        default="drift",
        help="control policy deciding when to re-plan (default: drift)",
    )
    parser.add_argument(
        "--slots", type=int, default=None,
        help="number of slots to stream (default: the whole trace)",
    )
    parser.add_argument(
        "--ticks-per-slot", type=int, default=12,
        help="sub-slot ticks per slot (default 12: 5-minute ticks on "
             "the hourly grid)",
    )
    parser.add_argument(
        "--synthesis", choices=["fluid", "poisson"], default="fluid",
        help="arrival synthesis: deterministic fluid rates or seeded "
             "Poisson counts (default: fluid)",
    )
    parser.add_argument(
        "--estimation", choices=["oracle", "online"], default="oracle",
        help="plan on true slot rates (oracle) or on the online "
             "estimator bank (default: oracle)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the poisson arrival synthesis (default 0)",
    )
    parser.add_argument(
        "--no-admission", action="store_true",
        help="disable MD043 deadline-safe-capacity shedding",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write the run summary as JSON to this path ('-' = stdout)",
    )


@register_subcommand(
    "stream",
    help_text="streaming control plane: sub-slot ticks, policy-driven "
              "re-planning; see --policy",
    configure=add_stream_arguments,
)
def run_stream(args: argparse.Namespace) -> int:
    """Execute the stream subcommand; returns a process exit code."""
    from repro.stream.controller import StreamingController
    from repro.stream.policy import make_policy
    from repro.utils.tables import render_table

    if args.ticks_per_slot < 1:
        print(
            f"error: --ticks-per-slot must be >= 1 "
            f"(got {args.ticks_per_slot})",
            file=sys.stderr,
        )
        return 2
    if args.slots is not None and args.slots < 1:
        print(f"error: --slots must be >= 1 (got {args.slots})",
              file=sys.stderr)
        return 2

    exp = scenario_experiment(args.scenario)
    controller = StreamingController(
        exp.optimizer(), exp.trace, exp.market,
        make_policy(args.policy),
        ticks_per_slot=args.ticks_per_slot,
        synthesis=args.synthesis,
        seed=args.seed,
        estimation=args.estimation,
        admission=not args.no_admission,
    )
    result = controller.run(num_slots=args.slots)

    rows = [
        [r.slot, r.outcome.net_profit, r.outcome.revenue,
         r.outcome.total_cost,
         float(r.outcome.completion_fractions.min()) * 100.0]
        for r in result.records
    ]
    print(render_table(
        ["slot", "net profit ($)", "revenue ($)", "cost ($)",
         "min completion %"],
        rows,
        title=f"{exp.name}: streaming run ({result.policy} policy, "
              f"{controller.source.ticks_per_slot} ticks/slot)",
        float_fmt=",.2f",
    ))
    print(
        f"\ntotal net profit: ${result.total_net_profit:,.2f} over "
        f"{result.num_slots} slots / {result.ticks} ticks"
    )
    print(
        f"control actions: full_solves={result.full_solves} "
        f"repairs={result.repairs} "
        f"repair_escalations={result.repair_escalations}"
    )
    print(
        f"signals: drift_events={result.drift_events} "
        f"shed_requests={result.shed_requests:,.1f} "
        f"estimator_rel_error={result.estimator_rel_error:.4f}"
    )

    if args.json is not None:
        summary: Dict[str, Any] = {
            "scenario": args.scenario,
            "policy": result.policy,
            "slots": result.num_slots,
            "ticks": result.ticks,
            "full_solves": result.full_solves,
            "repairs": result.repairs,
            "repair_escalations": result.repair_escalations,
            "drift_events": result.drift_events,
            "shed_requests": result.shed_requests,
            "estimator_rel_error": result.estimator_rel_error,
            "total_net_profit": result.total_net_profit,
        }
        payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"wrote summary to {args.json}")
    return 0
