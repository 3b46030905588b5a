"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``prices`` — print the Fig.-1 electricity price curves;
* ``section5 [--regime low|high]`` — the §V basic-characteristics study;
* ``section6`` — the §VI World-Cup day (Optimized vs Balanced);
* ``section7`` — the §VII Google-trace study with two-level TUFs;
* ``validate`` — M/M/1 model (Eq. 1) vs discrete-event simulation;
* ``sweep [--servers 2,4,6,...]`` — capacity sweep on the §VII workload;
* ``trace [--out traces.jsonl] [--sparse]`` — run a scenario with
  telemetry on and dump per-slot :class:`~repro.obs.trace.SlotTrace`
  records as JSONL (``--sparse`` routes slot LPs through the sparse
  path, one compiled program warm-restarted every slot, whose phases
  split into build, solve and expand);
* ``stream [--policy periodic|drift|margin]`` — the sub-slot streaming
  control plane (:mod:`repro.stream`); re-plans on drift/margin decay
  instead of the wall clock;
* ``lint [PATH ...]`` — run the :mod:`repro.analysis` domain-aware
  static-analysis pass (``reprolint``); exits 1 on findings;
* ``audit [--scenario ...]`` — run the :mod:`repro.analysis.model`
  formulation auditor on one slot problem (big-M tightness, units,
  matrix diagnostics, feasibility); exits 1 on MD errors;
* ``bench [--all|--scenario ...]`` — run the canonical perf-benchmark
  scenarios (:mod:`repro.bench`), emit ``BENCH_<scenario>.json``, and
  optionally gate against committed baselines; exits 1 on regressions.

Every command lives in a :func:`repro.cli_registry.register_subcommand`
registration — the core ones below, the subsystem ones
(``lint``/``audit``/``bench``/``stream``) in their own packages'
``cli`` modules, imported here for the registration side effect.
:func:`build_parser` and :func:`main` are both derived from the
registry, so adding a command never edits this module's dispatch code.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.cli_registry import (
    SCENARIOS,
    get_subcommand,
    register_subcommand,
    registered_subcommands,
    scenario_experiment,
)
from repro.utils.ascii_plot import line_chart, sparkline
from repro.utils.tables import render_table

__all__ = ["build_parser", "main", "register_subcommand"]


# --------------------------------------------------------------- commands


@register_subcommand("prices", help_text="Fig. 1 electricity price curves")
def _cmd_prices(args: argparse.Namespace) -> int:
    from repro.market.prices import paper_locations
    rows = []
    for name, trace in paper_locations().items():
        rows.append([name, trace.mean(), trace.prices.min(),
                     trace.prices.max(), sparkline(trace.prices)])
    print(render_table(
        ["location", "mean $/kWh", "min", "max", "day shape"],
        rows, title="Fig. 1: electricity prices over one day",
    ))
    return 0


def _configure_section5(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--regime", choices=["low", "high"], default="low")


@register_subcommand("section5",
                     help_text="§V basic characteristics study",
                     configure=_configure_section5)
def _cmd_section5(args: argparse.Namespace) -> int:
    from repro.experiments.section5 import section5_experiment
    results = section5_experiment(args.regime).run_comparison()
    rows = [
        [name, r.total_net_profit, r.requests_processed,
         float(r.completion_fractions.min()) * 100.0]
        for name, r in results.items()
    ]
    print(render_table(
        ["approach", "net profit ($)", "requests served", "min completion %"],
        rows, title=f"Section V ({args.regime} arrival rates)",
        float_fmt=",.0f",
    ))
    return 0


def _run_comparison_command(exp: Any) -> int:
    results = exp.run_comparison()
    opt, bal = results["optimized"], results["balanced"]
    print(exp.description, "\n")
    print(line_chart(
        {"optimized": opt.net_profit_series, "balanced": bal.net_profit_series},
        title="hourly net profit ($)", height=10,
        width=max(24, exp.trace.num_slots * 3),
    ))
    print()
    rows = [
        [name, r.total_net_profit, r.total_cost,
         float(r.completion_fractions.min()) * 100.0]
        for name, r in results.items()
    ]
    print(render_table(
        ["approach", "net profit ($)", "total cost ($)", "min completion %"],
        rows, float_fmt=",.0f",
    ))
    return 0


def _configure_section6(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1998)


@register_subcommand("section6", help_text="§VI World-Cup day study",
                     configure=_configure_section6)
def _cmd_section6(args: argparse.Namespace) -> int:
    from repro.experiments.section6 import section6_experiment
    return _run_comparison_command(section6_experiment(seed=args.seed))


def _configure_section7(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--load-scale", type=float, default=1.0)
    parser.add_argument("--capacity-scale", type=float, default=1.0)


@register_subcommand("section7", help_text="§VII Google-trace study",
                     configure=_configure_section7)
def _cmd_section7(args: argparse.Namespace) -> int:
    from repro.experiments.section7 import section7_experiment
    return _run_comparison_command(section7_experiment(
        seed=args.seed, load_scale=args.load_scale,
        capacity_scale=args.capacity_scale,
    ))


def _configure_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--utilization", type=float, default=0.7)
    parser.add_argument("--horizon", type=float, default=2000.0)


@register_subcommand("validate",
                     help_text="Eq. 1 vs discrete-event simulation",
                     configure=_configure_validate)
def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.queueing.validation import compare_with_des
    if not 0.0 < args.utilization < 1.0:
        print("error: --utilization must be in (0, 1)", file=sys.stderr)
        return 2
    rows = []
    for mu in (5.0, 20.0, 80.0):
        for discipline in ("ps", "fcfs"):
            cmp = compare_with_des(
                service_rate=mu, arrival_rate=args.utilization * mu,
                horizon=args.horizon, discipline=discipline,
            )
            rows.append([
                f"mu={mu:g} {discipline}", cmp.analytic_mean,
                cmp.simulated_mean, cmp.samples,
                cmp.relative_error * 100.0,
            ])
    print(render_table(
        ["queue", "Eq.1 delay", "simulated", "jobs", "error %"],
        rows, title=f"M/M/1 validation at utilization {args.utilization:g}",
    ))
    return 0


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=str, default="2,4,6,8")


@register_subcommand("sweep",
                     help_text="capacity sweep on the §VII workload",
                     configure=_configure_sweep)
def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
    from repro.experiments.section7 import section7_experiment
    from repro.sim.slotted import run_simulation
    try:
        counts = [int(tok) for tok in args.servers.split(",") if tok.strip()]
    except ValueError:
        print(f"error: bad --servers list {args.servers!r}", file=sys.stderr)
        return 2
    if not counts or any(c < 1 for c in counts):
        print("error: --servers needs positive integers", file=sys.stderr)
        return 2
    rows = []
    for m in counts:
        exp = section7_experiment()
        topo = exp.topology.with_servers_per_datacenter(m)
        result = run_simulation(
            ProfitAwareOptimizer(topo, config=OptimizerConfig(consolidate=True)),
            exp.trace, exp.market,
        )
        rows.append([
            m * exp.topology.num_datacenters,
            result.total_net_profit,
            float(result.completion_fractions.min()) * 100.0,
        ])
    print(render_table(
        ["fleet size", "7h net profit ($)", "min completion %"],
        rows, title="Capacity sweep (section VII workload)", float_fmt=",.0f",
    ))
    return 0


def _configure_reproduce(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default="results")
    parser.add_argument("--skip-slow", action="store_true",
                        help="skip the computation-time sweep (Fig. 11)")


@register_subcommand(
    "reproduce",
    help_text="regenerate every paper figure's data series into a directory",
    configure=_configure_reproduce,
)
def _cmd_reproduce(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from repro.experiments import figures

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, lines: Any) -> None:
        path = out / f"{name}.txt"
        path.write_text("\n".join(str(line) for line in lines) + "\n")
        print(f"wrote {path}")

    def fmt_series(mapping: Any) -> list:
        return [
            f"{key}: " + " ".join(f"{float(v):.6g}" for v in np.ravel(val))
            for key, val in mapping.items()
        ]

    write("fig01_prices", fmt_series(figures.fig1_price_series()))
    for regime in ("low", "high"):
        data = figures.fig4_basic_profit(regime)
        write(f"fig04_{regime}", [
            f"{name}: net={vals['net_profit']:.2f} "
            f"served={vals['requests_processed']:.0f} "
            f"cost={vals['total_cost']:.2f}"
            for name, vals in data.items()
        ])
    write("fig05_traces", fmt_series(figures.fig5_trace_series()))
    write("fig06_worldcup_profit", fmt_series(figures.fig6_profit_series()))
    fig7 = figures.fig7_request1_allocation()
    write("fig07_dispatch", [
        f"{approach}/{dc}: " + " ".join(f"{v:.6g}" for v in series)
        for approach, per_dc in fig7.items()
        for dc, series in per_dc.items()
    ])
    write("fig08_google_profit", fmt_series(figures.fig8_profit_series()))
    study = figures.fig9_allocations()
    write("fig09_allocations", [
        f"completion {name}: {np.round(frac, 4).tolist()}"
        for name, frac in study.completion.items()
    ] + [
        f"cost_ratio: {study.cost_ratio:.4f}",
        f"net_profit: {study.net_profit}",
    ])
    for regime in ("low", "high"):
        write(f"fig10_{regime}",
              fmt_series(figures.fig10_workload_effect(regime)))
    if not args.skip_slow:
        times = figures.fig11_computation_time(
            server_counts=(1, 2, 3, 4), repeats=1, milp_method="bb"
        )
        write("fig11_computation_time",
              [f"servers={m}: {seconds:.4f}s" for m, seconds in times.items()])
    print(f"done: series written to {out}/")
    return 0


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario",
                        choices=SCENARIOS,
                        default="section6",
                        help="experiment to trace (default: the 24-slot "
                             "§VI day)")
    parser.add_argument("--slots", type=int, default=None,
                        help="number of slots (default: the whole trace)")
    parser.add_argument("--out", type=str, default=None,
                        help="write SlotTrace records to this JSONL file")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size; per-worker collectors are "
                             "merged at the barrier (default 1: serial)")
    parser.add_argument("--level-method", type=str, default="auto",
                        choices=["auto", "lp", "milp", "bigm", "greedy"])
    parser.add_argument("--lp-method", type=str, default="simplex",
                        choices=["highs", "simplex", "ipm"],
                        help="LP backend (default 'simplex': warm-startable, "
                             "so cross-slot hits show up in the traces)")
    parser.add_argument("--iteration-budget", type=int, default=None,
                        help="iteration/node cap for the primary solver; a "
                             "tiny value forces failures so the fallback "
                             "chain shows up in the traces")
    parser.add_argument("--sparse", action="store_true",
                        help="route slot LPs through the sparse path: one "
                             "compiled program, warm-restarted every slot "
                             "(phases build/solve/expand)")


@register_subcommand(
    "trace",
    help_text="run a scenario with telemetry on and dump per-slot traces",
    configure=_configure_trace,
)
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.optimizer import OptimizerConfig
    from repro.obs import InMemoryCollector, write_traces

    if args.workers < 1:
        print(
            f"error: --workers must be >= 1 (got {args.workers}); "
            "use --workers 1 for a serial run",
            file=sys.stderr,
        )
        return 2
    if args.iteration_budget is not None and args.iteration_budget < 1:
        print(
            f"error: --iteration-budget must be >= 1 (got "
            f"{args.iteration_budget}); omit it for unbounded solves",
            file=sys.stderr,
        )
        return 2
    exp = scenario_experiment(args.scenario)
    config = OptimizerConfig(level_method=args.level_method,
                             lp_method=args.lp_method,
                             sparse=args.sparse,
                             solver_iteration_budget=args.iteration_budget)
    collector = InMemoryCollector()
    if args.workers == 1:
        from repro.sim.slotted import run_simulation
        run_simulation(
            exp.optimizer(config=config), exp.trace, exp.market,
            num_slots=args.slots, collector=collector,
        )
    else:
        from repro.sim.parallel import DispatcherSpec, parallel_run_simulation
        parallel_run_simulation(
            exp.topology, DispatcherSpec("optimized", {"config": config}),
            exp.trace, exp.market,
            num_slots=args.slots, workers=args.workers, collector=collector,
        )

    traces = collector.slot_traces
    rows = [
        [t.slot, t.method, t.warm_start, t.fallback, t.fallback_stage,
         t.iterations, t.objective, t.total_time * 1e3,
         t.phase_time_total * 1e3]
        for t in traces
    ]
    print(render_table(
        ["slot", "method", "warm", "fb", "stage", "iters", "objective ($)",
         "total ms", "phases ms"],
        rows, title=f"{exp.name}: per-slot solver traces", float_fmt=",.2f",
    ))
    warm = collector.warm_start_counts()
    print("\nwarm-start outcomes: "
          + ", ".join(f"{k}={v}" for k, v in sorted(warm.items())))
    fallback = collector.fallback_counts()
    print("fallback levels: "
          + ", ".join(f"level{k}={v}" for k, v in sorted(fallback.items())))
    interesting = {
        name: value for name, value in sorted(collector.counters.items())
        if not name.startswith("controller.")
    }
    if interesting:
        print("counters: "
              + ", ".join(f"{k}={v:g}" for k, v in interesting.items()))
    if args.out is not None:
        count = write_traces(traces, args.out)
        print(f"wrote {count} trace records to {args.out}")
    return 0


# ------------------------------------------------- registry-driven wiring

# Importing the subsystem CLI modules registers their subcommands
# (lint, audit, certify, arch, check, bench, stream).  Order here is
# display order in --help.
import repro.analysis.cli  # noqa: E402,F401  (registration side effect)
import repro.bench.cli  # noqa: E402,F401
import repro.stream.cli  # noqa: E402,F401


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser from the registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Profit-aware load balancing for distributed cloud data "
            "centers (IPDPS-W 2013 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in registered_subcommands():
        sub_parser = sub.add_parser(command.name, help=command.help_text)
        if command.configure is not None:
            command.configure(sub_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return get_subcommand(args.command).run(args)
