"""Google-trace study with two-level TUFs (paper §VII).

Runs the 7-hour Google-like workload through the multi-level MILP
optimizer and the Balanced baseline in the volatile 14:00-19:00 price
window, printing per-hour profits (Fig. 8), completion fractions and the
cost trade-off (Fig. 9 / §VII-B2), and a comparison of the exact MILP
against the paper-literal big-M path and the greedy heuristic.

Run:  python examples/google_twolevel.py
"""

import numpy as np

from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.experiments.section7 import section7_experiment
from repro.sim.metrics import net_profit_series
from repro.utils.tables import render_table


def main() -> None:
    exp = section7_experiment()
    print(exp.description, "\n")
    results = exp.run_comparison()
    opt, bal = results["optimized"], results["balanced"]

    rows = [
        [t, float(net_profit_series(opt.records)[t]),
         float(net_profit_series(bal.records)[t]),
         float(opt.records[t].prices[0]), float(opt.records[t].prices[1])]
        for t in range(exp.trace.num_slots)
    ]
    print(render_table(
        ["hour", "optimized ($)", "balanced ($)", "p(houston)", "p(mtn view)"],
        rows,
        title="Hourly net profit with two-level TUFs (Fig. 8)",
        float_fmt=",.2f",
    ))

    print("\nCompletions and cost (Fig. 9 / paper §VII-B2):")
    print(f"  optimized completes {np.round(opt.completion_fractions * 100, 2)}% "
          f"of each type;  balanced {np.round(bal.completion_fractions * 100, 2)}%")
    print(f"  total cost: optimized ${opt.total_cost:,.0f} vs balanced "
          f"${bal.total_cost:,.0f} (ratio {opt.total_cost / bal.total_cost:.3f})")
    print(f"  net profit: optimized ${opt.total_net_profit:,.0f} vs balanced "
          f"${bal.total_net_profit:,.0f}")

    # Solver-path comparison on one slot.
    arrivals = exp.trace.arrivals_at(2)
    prices = exp.market.prices_at(2)
    print("\nLevel-selection solver paths on hour 2 (same slot problem):")
    for label, config in [
        ("exact MILP (HiGHS)", OptimizerConfig(level_method="milp")),
        ("exact MILP (own B&B)",
         OptimizerConfig(level_method="milp", milp_method="bb")),
        ("paper big-M + repair", OptimizerConfig(level_method="bigm")),
        ("greedy level search", OptimizerConfig(level_method="greedy")),
    ]:
        optimizer = ProfitAwareOptimizer(exp.topology, config=config)
        plan = optimizer.plan_slot(arrivals, prices, slot_duration=1.0)
        profit = evaluate_plan(plan, arrivals, prices).net_profit
        print(f"  {label:>22s}: ${profit:,.0f} "
              f"({optimizer.last_stats.total_time * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
