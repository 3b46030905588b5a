"""Output checks, made outside the timed region.

A returned plan must satisfy the paper's constraints (Eqs. 6-8):

* Eq. 6 — dispatched rate of each (class, front-end) pair at most its
  arrivals;
* Eq. 7 — CPU shares of each server sum to at most 1;
* Eq. 8 — the M/M/1 delay ``1 / (phi * C * mu - lambda)`` of every
  loaded (class, server) queue within the class deadline.

The delay is computed here from the topology's tables, not through the
program's own ``DispatchPlan.delays``, so a defect there cannot hide a
defect in the plan.  ``oracle_problems`` compares a ``fleet_lp`` pass to
the dense aggregated LP — the dense-vs-sparse pin at 1e-6.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Relative slack on every constraint; solver tolerances are ~1e-9.
REL_TOL = 1e-6
#: Loads below this are "no traffic" (matches the program's zero tolerance).
LOAD_TOL = 1e-9


def _server_capacity(topology) -> np.ndarray:
    """``(K, N)`` full-share service rate ``C_l * mu_{k,l}`` per server."""
    columns = []
    for dc in topology.datacenters:
        rate = np.asarray(dc.service_rates, dtype=float) * dc.server_capacity
        columns.append(np.repeat(rate[:, None], dc.num_servers, axis=1))
    return np.concatenate(columns, axis=1)


def check_standing_plan(plan) -> str:
    """Eqs. 7 and 8 for ``plan``; an empty string when both hold."""
    topology = plan.topology
    rates = np.asarray(plan.rates, dtype=float)
    shares = np.asarray(plan.shares, dtype=float)
    if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(shares))):
        return "plan holds a non-finite rate or share"
    if np.any(rates < 0.0) or np.any(shares < 0.0):
        return "plan holds a negative rate or share"
    worst_share = float(shares.sum(axis=0).max(initial=0.0))
    if worst_share > 1.0 + REL_TOL:
        return f"Eq. 7: CPU shares of a server sum to {worst_share:.9f} > 1"
    load = rates.sum(axis=1)
    loaded = load > LOAD_TOL
    slack = shares * _server_capacity(topology) - load
    if np.any(loaded & (slack <= 0.0)):
        return "Eq. 8: a loaded queue is unstable (load >= service rate)"
    deadlines = np.array([rc.deadline for rc in topology.request_classes])
    with np.errstate(divide="ignore"):
        delay = np.where(loaded, 1.0 / np.where(loaded, slack, 1.0), 0.0)
    excess = delay / deadlines[:, None]
    worst = float(excess.max(initial=0.0))
    if worst > 1.0 + REL_TOL:
        return f"Eq. 8: a queue's delay is {worst:.9f} x its class deadline"
    return ""


def check_plan(plan, arrivals: np.ndarray) -> str:
    """Eqs. 6-8 for ``plan`` planned on ``arrivals``; "" when all hold."""
    dispatched = np.asarray(plan.rates, dtype=float).sum(axis=2)
    limit = np.asarray(arrivals, dtype=float)
    if np.any(dispatched > limit * (1.0 + REL_TOL) + LOAD_TOL):
        worst = float((dispatched - limit).max())
        return f"Eq. 6: dispatched exceeds arrivals by {worst:.6g}"
    return check_standing_plan(plan)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def oracle_problems(objectives: List[float], net_profit: float,
                    oracle_objectives: List[float],
                    oracle_net_profit: float) -> List[str]:
    """Disagreements beyond 1e-6 relative between a pass and the oracle."""
    problems = []
    if len(objectives) != len(oracle_objectives):
        return [f"oracle solved {len(oracle_objectives)} slots, the pass "
                f"{len(objectives)}"]
    for slot, (got, want) in enumerate(zip(objectives, oracle_objectives)):
        if relative_gap(got, want) > REL_TOL:
            problems.append(f"slot {slot}: objective {got!r} but the dense "
                            f"oracle gives {want!r}")
    if relative_gap(net_profit, oracle_net_profit) > REL_TOL:
        problems.append(f"net profit {net_profit!r} but the dense oracle "
                        f"gives {oracle_net_profit!r}")
    return problems
