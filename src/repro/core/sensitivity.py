"""Shadow-price (dual) analysis of the slot problem.

The slot LP's dual values answer the provider's planning questions
directly in dollars per slot:

* **server value** — how much net profit would one more server at data
  center ``l`` add?  (Combines the CPU-share budget dual with the
  delay-constraint duals, both of which scale with ``M_l``.)
* **demand value** — how much is one more offered request per time unit
  of class ``k`` at front-end ``s`` worth?  (The arrival-cap dual; zero
  when the class is not worth serving or the cap is slack.)
* **share value** — the marginal worth of raw CPU-share mass at ``l``.

Only meaningful on the LP path (one-level TUFs or a fixed level
assignment); duals come from the HiGHS backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.formulation import SlotInputs, fixed_level_lp
from repro.solvers.base import SolverError
from repro.solvers.linprog import solve_lp

__all__ = ["SlotSensitivity", "slot_sensitivity"]


@dataclass(frozen=True)
class SlotSensitivity:
    """Dollar-per-slot shadow prices of the slot LP's resources."""

    net_profit: float
    #: (L,) marginal profit of one extra unit of CPU-share mass at l.
    share_mass_value: np.ndarray = field(repr=False)
    #: (L,) marginal profit of one extra physical server at l.
    server_value: np.ndarray = field(repr=False)
    #: (K, S) marginal profit of one extra offered request per time unit.
    demand_value: np.ndarray = field(repr=False)
    #: (K, L) duals of the delay constraints (0 when slack).
    delay_duals: np.ndarray = field(repr=False)

    def most_valuable_expansion(self) -> int:
        """Data-center index where an extra server pays the most."""
        return int(np.argmax(self.server_value))


def slot_sensitivity(
    inputs: SlotInputs, levels: Optional[np.ndarray] = None
) -> SlotSensitivity:
    """Solve the (aggregated) slot LP and extract shadow prices.

    Parameters
    ----------
    inputs:
        Slot data (topology, arrivals, prices).
    levels:
        Fixed TUF-level assignment; ``None`` targets top levels (the
        only option for one-level TUFs).
    """
    topo = inputs.topology
    K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
    lp, _ = fixed_level_lp(inputs, levels=levels)
    solution = solve_lp(lp, method="highs")
    if not solution.ok:
        raise SolverError(
            f"sensitivity LP failed: {solution.status.value} {solution.message}"
        )
    marginals = solution.ineq_marginals
    if marginals is None:
        raise SolverError("LP backend returned no dual values")

    # Row layout of the slot LP (see formulation.FixedLevelLPCache): K*L
    # delay rows, then L share rows, then K*S arrival rows.  Marginals
    # are d(min obj)/d(rhs); profit = -obj.
    delay_duals = -marginals[: K * L].reshape(K, L)
    share_duals = -marginals[K * L: K * L + L]
    arrival_duals = -marginals[K * L + L:].reshape(K, S)

    # One extra server at l raises the share budget by 1 *and* relaxes
    # every delay row's rhs by -1/D_{k,l} (rhs = -M_l / D): the total
    # derivative combines both.  _level_tables applied the deadline
    # scaling already; recompute the effective deadlines the LP used.
    from repro.core.formulation import _level_tables
    if levels is None:
        levels = np.zeros((K, L), dtype=int)
    _, deadlines = _level_tables(topo, np.asarray(levels, dtype=int),
                                 inputs.deadline_scale)
    # d(profit)/d(M_l) = share_dual_l + sum_k delay_dual_{k,l} *
    # d(rhs_delay)/d(M_l), with rhs_delay = -M_l/D and the profit-space
    # dual of the delay row being delay_duals (already negated).
    server_value = share_duals.copy()
    for l in range(L):
        for k in range(K):
            server_value[l] += delay_duals[k, l] * (-1.0 / deadlines[k, l])

    return SlotSensitivity(
        net_profit=-solution.objective,
        share_mass_value=share_duals,
        server_value=np.clip(server_value, 0.0, None),
        demand_value=np.clip(arrival_duals, 0.0, None),
        delay_duals=delay_duals,
    )
