"""Pass family 4: static feasibility pre-checks (MD040-MD045).

Everything here is decidable from the topology and slot data alone — no
solve, no matrix build.  The checks grade from the builder's own hard
refusal (the unconditional share reserve of Eq. 6, reported instead of
raised) down to right-sizing advisories:

* **MD040** (error) — a data center cannot reserve the minimum CPU
  shares for all classes (``sum_k 1/(D_k C_l mu_kl) > 1``); the slot
  builders refuse such topologies, so the optimizer is guaranteed to
  fail before dispatching anything.
* **MD041/MD042** — a class's deadline is unachievable at one data
  center even at full share (``C_l mu_kl <= 1/D_k``); an error when no
  data center can serve the class at all.
* **MD043** (warning) — a class's offered load exceeds the fleet-wide
  deadline-safe capacity, so some traffic is necessarily dropped.
* **MD044** (warning) — a data center has no class it can serve within
  deadline; it is dead weight in every slot plan.
* **MD045** (info) — fleet capacity exceeds the slot's offered load by
  more than the configured ratio; right-sizing headroom report.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis.engine import Rule, register
from repro.analysis.model.audit import AuditContext
from repro.analysis.report import Finding
from repro.core.formulation import feasibility_margin

__all__ = ["FeasibilityRule"]


@register
class FeasibilityRule(Rule):
    """MD040-MD045 — solve-free feasibility and right-sizing checks."""

    code = "MD040"
    codes = {
        "MD040": "share reserve infeasible at a data center",
        "MD041": "class deadline unachievable at a data center",
        "MD042": "class deadline unachievable at every data center",
        "MD043": "offered load exceeds deadline-safe fleet capacity",
        "MD044": "data center cannot serve any class within deadline",
        "MD045": "fleet capacity far exceeds the slot's offered load",
    }
    name = "static-feasibility"
    rationale = (
        "Constraint 6 holds unconditionally in the paper, so every "
        "server must reserve share 1/(D_k C_l mu_kl) per class; a "
        "topology violating that sum, or a class whose deadline beats "
        "the service time even at full share, makes the slot problem "
        "infeasible before any arrival is dispatched. Catching these "
        "statically turns an opaque solver failure into a named root "
        "cause, and the capacity/right-sizing checks bound what any "
        "solve can achieve."
    )

    def check(self, ctx: AuditContext) -> Iterator[Finding]:
        topo = ctx.topology
        deadlines = ctx.effective_deadlines()  # (K,)
        mu = topo.service_rates  # (K, L)
        cap = topo.server_capacities  # (L,)
        servers = topo.servers_per_datacenter.astype(float)  # (L,)
        offered = ctx.inputs.arrivals.sum(axis=1)  # (K,)

        # MD040 — the builders' refusal condition, as a report.
        margin = feasibility_margin(
            topo, ctx.inputs.deadline_scale / ctx.inputs.delay_factor
        )
        for l, dc in enumerate(topo.datacenters):
            if margin[l] < 0.0:
                yield self.finding(
                    "MD040", "error", f"feasibility[{dc.name}]",
                    f"share reserve sum_k 1/(D_k C mu_k) = "
                    f"{1.0 - margin[l]:.4f} > 1: the data center cannot "
                    "reserve the minimum CPU shares for all classes and "
                    "the slot builders will refuse this topology",
                    reserve=1.0 - margin[l], margin=float(margin[l]),
                )

        # MD041/MD042 — per-class deadline achievability (Eq. 8 with
        # phi at its maximum of 1: need C*mu > 1/D).
        full_share_rate = cap[None, :] * mu  # (K, L)
        reachable = full_share_rate > 1.0 / deadlines[:, None]
        for k, rc in enumerate(topo.request_classes):
            if not reachable[k].any():
                best = float(
                    (1.0 / full_share_rate[k]).min()
                )
                yield self.finding(
                    "MD042", "error", f"feasibility[{rc.name}]",
                    f"deadline {deadlines[k]:g} is below the best "
                    f"achievable service time {best:g} at every data "
                    "center: no dispatch can ever meet this class's "
                    "deadline",
                    deadline=float(deadlines[k]), best_service_time=best,
                )
                continue
            for l, dc in enumerate(topo.datacenters):
                if not reachable[k, l]:
                    yield self.finding(
                        "MD041", "warning",
                        f"feasibility[{rc.name}@{dc.name}]",
                        f"deadline {deadlines[k]:g} is unachievable at "
                        f"this data center (full-share service time "
                        f"{1.0 / full_share_rate[k, l]:g}); it cannot "
                        "host this class",
                        deadline=float(deadlines[k]),
                        service_time=float(1.0 / full_share_rate[k, l]),
                    )

        # Deadline-safe capacity per (k, l): M * (C*mu - 1/D), floored.
        safe = np.clip(
            servers[None, :]
            * (full_share_rate - 1.0 / deadlines[:, None]),
            0.0, None,
        )  # (K, L)

        # MD043 — per-class demand vs. fleet-wide safe capacity.
        for k, rc in enumerate(topo.request_classes):
            fleet = float(safe[k].sum())
            if offered[k] > fleet:
                yield self.finding(
                    "MD043", "warning", f"feasibility[{rc.name}]",
                    f"offered load {offered[k]:g} exceeds the fleet's "
                    f"deadline-safe capacity {fleet:g} for this class "
                    "even with every server dedicated to it; the "
                    "overflow is necessarily dropped",
                    offered=float(offered[k]), capacity=fleet,
                )

        # MD044 — data centers that can serve nothing within deadline.
        for l, dc in enumerate(topo.datacenters):
            if not reachable[:, l].any():
                yield self.finding(
                    "MD044", "warning", f"feasibility[{dc.name}]",
                    "no request class is deadline-achievable at this "
                    "data center; it contributes nothing to any slot "
                    "plan",
                )

        # MD045 — right-sizing: aggregate safe capacity vs. offered load.
        total_offered = float(offered.sum())
        total_capacity = float(safe.max(axis=0).sum())
        ratio_limit = ctx.thresholds.oversize_ratio
        if total_offered > 0.0 and total_capacity > ratio_limit * total_offered:
            yield self.finding(
                "MD045", "info", "feasibility[fleet]",
                f"deadline-safe fleet capacity {total_capacity:g} is "
                f"{total_capacity / total_offered:.3g}x the slot's "
                f"offered load {total_offered:g} (limit "
                f"{ratio_limit:g}x); the fleet is heavily "
                "over-provisioned for this slot",
                capacity=total_capacity, offered=total_offered,
                ratio=total_capacity / total_offered,
            )
