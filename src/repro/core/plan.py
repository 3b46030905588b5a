"""Dispatch and resource-allocation decisions for one time slot.

A :class:`DispatchPlan` is the output of both the optimizer and the
baselines: per-server dispatched rates ``lambda_{k,s,i,l}`` and CPU
shares ``phi_{k,i,l}``.  Servers are flattened to a global index ``n``
(use :meth:`repro.cloud.topology.CloudTopology.flat_server_index`);
since servers within a data center are homogeneous, aggregated solvers
expand their symmetric solutions over this flat axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.topology import CloudTopology
from repro.queueing.mm1 import mm1_mean_delay
from repro.solvers.tolerances import FEASIBILITY_TOL, ZERO_TOL
from repro.utils.validation import check_nonnegative

__all__ = ["DispatchPlan"]

_LOAD_TOL = ZERO_TOL


@dataclass(frozen=True)
class DispatchPlan:
    """Per-slot dispatching + allocation decision.

    Attributes
    ----------
    topology:
        The static system the plan is for.
    rates:
        ``(K, S, N)`` array; ``rates[k, s, n]`` is the rate of class-``k``
        requests sent from front-end ``s`` to (flat) server ``n``.
    shares:
        ``(K, N)`` array of CPU shares ``phi``; each server's column must
        sum to at most 1.
    """

    topology: CloudTopology
    rates: np.ndarray = field(repr=False)
    shares: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        topo = self.topology
        k, s, n = topo.num_classes, topo.num_frontends, topo.num_servers
        rates = check_nonnegative(self.rates, "rates")
        shares = check_nonnegative(self.shares, "shares")
        if rates.shape != (k, s, n):
            raise ValueError(f"rates must have shape {(k, s, n)}, got {rates.shape}")
        if shares.shape != (k, n):
            raise ValueError(f"shares must have shape {(k, n)}, got {shares.shape}")
        if (shares.sum(axis=0) > 1.0 + FEASIBILITY_TOL).any():
            worst = float(shares.sum(axis=0).max())
            raise ValueError(f"CPU shares exceed 1 on some server (max {worst:.6f})")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "shares", shares)

    # ------------------------------------------------------------ geometry

    def _dc_of_server(self) -> np.ndarray:
        """``(N,)`` data-center index of each flat server (read-only)."""
        return self.topology.arrays.dc_of_server

    def server_service_rates(self) -> np.ndarray:
        """``(K, N)`` full-capacity service rates ``C_l * mu_{k,l}``; float64.

        The topology's cached, read-only array
        (:attr:`~repro.cloud.topology.TopologyArrays.service_rates`).
        """
        return self.topology.arrays.service_rates

    # ------------------------------------------------------------- loads

    def server_loads(self) -> np.ndarray:
        """``(K, N)`` aggregate load per class per server (summed over s); float64."""
        return self.rates.sum(axis=1)

    def dc_rates(self) -> np.ndarray:
        """``(K, S, L)`` rates aggregated to data-center granularity; float64."""
        topo = self.topology
        out = np.zeros((topo.num_classes, topo.num_frontends, topo.num_datacenters))
        offsets = topo.arrays.offsets
        # L iterations of one slice sum each: this keeps every DC's
        # summation order (a one-hot matmul would not) and gives a
        # zero-server DC exact zeros (``np.add.reduceat`` would not).
        for l in range(topo.num_datacenters):  # reprolint: disable=AR041
            out[:, :, l] = self.rates[:, :, offsets[l]:offsets[l + 1]].sum(axis=2)
        return out

    def dc_loads(self) -> np.ndarray:
        """``(K, L)`` aggregate load per class per data center; float64."""
        return self.dc_rates().sum(axis=1)

    def served_rates(self) -> np.ndarray:
        """``(K,)`` total dispatched rate per class; float64."""
        return self.rates.sum(axis=(1, 2))

    # ------------------------------------------------------------- delays

    def delays(self) -> np.ndarray:
        """``(K, N)`` expected M/M/1 delays (Eq. 1); ``inf`` if unstable.

        Entries for (class, server) pairs with zero load are ``nan`` —
        no request experiences them.  dtype float64.
        """
        return self._delays_at(self.server_loads())

    def _delays_at(self, loads: np.ndarray) -> np.ndarray:
        """:meth:`delays` given this plan's :meth:`server_loads`."""
        effective = self.shares * self.topology.arrays.service_rates
        delays = mm1_mean_delay(effective, loads)
        return np.where(loads > _LOAD_TOL, delays, np.nan)

    # ----------------------------------------------------------- servers

    def active_server_mask(self) -> np.ndarray:
        """``(N,)`` True where the server carries any load; dtype bool."""
        return self.server_loads().sum(axis=0) > _LOAD_TOL

    def powered_on_per_dc(self) -> np.ndarray:
        """``(L,)`` number of powered-on servers per data center; dtype int."""
        mask = self.active_server_mask()
        offsets = self.topology.arrays.offsets
        return np.array([
            int(mask[start:stop].sum())
            for start, stop in zip(offsets[:-1], offsets[1:])
        ])

    # ------------------------------------------------------------ algebra

    def with_spare_capacity_distributed(self) -> "DispatchPlan":
        """Hand each server's unused CPU to its loaded VMs.

        The slot LP has no incentive to allocate more than the minimum
        feasible shares, leaving optima sitting exactly on the delay
        constraints — where finite-horizon stochastic delays straddle
        the TUF cliff.  Unused CPU is free under the paper's per-request
        energy model, so scaling the loaded classes' shares to fill each
        active server strictly improves every delay without changing any
        cost.  Shares of unloaded classes are released to zero.
        """
        loads = self.server_loads()
        shares = np.where(loads > _LOAD_TOL, self.shares, 0.0)
        totals = shares.sum(axis=0)
        scale = np.where(totals > _LOAD_TOL, 1.0 / np.maximum(totals, _LOAD_TOL), 1.0)
        return DispatchPlan(
            topology=self.topology,
            rates=self.rates,
            shares=shares * scale[None, :],
        )

    def meets_deadlines(self, tol: float = FEASIBILITY_TOL) -> bool:
        """True if every loaded (class, server) delay is within ``D_k``."""
        delays = self.delays()
        for k, rc in enumerate(self.topology.request_classes):
            row = delays[k]
            loaded = ~np.isnan(row)
            if np.any(row[loaded] > rc.deadline + tol):
                return False
        return True

    @staticmethod
    def empty(topology: CloudTopology) -> "DispatchPlan":
        """The all-zero plan (everything dropped, all servers off)."""
        return DispatchPlan(
            topology=topology,
            rates=np.zeros(
                (topology.num_classes, topology.num_frontends, topology.num_servers)
            ),
            shares=np.zeros((topology.num_classes, topology.num_servers)),
        )
