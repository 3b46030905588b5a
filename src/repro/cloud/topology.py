"""Cloud topology: front-ends, data centers, request classes, distances.

:class:`CloudTopology` is the static system description consumed by the
optimizer, the baselines, and the slotted simulator.  It validates that
all components agree on the number of request classes and provides the
index bookkeeping (``k``, ``s``, ``i``, ``l`` in the paper's notation).
Its slot-invariant scoring arrays are compiled once per topology into a
read-only :class:`TopologyArrays` record (:attr:`CloudTopology.arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.transfer import TransferModel
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.utils.rng import as_generator
from repro.utils.validation import check_nonnegative

__all__ = ["CloudTopology", "TopologyArrays", "random_topology"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TopologyArrays:
    """The slot-invariant arrays every scorer of one topology reads.

    Built once per :class:`CloudTopology` (see
    :attr:`CloudTopology.arrays`); every array is read-only.  Each one
    is computed with the same float arithmetic as the per-call code it
    replaces (:class:`~repro.cloud.energy.EnergyModel`,
    :meth:`~repro.cloud.transfer.TransferModel.per_request_cost`,
    :meth:`~repro.core.tuf.StepDownwardTUF.utility`), so scores read
    from it are bit-identical.

    Attributes
    ----------
    offsets:
        ``L + 1`` prefix offsets of the flat server axis, as Python ints:
        data center ``l`` owns flat servers ``offsets[l]:offsets[l + 1]``.
    dc_of_server:
        ``(N,)`` data-center index of each flat server.
    service_rates:
        ``(K, N)`` full-capacity service rates ``C_l * mu_{k,l}``.
    energy_kwh, energy_kwh_pue:
        ``(K, L)`` per-request energy ``P_{k,l}`` in kWh, without and
        with each data center's PUE multiplier.
    transfer_cost:
        ``(K, S, L)`` dollars to move one type-``k`` request ``s -> l``
        (``TranCost_k * d_{s,l}``, Eq. 3).
    tuf_deadlines:
        ``(K, Q)`` sub-deadlines of each class's TUF, ``Q`` the most
        levels of any class; shorter rows are padded with ``+inf``.
    tuf_values:
        ``(K, Q + 1)`` per-level utilities, padded with 0: a finite
        positive delay ``d`` of class ``k`` earns
        ``tuf_values[k, q]`` with ``q`` the number of its sub-deadlines
        below ``d``, which is 0 past the final deadline.
    idle_power:
        True when some data center draws idle power.
    """

    offsets: Tuple[int, ...]
    dc_of_server: np.ndarray = field(repr=False)
    service_rates: np.ndarray = field(repr=False)
    energy_kwh: np.ndarray = field(repr=False)
    energy_kwh_pue: np.ndarray = field(repr=False)
    transfer_cost: np.ndarray = field(repr=False)
    tuf_deadlines: np.ndarray = field(repr=False)
    tuf_values: np.ndarray = field(repr=False)
    idle_power: bool


@dataclass(frozen=True)
class CloudTopology:
    """The full static system: ``K`` classes, ``S`` front-ends, ``L`` DCs.

    Attributes
    ----------
    request_classes:
        The ``K`` request classes, in index order.
    frontends:
        The ``S`` front-end servers, in index order.
    datacenters:
        The ``L`` data centers, in index order.
    distances:
        ``(S, L)`` matrix of front-end-to-data-center distances in miles.
    """

    request_classes: Tuple[RequestClass, ...]
    frontends: Tuple[FrontEnd, ...]
    datacenters: Tuple[DataCenter, ...]
    distances: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "request_classes", tuple(self.request_classes))
        object.__setattr__(self, "frontends", tuple(self.frontends))
        object.__setattr__(self, "datacenters", tuple(self.datacenters))
        if not self.request_classes:
            raise ValueError("need at least one request class")
        if not self.frontends:
            raise ValueError("need at least one front-end")
        if not self.datacenters:
            raise ValueError("need at least one data center")
        dist = check_nonnegative(self.distances, "distances")
        expected = (len(self.frontends), len(self.datacenters))
        if dist.shape != expected:
            raise ValueError(f"distances must have shape {expected}, got {dist.shape}")
        object.__setattr__(self, "distances", dist)
        k = len(self.request_classes)
        for dc in self.datacenters:
            if dc.num_request_classes != k:
                raise ValueError(
                    f"data center {dc.name!r} is configured for "
                    f"{dc.num_request_classes} request classes, expected {k}"
                )

    def __getstate__(self) -> Dict[str, Any]:
        # A copy or unpickled topology rebuilds its own read-only record
        # (unpickled arrays would come back writeable).
        state = dict(self.__dict__)
        state.pop("arrays", None)
        return state

    # ---------------------------------------------------------------- sizes

    @property
    def num_classes(self) -> int:
        """``K``: number of request classes."""
        return len(self.request_classes)

    @property
    def num_frontends(self) -> int:
        """``S``: number of front-end servers."""
        return len(self.frontends)

    @property
    def num_datacenters(self) -> int:
        """``L``: number of data centers."""
        return len(self.datacenters)

    @property
    def servers_per_datacenter(self) -> np.ndarray:
        """``(L,)`` array of ``M_l`` values."""
        return np.array([dc.num_servers for dc in self.datacenters], dtype=int)

    @property
    def num_servers(self) -> int:
        """Total server count across data centers."""
        return int(self.servers_per_datacenter.sum())

    # ------------------------------------------------------------- matrices

    @property
    def service_rates(self) -> np.ndarray:
        """``(K, L)`` matrix of ``mu_{k,l}`` service rates."""
        return np.stack([dc.service_rates for dc in self.datacenters], axis=1)

    @property
    def energy_per_request(self) -> np.ndarray:
        """``(K, L)`` matrix of ``P_{k,l}`` per-request energies (kWh)."""
        return np.stack([dc.energy_per_request for dc in self.datacenters], axis=1)

    @property
    def server_capacities(self) -> np.ndarray:
        """``(L,)`` array of normalized per-server capacities ``C_l``."""
        return np.array([dc.server_capacity for dc in self.datacenters])

    @property
    def transfer_unit_costs(self) -> np.ndarray:
        """``(K,)`` array of ``TranCost_k`` values."""
        return np.array([rc.transfer_unit_cost for rc in self.request_classes])

    def transfer_model(self) -> TransferModel:
        """Build the :class:`TransferModel` for this topology."""
        return TransferModel(self.transfer_unit_costs, self.distances)

    # ----------------------------------------------------------- iteration

    def iter_servers(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(l, i)`` pairs over every server."""
        for l, dc in enumerate(self.datacenters):
            for i in range(dc.num_servers):
                yield l, i

    def server_offsets(self) -> np.ndarray:
        """``(L+1,)`` prefix offsets for flattening (l, i) → flat index."""
        return np.concatenate([[0], np.cumsum(self.servers_per_datacenter)])

    def flat_server_index(self, l: int, i: int) -> int:
        """Flatten data-center-local server index to a global index."""
        if not (0 <= l < self.num_datacenters):
            raise IndexError(f"data center index {l} out of range")
        if not (0 <= i < self.datacenters[l].num_servers):
            raise IndexError(f"server index {i} out of range for DC {l}")
        return int(self.arrays.offsets[l] + i)

    # ------------------------------------------------------ scoring arrays

    @cached_property
    def arrays(self) -> TopologyArrays:
        """The topology's read-only :class:`TopologyArrays`, built on first use.

        Cached on the instance: derived topologies (:meth:`with_datacenters`
        and the transforms built on it) compile their own, and a copied
        or unpickled topology rebuilds it.
        """
        dc_of_server = np.repeat(
            np.arange(self.num_datacenters), self.servers_per_datacenter
        )
        capacity = self.server_capacities
        service_rates = (
            self.service_rates[:, dc_of_server] * capacity[dc_of_server][None, :]
        )
        energy = self.energy_per_request
        pue = np.array([dc.pue for dc in self.datacenters])
        unit_costs = self.transfer_unit_costs
        tufs = [rc.tuf for rc in self.request_classes]
        levels = max(tuf.num_levels for tuf in tufs)
        deadlines = np.full((self.num_classes, levels), np.inf)
        values = np.zeros((self.num_classes, levels + 1))
        for k, tuf in enumerate(tufs):
            deadlines[k, :tuf.num_levels] = tuf.deadlines
            values[k, :tuf.num_levels] = tuf.values
        return TopologyArrays(
            offsets=tuple(self.server_offsets().tolist()),
            dc_of_server=_read_only(dc_of_server),
            service_rates=_read_only(service_rates),
            energy_kwh=_read_only(energy),
            energy_kwh_pue=_read_only(energy * pue[None, :]),
            transfer_cost=_read_only(
                unit_costs[:, None, None] * self.distances[None, :, :]
            ),
            tuf_deadlines=_read_only(deadlines),
            tuf_values=_read_only(values),
            idle_power=any(dc.idle_power_kw > 0.0 for dc in self.datacenters),
        )

    # ----------------------------------------------------------- transforms

    def with_datacenters(self, datacenters: Sequence[DataCenter]) -> "CloudTopology":
        """Copy with replaced data centers (used in capacity sweeps)."""
        return CloudTopology(
            request_classes=self.request_classes,
            frontends=self.frontends,
            datacenters=tuple(datacenters),
            distances=self.distances,
        )

    def scaled_capacity(self, factor: float) -> "CloudTopology":
        """Copy with every data center's service rates scaled by ``factor``."""
        return self.with_datacenters([dc.scaled_rates(factor) for dc in self.datacenters])

    def with_servers_per_datacenter(self, num_servers: int) -> "CloudTopology":
        """Copy with every data center resized to ``num_servers`` servers."""
        return self.with_datacenters(
            [dc.with_servers(num_servers) for dc in self.datacenters]
        )


def random_topology(
    num_classes: int = 3,
    num_frontends: int = 4,
    num_datacenters: int = 3,
    servers_per_datacenter: int = 6,
    seed: int = 0,
) -> CloudTopology:
    """Generate a random but well-formed topology (testing/examples).

    Service rates, energies, utilities, deadlines, and distances are
    drawn from ranges matching the magnitudes of the paper's Tables
    III-VII.
    """
    rng = as_generator(seed)
    classes = []
    for k in range(num_classes):
        value = float(rng.uniform(5.0, 40.0))
        deadline = float(rng.uniform(0.005, 0.05))
        classes.append(
            RequestClass(
                name=f"request{k + 1}",
                tuf=ConstantTUF(value=value, deadline=deadline),
                transfer_unit_cost=float(rng.uniform(0.001, 0.01)),
            )
        )
    datacenters = []
    for l in range(num_datacenters):
        datacenters.append(
            DataCenter(
                name=f"datacenter{l + 1}",
                num_servers=servers_per_datacenter,
                service_rates=rng.uniform(100.0, 200.0, size=num_classes),
                energy_per_request=rng.uniform(1e-4, 1e-3, size=num_classes),
            )
        )
    frontends = [FrontEnd(f"frontend{s + 1}") for s in range(num_frontends)]
    distances = rng.uniform(100.0, 2500.0, size=(num_frontends, num_datacenters))
    return CloudTopology(
        request_classes=tuple(classes),
        frontends=tuple(frontends),
        datacenters=tuple(datacenters),
        distances=distances,
    )
