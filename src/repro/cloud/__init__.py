"""Cloud infrastructure substrate.

Models the paper's system architecture (§III-A, Fig. 2): ``S`` front-end
servers collect requests and dispatch them over the network to servers
in ``L`` heterogeneous data centers (homogeneous servers within a data
center), with virtualization sharing each server's CPU among per-type
VMs.
"""

from repro.cloud.datacenter import DataCenter, Server
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology, random_topology
from repro.cloud.energy import EnergyModel
from repro.cloud.transfer import TransferModel
from repro.cloud.heterogeneous import (
    LocationSpec,
    ServerGroup,
    build_heterogeneous_topology,
)

__all__ = [
    "Server",
    "DataCenter",
    "FrontEnd",
    "CloudTopology",
    "random_topology",
    "EnergyModel",
    "TransferModel",
    "ServerGroup",
    "LocationSpec",
    "build_heterogeneous_topology",
]
