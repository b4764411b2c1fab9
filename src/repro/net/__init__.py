"""WAN network and Globus-container models.

This package substitutes for the paper's PlanetLab + Globus Toolkit
deployment substrate:

* :mod:`repro.net.latency` — per-pair WAN/LAN latency models with
  PlanetLab-like lognormal round-trip times;
* :mod:`repro.net.topology` — decision-point overlay topologies (mesh,
  ring, star) and the static random client→decision-point assignment
  the paper uses;
* :mod:`repro.net.transport` — simulated message passing and RPC on
  top of the DES kernel;
* :mod:`repro.net.container` — GT3/GT4 service-container profiles
  (authentication + SOAP processing costs, request concurrency) that
  determine per-decision-point service capacity.
"""

from repro.net.container import (
    GT3_PROFILE,
    GT4_PROFILE,
    GT4C_PROFILE,
    ContainerProfile,
    OverloadShed,
    ServiceContainer,
    lognormal_for_mean,
)
from repro.net.latency import (
    ConstantLatency,
    LanLatency,
    LatencyModel,
    PairwiseWanLatency,
)
from repro.net.topology import (
    BrokerTopology,
    assign_clients,
    cross_pairs,
)
from repro.net.transport import Endpoint, Message, Network, RpcError, RpcTimeout

__all__ = [
    "BrokerTopology",
    "ConstantLatency",
    "ContainerProfile",
    "Endpoint",
    "GT3_PROFILE",
    "GT4_PROFILE",
    "GT4C_PROFILE",
    "LanLatency",
    "lognormal_for_mean",
    "LatencyModel",
    "Message",
    "Network",
    "OverloadShed",
    "PairwiseWanLatency",
    "RpcError",
    "RpcTimeout",
    "ServiceContainer",
    "assign_clients",
    "cross_pairs",
]
