"""GRUBER / DI-GRUBER: the paper's contribution.

* :mod:`repro.core.state` — a decision point's (possibly stale) view of
  grid resource usage, built from its own dispatches, peer dispatch
  records received at sync, and periodic monitor refreshes;
* :mod:`repro.core.engine` — the GRUBER engine: availability detection
  and USLA-filtered resource views;
* :mod:`repro.core.monitor` — the site monitor data provider;
* :mod:`repro.core.selectors` — site-selector task-assignment policies
  (round-robin, least-used, least-recently-used, random);
* :mod:`repro.core.decision_point` — the DI-GRUBER decision point
  service (container-hosted query handlers + sync participation);
* :mod:`repro.core.sync` — the loose synchronization protocol and its
  three dissemination strategies;
* :mod:`repro.core.client` — the submission-host client with the
  paper's timeout → random-fallback degradation;
* :mod:`repro.core.broker` — deployment facade wiring everything up.

§5's third-party observer is the control plane, :mod:`repro.control`.
"""

from repro.core.broker import DIGruberDeployment
from repro.core.client import GruberClient
from repro.core.decision_point import DecisionPoint
from repro.core.engine import GruberEngine
from repro.core.monitor import SiteMonitor
from repro.core.selectors import (
    LeastRecentlyUsedSelector,
    LeastUsedSelector,
    RandomSelector,
    RoundRobinSelector,
    SiteSelector,
    make_selector,
)
from repro.core.state import AvailabilityView, DispatchRecord, GridStateView
from repro.core.sync import DisseminationStrategy, SyncProtocol

__all__ = [
    "AvailabilityView",
    "DIGruberDeployment",
    "DecisionPoint",
    "DispatchRecord",
    "DisseminationStrategy",
    "GridStateView",
    "GruberClient",
    "GruberEngine",
    "LeastRecentlyUsedSelector",
    "LeastUsedSelector",
    "RandomSelector",
    "RoundRobinSelector",
    "SiteMonitor",
    "SiteSelector",
    "SyncProtocol",
    "make_selector",
]
