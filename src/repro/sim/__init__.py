"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces the paper's PlanetLab
deployment: simulated time, events, generator-based processes, and
queueing resources.  All other ``repro`` subpackages (network model,
grid fabric, brokers, DiPerF harness) run on top of a single
:class:`~repro.sim.kernel.Simulator` instance.

The kernel is deliberately small and allocation-light: the canonical
experiment (one simulated hour, ~120 clients, hundreds of sites)
schedules a few million events, so the event loop is a plain ``heapq``
with tuple entries and no per-event object churn beyond the ``Event``
instances the callers already hold.
"""

from repro.sim.kernel import (
    AnyOf,
    Event,
    Process,
    ScheduledCall,
    Simulator,
)
from repro.sim.resources import Server
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "Event",
    "Process",
    "RngRegistry",
    "ScheduledCall",
    "Server",
    "Simulator",
]
