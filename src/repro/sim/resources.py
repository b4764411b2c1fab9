"""Queueing resources built on the kernel: servers, stores, gates.

:class:`Server` is the workhorse — the GT3/GT4 service-container model
(`repro.net.container`) is a :class:`Server` whose capacity is the
container's request-processing concurrency, and the response-time
growth the paper measures under load is exactly this queue filling up.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import Event, Simulator

__all__ = ["Server", "Store", "Gate"]


class Server:
    """A multi-server FIFO queue (an M/G/c station, workload permitting).

    Usage from a process::

        slot = yield server.acquire()
        try:
            yield service_time
        finally:
            server.release()

    Acquisition events succeed in strict request order (FIFO), which
    models the paper's service containers: requests beyond the
    concurrency limit queue and their response time grows with load.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "server"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_service = 0
        self._waiting: Deque[Event] = deque()
        # Counters for saturation detection / reporting.
        self.total_acquired = 0
        self.peak_queue_len = 0

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        return self.in_service >= self.capacity

    def acquire(self) -> Event:
        """Return an event that succeeds when a service slot is granted."""
        ev = self.sim.event(name=f"{self.name}.acquire")
        if self.in_service < self.capacity:
            self.in_service += 1
            self.total_acquired += 1
            ev.succeed(self)
        else:
            self._waiting.append(ev)
            if len(self._waiting) > self.peak_queue_len:
                self.peak_queue_len = len(self._waiting)
        return ev

    def release(self) -> None:
        """Free one slot, handing it to the longest-waiting acquirer."""
        if self.in_service <= 0:
            raise RuntimeError(f"{self.name}: release() without acquire()")
        # Drop abandoned waiters (e.g. a client timed out and the
        # acquisition event will never be consumed) is the caller's
        # concern; the kernel keeps strict FIFO here.
        if self._waiting:
            ev = self._waiting.popleft()
            self.total_acquired += 1
            ev.succeed(self)
        else:
            self.in_service -= 1

    def utilization_snapshot(self) -> float:
        """Fraction of capacity currently in service."""
        return self.in_service / self.capacity


class Store:
    """An unbounded FIFO store of items with blocking ``get``.

    Used for mailbox-style communication (e.g. a decision point's
    inbound message queue in the transport layer).
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event(name=f"{self.name}.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Gate:
    """A level-triggered condition: processes wait until it is open.

    The dynamic-reconfiguration observer uses a gate to pause client
    re-assignment while a new decision point is bootstrapping.
    """

    def __init__(self, sim: Simulator, open_: bool = False, name: str = "gate"):
        self.sim = sim
        self.name = name
        self._open = open_
        self._waiting: list[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        self._open = True
        waiting, self._waiting = self._waiting, []
        for ev in waiting:
            ev.succeed(None)

    def close(self) -> None:
        self._open = False

    def wait(self) -> Event:
        ev = self.sim.event(name=f"{self.name}.wait")
        if self._open:
            ev.succeed(None)
        else:
            self._waiting.append(ev)
        return ev
