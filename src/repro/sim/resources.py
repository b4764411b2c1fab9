"""The queueing resource built on the kernel: a multi-server FIFO.

:class:`Server` is the workhorse — the GT3/GT4 service-container model
(`repro.net.container`) is a :class:`Server` whose capacity is the
container's request-processing concurrency, and the response-time
growth the paper measures under load is exactly this queue filling up.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.sim.kernel import Simulator

__all__ = ["Server"]


class Server:
    """A multi-server FIFO queue (an M/G/c station, workload permitting).

    ``acquire(then)`` calls ``then()`` when a slot is granted — inside
    :meth:`acquire` if one is free, else inside the :meth:`release` that
    hands it over: no event, no kernel hop.  Grants happen in strict
    request order (FIFO), which models the paper's service containers:
    requests beyond the concurrency limit queue and their response time
    grows with load.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "server"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_service = 0
        self._waiting: Deque[Callable[[], None]] = deque()
        # Counters for saturation detection / reporting.
        self.total_acquired = 0
        self.peak_queue_len = 0

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    def acquire(self, then: Callable[[], None]) -> None:
        """Call ``then()`` once a service slot is granted: now if one is
        free, else when a :meth:`release` hands one over."""
        if self.in_service < self.capacity:
            self.in_service += 1
            self.total_acquired += 1
            then()
        else:
            self._waiting.append(then)
            if len(self._waiting) > self.peak_queue_len:
                self.peak_queue_len = len(self._waiting)

    def release(self) -> None:
        """Free one slot, handing it to the longest-waiting acquirer."""
        if self.in_service <= 0:
            raise RuntimeError(f"{self.name}: release() without acquire()")
        if self._waiting:
            then = self._waiting.popleft()
            self.total_acquired += 1
            then()
        else:
            self.in_service -= 1

    def utilization_snapshot(self) -> float:
        """Fraction of capacity currently in service."""
        return self.in_service / self.capacity
