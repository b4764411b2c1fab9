"""Globus Toolkit service-container model (GT3 vs GT4 profiles).

The paper measures the *same* broker hosted on two container stacks and
finds different per-request costs ("the factors limiting performance
are primarily authentication and SOAP processing").  We model a
container as a finite-concurrency server whose per-request service time
and client-side stack overhead are drawn from lognormal distributions
around profile means.

Calibration
-----------
Absolute numbers in the paper text were lost to OCR; the profile
constants below are calibrated so the *prose-documented* relations hold
under the canonical experiment (see DESIGN.md §5 and EXPERIMENTS.md):

* GT3 single decision point saturates just under ~2 queries/s
  (``query_service_s = 0.5`` with concurrency 1);
* GT4 (the functionally-equivalent but slower prerelease) saturates
  just above ~1 query/s and has roughly double the end-to-end query
  latency;
* bare GT3 service-instance creation (Fig 1) is an order of magnitude
  cheaper than a full brokering query, peaking around ~15 requests/s
  with ~2 s unloaded response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator
from repro.sim.resources import Server

__all__ = ["ContainerProfile", "ServiceContainer", "OverloadShed",
           "GT3_PROFILE", "GT4_PROFILE", "GT4C_PROFILE", "lognormal_for_mean",
           "lognormal_mu"]


class OverloadShed(Exception):
    """Raised by a bounded-queue container that refuses a request.

    Load shedding turns a slow failure (minutes in the queue, then a
    client timeout) into a fast one: the handler fails immediately and
    the caller sees an :class:`~repro.net.transport.RpcError` one round
    trip later — which a resilient client converts into an instant
    retry/failover instead of a burned timeout.
    """


def lognormal_mu(mean: float, sigma: float) -> Optional[float]:
    """The location parameter giving mean ``mean`` (``None`` for a mean
    <= 0, whose draw is 0.0 and takes nothing from the stream): a pure
    function of profile constants, computed where a station or client
    is built, not once per draw."""
    return float(np.log(mean) - 0.5 * sigma * sigma) if mean > 0 else None


def lognormal_for_mean(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """Draw a lognormal variate with the requested *mean* (not median).

    Shared by the container (service times) and the clients (stack
    overheads) so both sides of the protocol use the same noise model.
    """
    mu = lognormal_mu(mean, sigma)
    return 0.0 if mu is None else float(rng.lognormal(mu, sigma))


@dataclass(frozen=True)
class ContainerProfile:
    """Per-request cost structure of one container technology.

    Attributes
    ----------
    name:
        Display name ("GT3", "GT4").
    query_service_s:
        Mean decision-point CPU time per brokering query; the
        container's saturation throughput is
        ``query_concurrency / query_service_s``.
    query_concurrency:
        Requests the container processes concurrently.
    query_rtts:
        WAN round trips per brokering query (the paper: "a query ...
        may include multiple message exchanges").
    client_overhead_s:
        Mean client-side stack time per query (auth handshake, SOAP
        marshalling) — latency the *client* pays that does not consume
        decision-point capacity.
    instance_service_s / instance_concurrency / instance_rtts /
    instance_client_overhead_s:
        Same quantities for the bare service-instance-creation
        operation of Fig 1.
    sigma:
        Lognormal shape shared by all service-time draws.
    """

    name: str
    query_service_s: float
    report_service_s: float
    query_concurrency: int
    query_rtts: int
    client_overhead_s: float
    instance_service_s: float
    instance_concurrency: int
    instance_rtts: int
    instance_client_overhead_s: float
    sigma: float = 0.25

    def __post_init__(self):
        for field_name in ("query_service_s", "report_service_s",
                           "client_overhead_s", "instance_service_s",
                           "instance_client_overhead_s"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.query_concurrency < 1 or self.instance_concurrency < 1:
            raise ValueError("concurrency must be >= 1")

    @property
    def query_capacity_qps(self) -> float:
        """Saturation throughput for full brokering operations.

        One brokering operation costs the availability query *plus* the
        dispatch report on the same container (the paper: "the site
        selector first requests information about current site
        availabilities and then informs the decision point about its
        site selection").
        """
        return self.query_concurrency / (self.query_service_s
                                         + self.report_service_s)

    @property
    def instance_capacity_qps(self) -> float:
        return self.instance_concurrency / self.instance_service_s


#: GT3.2-style container: faster per-request stack, chattier client side
#: (heavyweight pre-WS auth handshake dominates the client overhead).
GT3_PROFILE = ContainerProfile(
    name="GT3",
    query_service_s=0.42,
    report_service_s=0.08,
    query_concurrency=1,
    query_rtts=4,
    client_overhead_s=6.0,
    instance_service_s=0.13,
    instance_concurrency=2,
    instance_rtts=1,
    instance_client_overhead_s=1.3,
)

#: GT4 prerelease container: "functionality equivalent to the final GT4
#: release, but provides somewhat lower performance" — slower
#: per-request processing (lower saturation throughput), leaner WSRF
#: client messaging.
GT4_PROFILE = ContainerProfile(
    name="GT4",
    query_service_s=0.72,
    report_service_s=0.13,
    query_concurrency=1,
    query_rtts=4,
    client_overhead_s=3.5,
    instance_service_s=0.22,
    instance_concurrency=2,
    instance_rtts=1,
    instance_client_overhead_s=2.4,
)

#: The paper's future-work target: "DI-GRUBER performance can be
#: improved further by porting it to a C-based Web services core, such
#: as is supported in GT4."  Modeled as the GT4 message layout on a
#: much faster native core (the C WS-core's published speedups over the
#: Java container are roughly 2-4x per operation).
GT4C_PROFILE = ContainerProfile(
    name="GT4-C",
    query_service_s=0.20,
    report_service_s=0.04,
    query_concurrency=1,
    query_rtts=4,
    client_overhead_s=1.2,
    instance_service_s=0.06,
    instance_concurrency=2,
    instance_rtts=1,
    instance_client_overhead_s=0.8,
)


class _Service:
    """One request's pass through a container station; its bound
    methods are the continuations (the ``net.transport.Request``
    pattern).  :meth:`start` runs at the grant and draws the service
    time (``mu``: the station's lognormal location, ``None`` = no
    draw); :meth:`finish` runs ``then`` *before* handing the slot on,
    so post-service work (and its draws on the container's stream)
    precedes the next waiter's service draw.
    """

    __slots__ = ("container", "server", "mu", "extra_s", "then")

    def __init__(self, container: "ServiceContainer", server: Server,
                 mu: Optional[float], extra_s: float,
                 then: Callable[[], None]):
        self.container = container
        self.server = server
        self.mu = mu
        self.extra_s = extra_s
        self.then = then

    def start(self) -> None:
        c = self.container
        mu = self.mu
        svc = 0.0 if mu is None else float(c.rng.lognormal(mu, c._sigma))
        c.sim.schedule((svc + self.extra_s) * c.degrade_factor, self.finish)

    def finish(self) -> None:
        c = self.container
        c.completed_ops += 1
        c.op_timestamps.append(c.sim.now)
        try:
            self.then()
        finally:
            self.server.release()


class ServiceContainer:
    """A deployed container instance hosting one service (e.g. one DP).

    The owning endpoint's handlers call ``serve_query(then)`` /
    ``serve_report(then)`` / ``serve_instance_creation(then)``: the
    request waits for a container slot, holds it for the drawn service
    time, and ``then()`` runs at the instant the service completes.
    The container also keeps an operations log (timestamps of completed
    requests) that the autoscale signal bus samples.
    """

    def __init__(self, sim: Simulator, profile: ContainerProfile,
                 rng: np.random.Generator, name: str = "container",
                 max_queue: int | None = None):
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.name = name
        #: Bounded admission queue: requests arriving while this many
        #: are already waiting are shed (``None`` = unbounded, the
        #: original behaviour).
        self.max_queue = max_queue
        #: Degraded-container multiplier on every service-time draw
        #: (a "slow node" fault profile; 1.0 = healthy).
        self.degrade_factor = 1.0
        self._query_server = Server(sim, profile.query_concurrency,
                                    name=f"{name}.query")
        self._instance_server = Server(sim, profile.instance_concurrency,
                                       name=f"{name}.create")
        #: Each station's lognormal location, once per container.
        self._sigma = sigma = profile.sigma
        self._query_mu = lognormal_mu(profile.query_service_s, sigma)
        self._report_mu = lognormal_mu(profile.report_service_s, sigma)
        self._instance_mu = lognormal_mu(profile.instance_service_s, sigma)
        self.completed_ops: int = 0
        self.shed_ops: int = 0
        self.op_timestamps: list[float] = []

    # -- fault/limit knobs -------------------------------------------------
    def set_degradation(self, factor: float) -> None:
        """Scale all service times by ``factor`` (1.0 restores health)."""
        if factor <= 0:
            raise ValueError(f"degrade factor must be > 0, got {factor}")
        self.degrade_factor = factor

    def _admit(self) -> None:
        """Shed the request if the bounded admission queue is full
        (called only when ``max_queue`` is set)."""
        if self._query_server.queue_len >= self.max_queue:
            self.shed_ops += 1
            self.sim.trace.emit("container.shed", self.name,
                                queue_len=self._query_server.queue_len,
                                max_queue=self.max_queue)
            raise OverloadShed(
                f"{self.name}: queue {self._query_server.queue_len} "
                f">= bound {self.max_queue}")

    # -- service stations used by RPC handlers ------------------------------
    def serve_query(self, then: Callable[[], None],
                    extra_s: float = 0.0) -> None:
        """One brokering-query service slot, then ``then()``.

        ``extra_s`` adds request-specific work (e.g. per-site state
        marshalling proportional to grid size).  Raises
        :class:`OverloadShed` at once when the bounded queue is full.
        """
        if self.max_queue is not None:
            self._admit()
        server = self._query_server
        server.acquire(_Service(self, server, self._query_mu, extra_s,
                                then).start)

    def serve_report(self, then: Callable[[], None]) -> None:
        """The dispatch-report share of a brokering operation."""
        if self.max_queue is not None:
            self._admit()
        server = self._query_server
        server.acquire(_Service(self, server, self._report_mu, 0.0,
                                then).start)

    def serve_instance_creation(self, then: Callable[[], None]) -> None:
        """One bare instance-creation slot (Fig 1 workload)."""
        server = self._instance_server
        server.acquire(_Service(self, server, self._instance_mu, 0.0,
                                then).start)

    # -- introspection -------------------------------------------------------
    @property
    def queue_len(self) -> int:
        return self._query_server.queue_len

    @property
    def in_service(self) -> int:
        return self._query_server.in_service

    def ops_in_window(self, window_s: float) -> int:
        """Completed operations in the trailing ``window_s`` seconds."""
        cutoff = self.sim.now - window_s
        # Timestamps are appended in nondecreasing order; scan from the end.
        count = 0
        for t in reversed(self.op_timestamps):
            if t < cutoff:
                break
            count += 1
        return count
