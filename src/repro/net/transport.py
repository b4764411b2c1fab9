"""Simulated message passing and RPC.

Endpoints register named operation handlers: a plain one returns its
result at once, a *deferred* one answers later through the
:class:`Request` (e.g. after a service-container slot).  The caller
learns the outcome when the response arrives back — one RPC costs a
full round trip plus server-side time, and the paper's
multi-round-trip brokering protocol is composed from several RPCs.

A caller-side ``timeout`` only abandons *waiting*: the server still
completes the request (and the response is discarded on arrival).  This
matches the paper's client behaviour — on a 15 s timeout the site
selector falls back to a random site while the original query keeps
running to completion inside the decision point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.sim.kernel import Event, Simulator

from repro.net.latency import LatencyModel

__all__ = ["Message", "Endpoint", "Network", "Request", "RpcError",
           "RpcTimeout"]


class RpcError(Exception):
    """The remote handler raised; carries the remote exception string."""


class RpcTimeout(RpcError):
    """The caller stopped waiting before the response arrived."""


class Message:
    """One simulated message: a one-way message, or a response the
    fault layer judges.  (An RPC's request is its :class:`Request`.)"""

    __slots__ = ("src", "dst", "kind", "op", "payload", "size_kb",
                 "sent_at", "rpc_id", "ok", "trace_ctx")

    def __init__(self, src: Hashable, dst: Hashable, kind: str, op: str,
                 payload: Any, size_kb: float = 0.0, sent_at: float = 0.0,
                 rpc_id: int = 0, ok: bool = True, trace_ctx: Any = None):
        self.src, self.dst, self.kind, self.op = src, dst, kind, op
        self.payload, self.size_kb, self.sent_at = payload, size_kb, sent_at
        self.rpc_id = rpc_id
        self.ok = ok  # for responses: handler succeeded?
        #: Causal span context (a ``SpanRecorder`` row) linking spans on
        #: the receiver to the sender's; ``None`` = untraced.
        self.trace_ctx = trace_ctx


@dataclass
class NetworkStats:
    """Aggregate transport counters, for reporting and saturation checks.

    ``rpcs_failed`` counts *every* way an RPC can fail for the caller:
    remote errors, caller timeouts (``rpcs_timed_out``), and lost
    requests/responses that no timeout will reap (``rpcs_lost``).
    """

    messages: int = 0
    kb: float = 0.0
    dropped: int = 0
    rpcs_started: int = 0
    rpcs_completed: int = 0
    rpcs_failed: int = 0
    rpcs_timed_out: int = 0
    rpcs_lost: int = 0
    responses_discarded: int = 0
    per_op: dict = field(default_factory=dict)


class Request:
    """One RPC: its request message (what the fault layer judges), the
    caller's pending handle and one delivered copy's server side; the
    bound methods are the scheduled callables.  The caller hears once,
    ``then(ok, value)`` (``then`` is ``None`` once it stopped listening).
    A deferred handler sets ``post`` (``post(request)`` is the answer
    once served), parsed ``args`` and server ``span``, and hands
    :meth:`served` to its service station.  A duplicated copy is another
    object with the same ``rpc_id``; the pending table names the caller's.
    """

    __slots__ = ("network", "src", "dst", "op", "payload", "size_kb",
                 "sent_at", "rpc_id", "trace_ctx", "response_size_kb",
                 "then", "timeout_s", "timeout_call", "arrived_at", "post",
                 "args", "span", "value", "ok")
    kind = "request"

    def __init__(self, network: "Network", src: Hashable, dst: Hashable,
                 op: str, payload: Any, size_kb: float, rpc_id: int,
                 trace_ctx: Any, response_size_kb: float,
                 then: Optional[Callable[[bool, Any], None]]):
        self.network, self.src, self.dst, self.op = network, src, dst, op
        self.payload, self.size_kb, self.rpc_id = payload, size_kb, rpc_id
        self.sent_at = network.sim.now
        self.trace_ctx, self.response_size_kb = trace_ctx, response_size_kb
        self.then = then
        self.timeout_s, self.timeout_call, self.arrived_at = 0.0, None, 0.0
        self.post = self.args = self.span = self.value = None
        self.ok = True

    # -- caller side ------------------------------------------------------
    def done(self, ok: bool, value: Any) -> None:
        then, self.then = self.then, None
        if then is not None:
            then(ok, value)

    def expire(self) -> None:
        """The caller's timeout fired before any response."""
        net = self.network
        self.timeout_call = None
        if net._pending_rpcs.pop(self.rpc_id, None) is None:
            return
        net.stats.rpcs_failed += 1
        net.stats.rpcs_timed_out += 1
        net._finish_span(self, "timeout")
        self.done(False, RpcTimeout(
            f"rpc {self.op!r} to {self.dst!r} after {self.timeout_s}s"))

    # Snapshots key heap entries by callable qualname; this is the name
    # the timeout has always had there.
    expire.__qualname__ = "_PendingRpc.expire"

    def returned(self) -> None:
        """This copy's response arrived back at the caller."""
        net = self.network
        pending = net._pending_rpcs.pop(self.rpc_id, None)
        if pending is None:
            # Caller timed out and went on; response discarded (paper §4.3).
            net.stats.responses_discarded += 1
            return
        call = pending.timeout_call
        if call is not None:
            # The RPC resolved first; don't leave the timeout ticking
            # in the heap (long-timeout storms used to bloat it).
            call.cancel()
            pending.timeout_call = None
        if self.ok:
            net.stats.rpcs_completed += 1
            net._finish_span(pending, "ok")
            pending.done(True, self.value)
        else:
            net.stats.rpcs_failed += 1
            net._finish_span(pending, "error")
            pending.done(False, self.value
                         if isinstance(self.value, BaseException)
                         else RpcError(str(self.value)))

    # -- server side --------------------------------------------------------
    def arrive(self) -> None:
        """This copy reached ``dst``: run its handler (a deferred one
        answers later, through :meth:`served` or :meth:`fail`)."""
        net = self.network
        self.arrived_at = net.sim.now
        ep = net._endpoints[self.dst]
        if not ep.online:
            # Crashed service: the request is simply never answered;
            # the caller's timeout (if any) is its only signal — but
            # without one the pending entry must not leak.
            net._abandon(self.rpc_id, "endpoint_offline")
            return
        op = self.op
        handler = ep.handlers.get(op)
        if handler is None:
            net._send_response(self, RpcError(
                f"no handler for {op!r} on {self.dst!r}"), False, 0.0)
            return
        try:
            if op in ep._deferred_ops:
                handler(self)  # answers through ``self`` when served
                return
            outcome = handler(self.payload, self.src)
        except Exception as err:
            self.fail(err)
            return
        net._send_response(self, outcome, True, self.response_size_kb)

    def served(self) -> None:
        """Run the handler's post-service step and answer with its value."""
        try:
            value = self.post(self)
        except Exception as err:
            self.fail(err)
            return
        self.network._send_response(self, value, True, self.response_size_kb)

    def fail(self, err: Exception) -> None:
        """Answer with the remote error ``err``."""
        self.network._send_response(
            self, RpcError(f"{type(err).__name__}: {err}"), False, 0.0)


class Endpoint:
    """A named node attached to the network.  Plain handlers are called
    as ``fn(payload, src)`` and return the result; deferred ones as
    ``fn(request)``, answering through the :class:`Request`."""

    def __init__(self, network: "Network", node_id: Hashable):
        self.network = network
        self.node_id = node_id
        self.handlers: dict[str, Callable[..., Any]] = {}
        self._deferred_ops: set[str] = set()
        #: A downed endpoint swallows traffic: requests get no response
        #: (callers see their own timeouts — exactly how a crashed WAN
        #: service fails), one-way messages vanish.
        self.online = True
        network._register(self)

    def register_handler(self, op: str, fn: Callable[..., Any],
                         deferred: bool = False) -> None:
        if op in self.handlers:
            raise ValueError(f"handler for op {op!r} already registered on {self.node_id!r}")
        self.handlers[op] = fn
        if deferred:
            self._deferred_ops.add(op)

    # Subclasses may override for non-RPC one-way messages.
    def on_oneway(self, msg: Message) -> None:  # pragma: no cover - default
        raise NotImplementedError(
            f"endpoint {self.node_id!r} received one-way {msg.op!r} "
            "but does not override on_oneway()")


class Network:
    """The WAN: delivers messages after sampled latency plus transfer time.

    ``kb_transfer_s`` models effective serialization/transfer cost per
    KB of payload — SOAP-encoded state over PlanetLab paths is slow,
    and the paper notes the brokering protocol moves "significant
    state"; this constant is a calibration input (see configs).
    """

    def __init__(self, sim: Simulator, latency: LatencyModel,
                 kb_transfer_s: float = 0.0):
        if kb_transfer_s < 0:
            raise ValueError("kb_transfer_s must be >= 0")
        self.sim = sim
        self.latency = latency
        self.kb_transfer_s = kb_transfer_s
        #: Fault layer (``repro.faults``), the one way a message is
        #: lost: when installed, consulted once per message for
        #: per-link/per-node loss, extra delay, and duplication.  A
        #: dropped request or response simply never arrives; callers
        #: see their own timeouts, exactly as with a crashed peer.
        #: ``None`` costs one attribute check.
        self.faults = None
        self.stats = NetworkStats()
        self._endpoints: dict[Hashable, Endpoint] = {}
        self._rpc_seq = 0
        self._pending_rpcs: dict[int, Request] = {}
        #: ``rpc.<outcome>`` counters and the latency histogram, looked
        #: up once each on first use (the registry creates on lookup).
        self._outcome_counters: dict = {}
        self._latency_hist = None

    def _faulty_delays(self, msg) -> Optional[list]:
        """One delivery delay per copy the fault layer lets through
        (``sample + transfer + extra``); ``None``: dropped, tallied."""
        fate = self.faults.on_message(msg)
        if fate.drop:
            self.stats.dropped += 1
            return None
        transfer = msg.size_kb * self.kb_transfer_s
        return [self.latency.sample(msg.src, msg.dst) + transfer + extra
                for extra in fate.extra_delays]

    # -- registry -------------------------------------------------------
    def _register(self, ep: Endpoint) -> None:
        if ep.node_id in self._endpoints:
            raise ValueError(f"endpoint id {ep.node_id!r} already registered")
        self._endpoints[ep.node_id] = ep

    def endpoint(self, node_id: Hashable) -> Endpoint:
        return self._endpoints[node_id]

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._endpoints

    # -- message delivery -------------------------------------------------
    def send_oneway(self, src: Hashable, dst: Hashable, op: str, payload: Any,
                    size_kb: float = 0.0, trace_ctx: Any = None) -> None:
        """Fire-and-forget message (used by the sync flooding protocol)."""
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        msg = Message(src, dst, "oneway", op, payload, size_kb, self.sim.now,
                      0, True, trace_ctx)
        self.stats.messages += 1
        self.stats.kb += size_kb

        def deliver() -> None:
            ep = self._endpoints[dst]
            if ep.online:
                ep.on_oneway(msg)

        if self.faults is None:
            self.sim.schedule(self.latency.sample(src, dst)
                              + size_kb * self.kb_transfer_s, deliver)
            return
        for delay in self._faulty_delays(msg) or ():  # None: dropped
            self.sim.schedule(delay, deliver)

    def rpc(self, src: Hashable, dst: Hashable, op: str, payload: Any = None,
            size_kb: float = 0.0, response_size_kb: float = 0.0,
            timeout: Optional[float] = None, trace_ctx: Any = None,
            then: Optional[Callable] = None) -> Event | Request:
        """Invoke ``op`` on ``dst``: ``then(ok, value)`` runs the instant
        the outcome is known — the handler's return value, else
        :class:`RpcError` (remote exception) or :class:`RpcTimeout`
        (caller stopped waiting; the server-side work still completes).
        Returns the pending handle (set its ``then`` to ``None`` to stop
        listening); without ``then``, an :class:`Event` settled alike.

        Bookkeeping invariant: every entry in the pending-RPC table is
        eventually removed — on completion, on timeout, or the moment
        the transport *knows* no response can ever arrive (request or
        response dropped, or the destination is offline, with no
        timeout armed).  A timeout is cancelled when the RPC resolves
        first, so it leaves no live heap entry behind.
        """
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        self._rpc_seq = rpc_id = self._rpc_seq + 1
        sim = self.sim
        result = None
        if then is None:
            result = sim.event(name=f"rpc:{op}:{rpc_id}"
                               if sim.trace.enabled else "rpc")
            then = result.settle
        req = Request(self, src, dst, op, payload, size_kb, rpc_id,
                      trace_ctx, response_size_kb, then)
        self._pending_rpcs[rpc_id] = req
        stats = self.stats
        stats.rpcs_started += 1
        per_op = stats.per_op
        per_op[op] = per_op.get(op, 0) + 1
        stats.messages += 1
        stats.kb += size_kb
        if self.faults is None:
            sim.schedule(self.latency.sample(src, dst)
                         + size_kb * self.kb_transfer_s, req.arrive)
            delays = ()
        else:
            delays = self._faulty_delays(req)
            for i, delay in enumerate(delays or ()):  # a copy per duplicate
                sim.schedule(delay, (req if i == 0 else Request(
                    self, src, dst, op, payload, size_kb, rpc_id, trace_ctx,
                    response_size_kb, None)).arrive)
        if timeout is not None:
            req.timeout_s = timeout
            req.timeout_call = sim.schedule(timeout, req.expire)
        elif delays is None:
            # No response will ever come and no timeout will reap the
            # entry — retire it now (the caller is never answered,
            # exactly like talking to a crashed peer).
            self._abandon(rpc_id, "request_dropped")
        return req if result is None else result

    def _abandon(self, rpc_id: int, reason: str) -> None:
        """Retire a pending RPC that can never complete — unless an
        armed timeout will reap it later."""
        pending = self._pending_rpcs.get(rpc_id)
        if pending is None or pending.timeout_call is not None:
            return
        del self._pending_rpcs[rpc_id]
        self.stats.rpcs_failed += 1
        self.stats.rpcs_lost += 1
        self._finish_span(pending, reason)

    def _finish_span(self, pending: Request, outcome: str) -> None:
        """Close one RPC span: latency histogram and one ``rpc.<outcome>``
        event — a per-job kind, so its tally is inline and subscribers
        get a tuple detail (``repro.obs.trace.RPC_FIELDS``)."""
        now = self.sim.now
        latency = now - pending.sent_at
        metrics = self.sim.metrics
        if outcome in ("ok", "error", "timeout"):
            # Caller-perceived latency; lost/abandoned RPCs have none.
            hist = self._latency_hist
            if hist is None:
                hist = self._latency_hist = metrics.histogram("rpc.latency_s")
            hist.observe(latency)
        counter = self._outcome_counters.get(outcome)
        if counter is None:
            counter = self._outcome_counters[outcome] = metrics.counter(
                f"rpc.{outcome}")
        counter.value += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.publish(counter.name, pending.src,
                          (pending.op, pending.dst, pending.rpc_id, outcome,
                           latency, pending.size_kb), now)

    # -- server side --------------------------------------------------------
    def _send_response(self, req: Request, value: Any, ok: bool,
                       size_kb: float) -> None:
        self.stats.messages += 1
        self.stats.kb += size_kb
        req.value, req.ok = value, ok
        if self.faults is None:
            self.sim.schedule(self.latency.sample(req.dst, req.src)
                              + size_kb * self.kb_transfer_s, req.returned)
            return
        delays = self._faulty_delays(Message(
            req.dst, req.src, "response", req.op, value, size_kb,
            self.sim.now, req.rpc_id, ok))
        if delays is None:
            # Dropped response: without a timeout nothing else would
            # ever reap the caller's pending entry.
            self._abandon(req.rpc_id, "response_dropped")
            return
        for delay in delays:
            self.sim.schedule(delay, req.returned)
