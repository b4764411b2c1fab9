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

from repro.sim.kernel import Event, ScheduledCall, Simulator

from repro.net.latency import LatencyModel

__all__ = ["Message", "Endpoint", "Network", "Request", "RpcError",
           "RpcTimeout"]


class RpcError(Exception):
    """The remote handler raised; carries the remote exception string."""


class RpcTimeout(RpcError):
    """The caller stopped waiting before the response arrived."""


@dataclass
class Message:
    """One simulated network message."""

    src: Hashable
    dst: Hashable
    kind: str                    # "request" | "response" | "oneway"
    op: str
    payload: Any
    size_kb: float = 0.0
    sent_at: float = 0.0
    rpc_id: int = 0
    ok: bool = True              # for responses: handler succeeded?
    #: Causal span context (a ``repro.obs.spans.SpanRecorder`` row)
    #: carried with the message so spans opened on the receiving node
    #: link to the sender's — the DES equivalent of trace-header
    #: propagation.  ``None`` = untraced (spans off, or unsampled).
    trace_ctx: Any = None


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

    def count(self, op: str) -> None:
        self.per_op[op] = self.per_op.get(op, 0) + 1


class _PendingRpc:
    """Caller-side bookkeeping for one in-flight RPC (its request ``msg``
    names it); the bound :meth:`expire` is its timeout callback.  Every
    outcome reaches the caller once, as ``then(ok, value)`` via
    :meth:`done`; ``then`` is ``None`` once the caller stopped listening."""

    __slots__ = ("network", "msg", "then", "timeout_s", "timeout_call")

    def __init__(self, network: "Network", msg: Message,
                 then: Callable[[bool, Any], None]):
        self.network = network
        self.msg = msg
        self.then: Optional[Callable[[bool, Any], None]] = then
        self.timeout_s = 0.0
        self.timeout_call: Optional[ScheduledCall] = None

    def done(self, ok: bool, value: Any) -> None:
        then, self.then = self.then, None
        if then is not None:
            then(ok, value)

    def expire(self) -> None:
        """The caller's timeout fired before any response."""
        net, msg = self.network, self.msg
        self.timeout_call = None
        if net._pending_rpcs.pop(msg.rpc_id, None) is None:
            return
        net.stats.rpcs_failed += 1
        net.stats.rpcs_timed_out += 1
        net._finish_span(self, "timeout")
        self.done(False, RpcTimeout(
            f"rpc {msg.op!r} to {msg.dst!r} after {self.timeout_s}s"))


class Request:
    """One delivered copy of an RPC request, server side; its bound
    methods are the scheduled callables (the :class:`_PendingRpc`
    pattern).  A deferred handler gets the request itself: it sets
    ``post`` (called as ``post(request)`` once served; returns the
    answer), its parsed ``args`` and server-side ``span``, and hands
    :meth:`served` to its service station as the continuation.
    """

    __slots__ = ("network", "msg", "response_size_kb", "arrived_at",
                 "post", "args", "span", "response")

    def __init__(self, network: "Network", msg: Message,
                 response_size_kb: float):
        self.network = network
        self.msg = msg
        self.response_size_kb = response_size_kb
        self.arrived_at = 0.0
        self.post: Optional[Callable[["Request"], Any]] = None
        self.args: Any = None
        self.span = None
        self.response: Optional[Message] = None

    def arrive(self) -> None:
        self.arrived_at = self.network.sim.now
        self.network._handle_request(self)

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

    def returned(self) -> None:
        self.network._complete_rpc(self.response)


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
        self._pending_rpcs: dict[int, _PendingRpc] = {}
        #: ``rpc.<outcome>`` counters and the latency histogram, looked
        #: up once each on first use (the registry creates on lookup).
        self._outcome_counters: dict = {}
        self._latency_hist = None

    def _fault_delays(self, msg: Message) -> Optional[tuple]:
        """Per-copy extra delays from the fault layer; ``None`` = dropped
        (tallied here; the fault model does its own counting/tracing)."""
        if self.faults is None:
            return (0.0,)
        fate = self.faults.on_message(msg)
        if fate.drop:
            self.stats.dropped += 1
            return None
        return fate.extra_delays

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
    def _delivery_delay(self, msg: Message) -> float:
        return self.latency.sample(msg.src, msg.dst) + msg.size_kb * self.kb_transfer_s

    def send_oneway(self, src: Hashable, dst: Hashable, op: str, payload: Any,
                    size_kb: float = 0.0, trace_ctx: Any = None) -> None:
        """Fire-and-forget message (used by the sync flooding protocol)."""
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        msg = Message(src=src, dst=dst, kind="oneway", op=op, payload=payload,
                      size_kb=size_kb, sent_at=self.sim.now,
                      trace_ctx=trace_ctx)
        self.stats.messages += 1
        self.stats.kb += size_kb
        delays = self._fault_delays(msg)
        if delays is None:
            return

        def deliver() -> None:
            ep = self._endpoints[dst]
            if ep.online:
                ep.on_oneway(msg)

        for extra in delays:
            self.sim.schedule(self._delivery_delay(msg) + extra, deliver)

    def rpc(self, src: Hashable, dst: Hashable, op: str, payload: Any = None,
            size_kb: float = 0.0, response_size_kb: float = 0.0,
            timeout: Optional[float] = None, trace_ctx: Any = None,
            then: Optional[Callable] = None) -> Event | _PendingRpc:
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
        self._rpc_seq += 1
        rpc_id = self._rpc_seq
        sim = self.sim
        result = None
        if then is None:
            result = sim.event(name=f"rpc:{op}:{rpc_id}"
                               if sim.trace.enabled else "rpc")
            then = result.settle
        msg = Message(src=src, dst=dst, kind="request", op=op, payload=payload,
                      size_kb=size_kb, sent_at=sim.now, rpc_id=rpc_id,
                      trace_ctx=trace_ctx)
        pending = _PendingRpc(self, msg, then)
        self._pending_rpcs[rpc_id] = pending
        self.stats.rpcs_started += 1
        self.stats.count(op)
        self.stats.messages += 1
        self.stats.kb += size_kb
        delays = self._fault_delays(msg)
        for extra in delays or ():  # None: the request was dropped
            sim.schedule(self._delivery_delay(msg) + extra,
                         Request(self, msg, response_size_kb).arrive)

        if timeout is not None:
            pending.timeout_s = timeout
            pending.timeout_call = sim.schedule(timeout, pending.expire)
        elif delays is None:
            # No response will ever come and no timeout will reap the
            # entry — retire it now (the caller is never answered,
            # exactly like talking to a crashed peer).
            self._abandon(rpc_id, "request_dropped")
        return pending if result is None else result

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

    def _finish_span(self, pending: _PendingRpc, outcome: str) -> None:
        """Close one RPC span: latency histogram, ``rpc.<outcome>``
        counter and one compact ``rpc.span`` trace event (fields per
        ``repro.obs.trace.SPAN_FIELDS``)."""
        now, msg = self.sim.now, pending.msg
        latency = now - msg.sent_at
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
        counter.inc()
        trace = self.sim.trace
        if trace.enabled:
            trace.emit_compact(
                "rpc.span", msg.src,
                (msg.op, msg.dst, msg.rpc_id, outcome, latency, msg.size_kb),
                time=now)

    # -- server side --------------------------------------------------------
    def _handle_request(self, req: Request) -> None:
        msg = req.msg
        ep = self._endpoints[msg.dst]
        if not ep.online:
            # Crashed service: the request is simply never answered;
            # the caller's timeout (if any) is its only signal — but
            # without one the pending entry must not leak.
            self._abandon(msg.rpc_id, "endpoint_offline")
            return
        handler = ep.handlers.get(msg.op)
        if handler is None:
            self._send_response(req, RpcError(f"no handler for {msg.op!r} on {msg.dst!r}"),
                                False, 0.0)
            return
        try:
            if msg.op in ep._deferred_ops:
                handler(req)  # answers through ``req`` when served
                return
            outcome = handler(msg.payload, msg.src)
        except Exception as err:
            req.fail(err)
            return
        self._send_response(req, outcome, True, req.response_size_kb)

    def _send_response(self, req: Request, value: Any, ok: bool,
                       size_kb: float) -> None:
        request = req.msg
        resp = Message(src=request.dst, dst=request.src, kind="response",
                       op=request.op, payload=value, size_kb=size_kb,
                       sent_at=self.sim.now, rpc_id=request.rpc_id, ok=ok)
        self.stats.messages += 1
        self.stats.kb += size_kb
        delays = self._fault_delays(resp)
        if delays is None:
            # Dropped response: without a timeout nothing else would
            # ever reap the caller's pending entry.
            self._abandon(resp.rpc_id, "response_dropped")
            return
        req.response = resp
        for extra in delays:
            self.sim.schedule(self._delivery_delay(resp) + extra, req.returned)

    def _complete_rpc(self, resp: Message) -> None:
        pending = self._pending_rpcs.pop(resp.rpc_id, None)
        if pending is None:
            # Caller timed out and went on; response discarded (paper §4.3).
            self.stats.responses_discarded += 1
            return
        if pending.timeout_call is not None:
            # The RPC resolved first; don't leave the timeout ticking
            # in the heap (long-timeout storms used to bloat it).
            pending.timeout_call.cancel()
            pending.timeout_call = None
        if resp.ok:
            self.stats.rpcs_completed += 1
            self._finish_span(pending, "ok")
            pending.done(True, resp.payload)
        else:
            self.stats.rpcs_failed += 1
            self._finish_span(pending, "error")
            pending.done(False, resp.payload
                         if isinstance(resp.payload, BaseException)
                         else RpcError(str(resp.payload)))
