"""Simulated message passing and RPC.

Endpoints register named operation handlers; a handler may return a
plain value (instant work) or a generator (a process that consumes
simulated time — e.g. acquiring the service container and spending the
request's service time).  The RPC result event fires when the response
message arrives back at the caller — so one RPC costs one full round
trip plus server-side time, and the multi-round-trip brokering protocol
of the paper is composed from several RPCs.

A caller-side ``timeout`` only abandons *waiting*: the server still
completes the request (and the response is discarded on arrival).  This
matches the paper's client behaviour — on a 15 s timeout the site
selector falls back to a random site while the original query keeps
running to completion inside the decision point.
"""

from __future__ import annotations

import inspect
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.sim.kernel import Event, ScheduledCall, Simulator

from repro.net.latency import LatencyModel

__all__ = ["Message", "Endpoint", "Network", "RpcError", "RpcTimeout"]


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
    #: Causal span context (``repro.obs.spans.SpanContext``) carried
    #: with the message so spans opened on the receiving node link to
    #: the sender's — the DES equivalent of trace-header propagation.
    #: ``None`` = untraced (spans off, or an unsampled trace).
    trace_ctx: Any = None


@dataclass
class NetworkStats:
    """Aggregate transport counters, for reporting and saturation checks.

    ``rpcs_failed`` counts *every* way an RPC can fail for the caller:
    remote errors, caller timeouts (``rpcs_timed_out``), and lost
    requests/responses that can never complete because no timeout was
    armed (``rpcs_lost``).  Timeouts used to be invisible here, which
    made the saturation detector and the run summary undercount
    failures under load.
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
    """Caller-side bookkeeping for one in-flight RPC."""

    __slots__ = ("event", "op", "src", "dst", "started_at", "size_kb",
                 "timeout_call")

    def __init__(self, event: Event, op: str, src: Hashable, dst: Hashable,
                 started_at: float, size_kb: float):
        self.event = event
        self.op = op
        self.src = src
        self.dst = dst
        self.started_at = started_at
        self.size_kb = size_kb
        self.timeout_call: Optional[ScheduledCall] = None


class _RpcExpiry:
    """Pooled per-RPC timeout callback (no closure per call).

    Instances are recycled through :attr:`Network._expiry_pool` when the
    timeout fires or the RPC resolves first.  Recycling while a
    *cancelled* heap entry still references the object is safe: the
    kernel never invokes cancelled entries, so a reused instance can
    only be called through its newest arming.
    """

    __slots__ = ("network", "rpc_id", "timeout_s")

    def __init__(self, network: "Network"):
        self.network = network
        self.rpc_id = 0
        self.timeout_s = 0.0

    def __call__(self) -> None:
        net = self.network
        rpc_id, timeout_s = self.rpc_id, self.timeout_s
        net._recycle_expiry(self)
        stale = net._pending_rpcs.pop(rpc_id, None)
        if stale is None:
            return
        stale.timeout_call = None
        net.stats.rpcs_failed += 1
        net.stats.rpcs_timed_out += 1
        net._finish_span(stale, rpc_id, "timeout")
        if not stale.event.triggered:
            stale.event.fail(RpcTimeout(
                f"rpc {stale.op!r} to {stale.dst!r} after {timeout_s}s"))


class Endpoint:
    """A named node attached to the network.

    Handlers receive ``(payload, src)`` and either return a result
    directly or return a generator which the transport runs as a
    process; the generator's return value becomes the RPC result.
    """

    def __init__(self, network: "Network", node_id: Hashable):
        self.network = network
        self.node_id = node_id
        self.handlers: dict[str, Callable[[Any, Hashable], Any]] = {}
        #: Ops whose handler takes a third positional parameter and so
        #: receives the request's ``trace_ctx`` (see register_handler).
        self._ctx_ops: set[str] = set()
        #: A downed endpoint swallows traffic: requests get no response
        #: (callers see their own timeouts — exactly how a crashed WAN
        #: service fails), one-way messages vanish.
        self.online = True
        network._register(self)

    def register_handler(self, op: str, fn: Callable[[Any, Hashable], Any]) -> None:
        if op in self.handlers:
            raise ValueError(f"handler for op {op!r} already registered on {self.node_id!r}")
        self.handlers[op] = fn
        # Handlers stay (payload, src) by default; one that declares a
        # third positional parameter opts into receiving the request's
        # span context — detected once here, not per message.
        try:
            positional = [
                p for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        except (TypeError, ValueError):  # builtins/partials w/o signature
            positional = []
        if len(positional) >= 3:
            self._ctx_ops.add(op)

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
        #: Free list of :class:`_RpcExpiry` callbacks (bounded; RPC
        #: timeout arming is per-call hot-path work at scale).
        self._expiry_pool: list[_RpcExpiry] = []

    def _recycle_expiry(self, expiry: _RpcExpiry) -> None:
        if len(self._expiry_pool) < 256:
            self._expiry_pool.append(expiry)

    def _fault_delays(self, msg: Message) -> Optional[tuple]:
        """Per-copy extra delays from the fault layer; ``None`` = dropped.

        With no fault model installed every message is delivered once
        with no extra delay.  The fault model does its own counting and
        tracing; the transport only tallies the drop.
        """
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
            timeout: Optional[float] = None,
            trace_ctx: Any = None) -> Event:
        """Invoke ``op`` on ``dst``; event fires when the response returns.

        The event succeeds with the handler's return value or fails with
        :class:`RpcError` (remote exception) / :class:`RpcTimeout`
        (caller stopped waiting; the server-side work still completes).

        Bookkeeping invariant: every entry in the pending-RPC table is
        eventually removed — on completion, on timeout, or the moment
        the transport *knows* no response can ever arrive (request or
        response dropped, or the destination is offline, with no
        timeout armed).  The timeout's :class:`ScheduledCall` is
        cancelled when the RPC resolves first, so long-timeout RPC
        storms no longer bloat the event heap.
        """
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        self._rpc_seq += 1
        rpc_id = self._rpc_seq
        result = self.sim.event(name=f"rpc:{op}:{rpc_id}")
        pending = _PendingRpc(result, op, src, dst, self.sim.now, size_kb)
        self._pending_rpcs[rpc_id] = pending
        self.stats.rpcs_started += 1
        self.stats.count(op)
        trace = self.sim.trace
        if trace.verbose and trace.enabled:
            trace.emit("rpc.send", node=src, dst=str(dst), op=op,
                       rpc_id=rpc_id, size_kb=size_kb)

        msg = Message(src=src, dst=dst, kind="request", op=op, payload=payload,
                      size_kb=size_kb, sent_at=self.sim.now, rpc_id=rpc_id,
                      trace_ctx=trace_ctx)
        self.stats.messages += 1
        self.stats.kb += size_kb
        delays = self._fault_delays(msg)
        for extra in delays or ():  # None: the request was dropped
            self.sim.schedule(
                self._delivery_delay(msg) + extra,
                lambda: self._handle_request(msg, response_size_kb))

        if timeout is not None:
            pool = self._expiry_pool
            expire = pool.pop() if pool else _RpcExpiry(self)
            expire.rpc_id = rpc_id
            expire.timeout_s = timeout
            pending.timeout_call = self.sim.schedule(timeout, expire)
        elif delays is None:
            # No response will ever come and no timeout will reap the
            # entry — retire it now (the caller's event stays pending
            # forever, exactly like talking to a crashed peer).
            self._abandon(rpc_id, "request_dropped")
        return result

    def _abandon(self, rpc_id: int, reason: str) -> None:
        """Retire a pending RPC that can never complete (no timeout armed)."""
        pending = self._pending_rpcs.pop(rpc_id, None)
        if pending is None:
            return
        self.stats.rpcs_failed += 1
        self.stats.rpcs_lost += 1
        self._finish_span(pending, rpc_id, reason)

    def _finish_span(self, pending: _PendingRpc, rpc_id: int,
                     outcome: str) -> None:
        """Close one RPC span: latency histogram + counters + trace.

        Emits a single compact ``rpc.span`` event per RPC (fields per
        ``repro.obs.trace.SPAN_FIELDS``) — the full intermediate chain
        is available under ``tracer.verbose``.
        """
        now = self.sim.now
        latency = now - pending.started_at
        metrics = self.sim.metrics
        if outcome in ("ok", "error", "timeout"):
            # Caller-perceived latency; lost/abandoned RPCs have none.
            metrics.histogram("rpc.latency_s").observe(latency)
        metrics.counter(f"rpc.{outcome}").inc()
        trace = self.sim.trace
        if trace.enabled:
            trace.emit_compact(
                "rpc.span", pending.src,
                (pending.op, pending.dst, rpc_id, outcome, latency,
                 pending.size_kb),
                time=now)

    # -- server side --------------------------------------------------------
    def _handle_request(self, msg: Message, response_size_kb: float) -> None:
        ep = self._endpoints[msg.dst]
        if not ep.online:
            # Crashed service: the request is simply never answered;
            # the caller's timeout (if any) is its only signal — but
            # without one the pending entry must not leak.
            self._abandon_if_unreaped(msg.rpc_id, "endpoint_offline")
            return
        trace = self.sim.trace
        if trace.verbose and trace.enabled:
            trace.emit("rpc.handle", node=msg.dst, op=msg.op,
                       rpc_id=msg.rpc_id, src=str(msg.src))
        handler = ep.handlers.get(msg.op)
        if handler is None:
            self._send_response(msg, RpcError(f"no handler for {msg.op!r} on {msg.dst!r}"),
                                ok=False, size_kb=0.0)
            return
        try:
            if msg.op in ep._ctx_ops:
                outcome = handler(msg.payload, msg.src, msg.trace_ctx)
            else:
                outcome = handler(msg.payload, msg.src)
        except Exception as err:
            self._send_response(msg, RpcError(f"{type(err).__name__}: {err}"),
                                ok=False, size_kb=0.0)
            return
        if isinstance(outcome, types.GeneratorType):
            proc = self.sim.process(outcome, name=f"handler:{msg.op}")

            def finished(ev: Event) -> None:
                if ev.ok:
                    self._send_response(msg, ev.value, ok=True, size_kb=response_size_kb)
                else:
                    self._send_response(
                        msg, RpcError(f"{type(ev.value).__name__}: {ev.value}"),
                        ok=False, size_kb=0.0)

            proc.add_callback(finished)
        else:
            self._send_response(msg, outcome, ok=True, size_kb=response_size_kb)

    def _send_response(self, request: Message, value: Any, ok: bool,
                       size_kb: float) -> None:
        resp = Message(src=request.dst, dst=request.src, kind="response",
                       op=request.op, payload=value, size_kb=size_kb,
                       sent_at=self.sim.now, rpc_id=request.rpc_id, ok=ok)
        self.stats.messages += 1
        self.stats.kb += size_kb
        trace = self.sim.trace
        if trace.verbose and trace.enabled:
            trace.emit("rpc.respond", node=request.dst, op=request.op,
                       rpc_id=request.rpc_id, ok=ok, size_kb=size_kb)
        delays = self._fault_delays(resp)
        if delays is None:
            # Dropped response: without a timeout nothing else would
            # ever reap the caller's pending entry.
            self._abandon_if_unreaped(resp.rpc_id, "response_dropped")
            return
        for extra in delays:
            self.sim.schedule(self._delivery_delay(resp) + extra,
                              lambda: self._complete_rpc(resp))

    def _abandon_if_unreaped(self, rpc_id: int, reason: str) -> None:
        """Abandon now unless an armed timeout will reap the entry later."""
        pending = self._pending_rpcs.get(rpc_id)
        if pending is not None and pending.timeout_call is None:
            self._abandon(rpc_id, reason)

    def _complete_rpc(self, resp: Message) -> None:
        pending = self._pending_rpcs.pop(resp.rpc_id, None)
        if pending is None or pending.event.triggered:
            # Caller timed out and went on; response discarded (paper §4.3).
            self.stats.responses_discarded += 1
            trace = self.sim.trace
            if trace.verbose and trace.enabled:
                trace.emit("rpc.discard", node=resp.dst, op=resp.op,
                           rpc_id=resp.rpc_id)
            return
        if pending.timeout_call is not None:
            # The RPC resolved first; don't leave the timeout ticking
            # in the heap (long-timeout storms used to bloat it).
            call = pending.timeout_call
            expire = call.fn  # read first: a cancel may compact it away
            call.cancel()
            if type(expire) is _RpcExpiry:
                self._recycle_expiry(expire)
            pending.timeout_call = None
        result = pending.event
        if resp.ok:
            self.stats.rpcs_completed += 1
            self._finish_span(pending, resp.rpc_id, "ok")
            result.succeed(resp.payload)
        else:
            self.stats.rpcs_failed += 1
            self._finish_span(pending, resp.rpc_id, "error")
            result.fail(resp.payload if isinstance(resp.payload, BaseException)
                        else RpcError(str(resp.payload)))
