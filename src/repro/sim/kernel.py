"""Event loop, events, and generator-based processes.

The simulator keeps a single binary heap of ``(time, seq, callback)``
entries.  ``seq`` is a monotonically increasing tie-breaker so that two
events scheduled for the same instant fire in scheduling order — this
makes every run bit-for-bit deterministic, which the reproduction
relies on (see DESIGN.md §6).  The brokering path schedules bound
methods of slotted objects directly; processes serve the few
multi-step paths still written as generators.  A process may ``yield``:

* a ``float``/``int`` — sleep for that many simulated seconds;
* an :class:`Event` — suspend until the event succeeds or fails;
* another :class:`Process` — suspend until that process terminates.

Failures propagate: waiting on an event that *fails* raises the failure
exception inside the generator, so brokering code can use ordinary
``try/except`` around RPC calls.
"""

from __future__ import annotations

import gc
import heapq
import math
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

import numpy as np

from repro.obs.counters import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.trace import Tracer
from repro.sim.snapshot import utf8_array

__all__ = [
    "Event",
    "AnyOf",
    "Process",
    "ScheduledCall",
    "Simulator",
]

_PENDING = object()


class Event:
    """A one-shot occurrence with a value or an exception.

    Callbacks receive the event itself.  An event may *succeed* (carry a
    value) or *fail* (carry an exception); both trigger the callbacks,
    which inspect :attr:`ok`.
    """

    __slots__ = ("sim", "callbacks", "_value", "ok", "name", "_in_flight")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self.ok: Optional[bool] = None
        self.name = name
        self._in_flight: Optional[list] = None

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError(f"event {self.name!r} has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._value = value
        self.ok = True
        self.sim._schedule_now(self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._value = exc
        self.ok = False
        self.sim._schedule_now(self._dispatch)
        return self

    def settle(self, ok: bool, value: Any) -> None:
        """Succeed with ``value`` if ``ok``, else fail with it."""
        (self.succeed if ok else self.fail)(value)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already dispatched: run at the current instant, preserving
            # the invariant that callbacks never run synchronously from
            # within add_callback.
            self.sim._schedule_now(lambda: fn(self))
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a callback added earlier; no-op if absent or already run.

        Removal is honored even *during* dispatch: a callback that
        removes a not-yet-run sibling prevents that sibling from firing.
        The in-flight list is mutated by sentinel replacement (never
        ``list.remove``) so the dispatch iteration can neither skip nor
        double-run a neighbour of the removed entry.
        """
        if self.callbacks is not None:
            try:
                self.callbacks.remove(fn)
            except ValueError:
                pass
        elif self._in_flight is not None:
            flight = self._in_flight
            for i in range(len(flight)):
                if flight[i] is fn:
                    flight[i] = None
                    break

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._in_flight = callbacks
        try:
            for fn in callbacks:
                if fn is not None:
                    fn(self)
        finally:
            self._in_flight = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self.ok else "failed")
        return f"<Event {self.name!r} {state}>"


class AnyOf(Event):
    """Succeeds as soon as any of the given events triggers.

    The value is a dict mapping the triggered events (so far) to their
    values; a failed child event fails the condition with its exception.

    Once the condition resolves it *detaches* from every still-pending
    child, so a won race does not keep the condition alive until its
    timeout fires; a detached child timeout that nobody else watches is
    cancelled outright, leaving no live heap entry behind.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed({e: e.value for e in self.events if e.triggered and e.ok})
        else:
            self.fail(ev.value)
        self._detach_pending()

    def _detach_pending(self) -> None:
        for ev in self.events:
            if ev.triggered:
                continue
            ev.remove_callback(self._on_child)
            if not ev.callbacks and type(ev) is _Timeout:
                # Unobservable loser timer: drop its heap entry now
                # (re-armed transparently if a watcher appears later).
                ev.call.cancel()


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy — the heap entry stays put and is skipped when
    popped — but each cancel is *accounted* so the simulator can compact
    the heap once dead entries dominate (see :meth:`cancel`).  ``_sim``
    is cleared when the entry leaves the heap so late cancels don't
    skew the accounting, and so is ``fn``: a handle kept by the object
    its callable is bound to (``_Timeout.call`` → ``_fire`` → the
    timeout) would otherwise be a reference cycle only the cyclic
    collector can free.  :meth:`Simulator.schedule_at` fills the four
    slots itself (no ``__init__`` frame per scheduled callback).
    """

    __slots__ = ("time", "fn", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[[], None],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.fn = fn
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the entry dead; compact the heap once dead entries
        dominate it.

        Accounting contract: a cancel is noted iff its entry is still
        *in the heap* (``_sim`` is cleared the moment an entry leaves —
        popped or compacted away), so ``Simulator._dead`` counts a
        subset of heap entries and can never exceed the heap size.  The
        guard turns any double-note / late-note bug into a loud failure
        instead of silently skewed compaction behaviour.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._dead = dead = sim._dead + 1
                size = len(sim._heap)
                if dead > size:
                    raise AssertionError(
                        f"cancel accounting skewed: {dead} dead entries "
                        f"noted for a heap of {size}")
                if dead >= sim._compact_min and 2 * dead >= size:
                    sim._compact()


_new = object.__new__


class _Timeout(Event):
    """A timeout event scheduled via a pre-bound method (no closure).
    ``call`` is the heap entry; an :class:`AnyOf` that resolves first
    cancels it when nobody else is watching, and :meth:`add_callback`
    re-arms it if a watcher appears after such a cancellation.
    """

    __slots__ = ("_payload", "call")

    def __init__(self, sim: "Simulator", delay: float, value: Any):
        Event.__init__(self, sim, name="timeout")
        self._payload = value
        self.call = sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if not self.triggered:
            self._value = self._payload
            self.ok = True
            self._dispatch()

    def add_callback(self, fn: Callable[[Event], None]) -> None:
        if self.call.cancelled and not self.triggered:
            # Cancelled as an unobservable race loser, but someone does
            # care after all: re-arm at the original fire time (or now,
            # if that instant has already passed).
            self.call = self.sim.schedule_at(
                max(self.call.time, self.sim.now), self._fire)
        Event.add_callback(self, fn)


class Process(Event):
    """A running generator; doubles as its own termination event.

    The termination event succeeds with the generator's return value
    (``StopIteration.value``) or fails with the exception that escaped
    the generator.
    """

    __slots__ = ("gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        # The simulator pins every live process (see Simulator._processes):
        # a process abandoned mid-wait (e.g. its wake-up event can never
        # fire) must stay suspended, NOT become cyclic garbage — the GC
        # would close the generator and run its ``finally`` blocks at an
        # arbitrary wall-clock-dependent instant, breaking determinism.
        sim._processes.add(self)
        sim.trace.emit("process.start", self.name)
        sim._schedule_now(lambda: self._resume(None, None))

    # -- driving ------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.sim.trace.emit("process.finish", self.name)
            self.succeed(stop.value)
            return
        except Exception as err:
            self.sim.trace.emit("process.fail", self.name,
                                error=f"{type(err).__name__}: {err}")
            self.fail(err)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> Any:
        """Throw an event's failure into the generator.

        Once the generator has handled it, the traceback goes: it points
        at the generator's frame, whose locals still hold the failed
        event, whose value is ``exc`` — a cycle only the collector could
        free.  An exception that escapes the generator keeps it.
        """
        try:
            target = self.gen.throw(exc)
        except StopIteration:
            exc.__traceback__ = None
            raise
        exc.__traceback__ = None
        return target

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Event):
            ev = target
        elif isinstance(target, (int, float)):
            # Plain sleep: resume directly from the heap — no Event, no
            # callback list, no dispatch hop.
            delay = float(target)
            if delay < 0:
                raise ValueError(f"negative timeout {delay}")
            self.sim.schedule(delay, self._wake)
            return
        else:
            self._resume(
                None,
                TypeError(f"process {self.name!r} yielded {target!r}; "
                          "expected Event, Process, or a numeric delay"),
            )
            return
        self._waiting_on = ev
        ev.add_callback(self._on_event)

    def _on_event(self, ev: Event) -> None:
        if self.triggered or self._waiting_on is not ev:
            return
        if ev.ok:
            self._resume(ev.value, None)
        else:
            self._resume(None, ev.value)

    def _wake(self) -> None:
        """Direct resume from a plain sleep."""
        self._resume(None, None)

    # -- unhandled-failure detection ------------------------------------
    def _dispatch(self) -> None:
        """Like :meth:`Event._dispatch`, but a failure that nobody was
        waiting on is *surfaced*: counted and traced instead of
        vanishing (a crashed broker process used to disappear here).
        """
        had_watchers = bool(self.callbacks)
        super()._dispatch()
        self.sim._processes.discard(self)
        if self.ok is False and not had_watchers:
            self.sim.trace.emit(
                "kernel.unhandled_failures", self.name,
                error=f"{type(self.value).__name__}: {self.value}")


class _Periodic:
    """The chain behind :meth:`Simulator.every`: one slotted object whose
    bound :meth:`tick` is the scheduled callable and whose :meth:`cancel`
    stops the chain — no class or closure per call (the house pattern of
    ``net.transport.Request``).
    """

    __slots__ = ("sim", "interval", "fn", "jitter", "rng", "on_error",
                 "name", "stopped", "next")

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[[], None], jitter: float, rng,
                 on_error: Union[str, Callable[[Exception], None]],
                 name: str):
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.jitter = jitter
        self.rng = rng
        self.on_error = on_error
        self.name = name
        self.stopped = False
        self.next: Optional[ScheduledCall] = None

    def delay(self, base: float) -> float:
        if self.jitter and self.rng is not None:
            return base + float(self.rng.uniform(0.0, self.jitter))
        return base

    def tick(self) -> None:
        if self.stopped:
            return
        try:
            self.fn()
        except Exception as err:
            self.sim.trace.emit("kernel.periodic_errors", self.name,
                                error=f"{type(err).__name__}: {err}")
            if self.on_error == "raise":
                raise
            if callable(self.on_error):
                self.on_error(err)
        finally:
            if not self.stopped:
                self.next = self.sim.schedule(self.delay(self.interval),
                                              self.tick)

    # Snapshots key heap entries by callable qualname; this is the name
    # the tick has always had there.
    tick.__qualname__ = "Simulator.every.<locals>.tick"

    def cancel(self) -> None:
        self.stopped = True
        self.next.cancel()


class Simulator:
    """The discrete-event loop: a clock plus a heap of pending callbacks.

    Entries pop in ``(time, seq)`` order — the whole ordering contract:
    same-instant events fire in scheduling order, and an event scheduled
    *during* an instant for that instant fires after every same-instant
    entry already queued (DESIGN.md §6).

    ``compact_min`` is the minimum number of cancelled heap entries
    before a compaction is considered; compaction triggers once at
    least half the heap is dead and rebuilds it without the dead
    entries.  Pop order is unaffected: entries keep their unique
    ``(time, seq)`` keys, and a heap pops those in sorted order
    regardless of its internal layout.
    """

    def __init__(self, compact_min: int = 64) -> None:
        self.now: float = 0.0
        self._compact_min = compact_min
        self._dead: int = 0
        self.compactions: int = 0
        self.heap_peak: int = 0
        self._heap: list[tuple[float, int, ScheduledCall]] = []
        self._seq: int = 0
        self._event_count: int = 0
        #: Strong refs to every not-yet-terminated process.  Without
        #: this, a process whose wake-up event can never fire (dropped
        #: message, crashed peer) turns into an unreachable cycle; the
        #: cyclic GC would then ``close()`` the suspended generator and
        #: run its ``finally`` blocks at an allocation-count-dependent
        #: instant — observed as run-to-run nondeterminism under fault
        #: injection.  Membership only; never iterated.
        self._processes: set["Process"] = set()
        #: Observability: always-on counters/histograms plus the event
        #: stream whose tallies live among them, shared by everything
        #: running on this simulator (transport, brokers, monitors).
        self.metrics = MetricsRegistry()
        self.trace = Tracer(clock=lambda: self.now, metrics=self.metrics)
        #: Causal span recorder (off by default): per-job lifecycle and
        #: sync-round spans on the sim clock, linked across nodes via
        #: Message.trace_ctx.  Recording never schedules events, so
        #: spans on/off runs are event-for-event identical.
        self.spans = SpanRecorder(clock=lambda: self.now)

    # -- scheduling -----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> ScheduledCall:
        """Run ``fn()`` after ``delay`` simulated seconds.

        ``not delay >= 0`` refuses NaN too: a NaN entry would sit at the
        heap head forever.  Every entry goes through :meth:`schedule_at`
        (the ledger's tracer attributes a callback's time by wrapping it).
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule at delay={delay} "
                             "(must be a number >= 0)")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], None]) -> ScheduledCall:
        """Run ``fn()`` at absolute simulated ``time`` (not before now,
        and not NaN).  Fills the handle's slots and pushes the entry
        itself: no ``ScheduledCall.__init__`` frame per callback."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at t={time} (now={self.now})")
        call = _new(ScheduledCall)
        call.time = time
        call.fn = fn
        call.cancelled = False
        call._sim = self
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, call))
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)
        return call

    # -- heap hygiene -----------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (order-preserving).

        The rebuild is *in place* (``self._heap`` keeps its identity):
        :meth:`run` holds a local alias to the heap list across
        callback dispatch, and a callback cancelling enough entries can
        trigger a compaction mid-instant.  Rebinding the attribute would
        strand that alias on the stale list and silently drop every
        event scheduled afterwards.
        """
        heap = self._heap
        live = []
        for entry in heap:
            if entry[2].cancelled:
                # Left the heap; clear the back-references so the entry
                # upholds the same contract as a popped one (and does
                # not pin the simulator or its callable's owner alive).
                entry[2]._sim = None
                entry[2].fn = None
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1

    def _schedule_now(self, fn: Callable[[], None]) -> ScheduledCall:
        return self.schedule_at(self.now, fn)

    # -- events & processes ----------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        return _Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def every(self, interval: float, fn: Callable[[], None],
              start: Optional[float] = None, jitter: float = 0.0,
              rng=None,
              on_error: Union[str, Callable[[Exception], None]] = "raise",
              name: str = "") -> _Periodic:
        """Call ``fn()`` periodically.

        Returns the chain's handle; cancelling it stops the chain.
        ``jitter`` (uniform in ``[0, jitter]``, drawn from ``rng``)
        desynchronizes repeated timers, which the decision-point sync
        protocol uses so that all brokers do not flood the mesh at the
        same instant.

        An exception in ``fn()`` no longer kills the chain: the next
        tick is rescheduled in a ``finally`` (one bad sync round used to
        permanently desynchronize a decision point), the error is one
        ``kernel.periodic_errors`` event, and then handled per
        ``on_error``:

        * ``"raise"`` (default) — re-raise out of the event loop;
        * ``"record"`` — swallow after counting/tracing (what the sync
          protocol and site monitor use: one bad round must not take
          down the experiment, but must not vanish either);
        * a callable — invoked with the exception.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not callable(on_error) and on_error not in ("raise", "record"):
            raise ValueError(
                f"on_error must be 'raise', 'record', or callable, "
                f"got {on_error!r}")
        periodic = _Periodic(self, interval, fn, jitter, rng, on_error, name)
        first_delay = interval if start is None else start
        periodic.next = self.schedule(periodic.delay(first_delay),
                                      periodic.tick)
        return periodic

    # -- running ----------------------------------------------------------
    def _pop_cancelled(self, call: ScheduledCall) -> None:
        """Account for one cancelled entry leaving the heap."""
        call._sim = None
        call.fn = None
        self._dead -= 1
        if self._dead < 0:
            raise AssertionError(
                "cancel accounting skewed: popped more cancelled "
                "entries than were ever noted")

    def step(self) -> bool:
        """Execute the next pending callback; return False if none left."""
        while self._heap:
            time, _seq, call = heapq.heappop(self._heap)
            if call.cancelled:
                self._pop_cancelled(call)
                continue
            if time < self.now:  # pragma: no cover - heap invariant guard
                raise RuntimeError("event heap produced a past timestamp")
            call._sim = None  # left the heap; late cancels don't count
            fn, call.fn = call.fn, None
            self.now = time
            self._event_count += 1
            fn()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap empties or the clock would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until``,
        matching the fixed one-hour windows of the paper's experiments.

        The outer loop pays the head-peek and ``until`` comparison once
        per *instant*; the inner loop pops and dispatches every entry at
        that instant.  New events scheduled during an instant for the
        same instant carry higher seq numbers, so they sort after the
        remaining same-time entries and are picked up by the inner loop
        in scheduling order — exactly the one-at-a-time :meth:`step`
        order.

        The local ``heap`` alias stays valid across callbacks because
        :meth:`_compact` rebuilds in place, and ``_dead`` is accounted
        per pop so a mid-instant cancel can never observe a stale count
        (:meth:`ScheduledCall.cancel` asserts ``_dead <= len(heap)``).

        Automatic cyclic collection is suspended while the loop runs and
        the caller's setting restored on the way out, exception or not:
        the simulator makes no reference cycles (refcounting frees what
        a run discards, ``tests/test_refcount_clean.py``), so a collector
        pass could only walk the live graph and find nothing.
        """
        heap = self._heap
        pop = heapq.heappop
        bounded = until is not None
        if bounded and not until >= self.now:  # NaN too
            raise ValueError(f"until={until} is in the past (now={self.now})")
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                time = heap[0][0]
                if bounded and time > until:
                    break
                while heap and heap[0][0] == time:
                    call = pop(heap)[2]
                    if call.cancelled:  # ``_pop_cancelled``, inline
                        call._sim = call.fn = None
                        self._dead -= 1
                        if self._dead < 0:
                            raise AssertionError(
                                "cancel accounting skewed: popped more "
                                "cancelled entries than were ever noted")
                        continue
                    call._sim = None  # left the heap; late cancels don't count
                    fn, call.fn = call.fn, None
                    self.now = time
                    self._event_count += 1
                    fn()
        finally:
            if collecting:
                gc.enable()
        if bounded:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled heap entries (upper bound)."""
        return sum(1 for _, _, c in self._heap if not c.cancelled)

    @property
    def events_executed(self) -> int:
        return self._event_count

    # -- snapshot support -------------------------------------------------
    def run_to_event(self, target: int, until: float = math.inf) -> None:
        """Step until exactly ``target`` events have executed, or until
        the heap's head lies past ``until`` or none is left (the caller
        compares the count and time reached; a cancelled head at or
        before ``until`` can let one live event past it fire).

        Replay primitive for ``repro.sim.snapshot``: a checkpoint records
        the event count *including* the checkpoint callback itself, so a
        restore replays to that exact boundary and then resumes the
        bounded run; ``until`` is the checkpoint's instant, so a count
        past the run's end stops there instead of stepping on forever.
        :meth:`step` pops in the same ``(time, seq)`` order as :meth:`run`.
        """
        if target < self._event_count:
            raise ValueError(
                f"cannot replay backwards: target={target} < "
                f"executed={self._event_count}")
        heap = self._heap
        while self._event_count < target and heap and heap[0][0] <= until:
            self.step()

    def snapshot_state(self) -> dict:
        """Canonical kernel state for snapshot digests.

        Heap entries are keyed by ``(time, seq, cancelled, qualname)`` —
        callback identity via ``__qualname__``, never ``repr`` (memory
        addresses would poison the digest) — as arrays in scheduling
        (``seq``, unique) order, so the capture is independent of the
        heap's internal layout.
        """
        heap = self._heap
        times, seqs, calls = zip(*heap) if heap else ((), (), ())
        seq = np.array(seqs, "<i8")
        order = np.argsort(seq)
        fns = [calls[i].fn for i in order.tolist()]
        try:
            names = [fn.__qualname__ for fn in fns]
        except AttributeError:
            names = [getattr(fn, "__qualname__", type(fn).__name__)
                     for fn in fns]
        return {
            "now": self.now,
            "event_count": self._event_count,
            "seq": self._seq,
            "dead": self._dead,
            "processes": len(self._processes),
            "heap": {
                "time": np.array(times, "<f8")[order],
                "seq": seq[order],
                "cancelled": np.array(
                    [call.cancelled for call in calls], "u1")[order],
                "fn": utf8_array(names),
            },
        }
