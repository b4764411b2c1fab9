"""Property-based tests (hypothesis) for kernel invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Server, Simulator


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=200))
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=100),
       cutoff=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_run_until_partitions_events_exactly(delays, cutoff):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=cutoff)
    assert sorted(fired) == sorted(d for d in delays if d <= cutoff)
    assert sim.now == cutoff


def serve_all(sim, srv, service_times, arrivals=None, on_grant=None):
    """Each job arrives (at ``arrivals[i]``, default 0), takes a slot of
    ``srv``, holds it ``service_times[i]``, releases it.  Returns the
    completion log ``[(tag, time)]``."""
    completed = []

    def job(tag, svc):
        def granted():
            if on_grant is not None:
                on_grant(tag)
            sim.schedule(svc, finished)

        def finished():
            srv.release()
            completed.append((tag, sim.now))
        return lambda: srv.acquire(granted)

    for i, svc in enumerate(service_times):
        sim.schedule(arrivals[i] if arrivals else 0.0, job(i, svc))
    return completed


@given(service_times=st.lists(st.floats(min_value=0.001, max_value=100.0,
                                        allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=50),
       capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=50)
def test_server_never_exceeds_capacity_and_serves_everyone(service_times, capacity):
    sim = Simulator()
    srv = Server(sim, capacity=capacity)
    max_seen = 0

    def on_grant(tag):
        nonlocal max_seen
        max_seen = max(max_seen, srv.in_service)

    completed = serve_all(sim, srv, service_times, on_grant=on_grant)
    sim.run()
    assert max_seen <= capacity
    assert sorted(tag for tag, _ in completed) == list(range(len(service_times)))
    assert srv.in_service == 0 and srv.queue_len == 0


@given(service_times=st.lists(st.floats(min_value=0.1, max_value=10.0,
                                        allow_nan=False),
                              min_size=2, max_size=30))
@settings(max_examples=50)
def test_single_server_is_work_conserving(service_times):
    """With capacity 1 and all arrivals at t=0, makespan == sum of services."""
    sim = Simulator()
    srv = Server(sim, capacity=1)
    serve_all(sim, srv, service_times)
    sim.run()
    assert abs(sim.now - sum(service_times)) < 1e-6 * len(service_times)


class EventFifoServer:
    """The Event-based FIFO the callback :class:`Server` replaced: a grant
    succeeds the waiter's acquire event, and the waiting process resumes
    one same-instant kernel hop later."""

    def __init__(self, sim, capacity):
        self.sim, self.capacity = sim, capacity
        self.in_service, self.waiting = 0, []

    def acquire(self):
        ev = self.sim.event()
        if self.in_service < self.capacity:
            self.in_service += 1
            ev.succeed()
        else:
            self.waiting.append(ev)
        return ev

    def release(self):
        if self.waiting:
            self.waiting.pop(0).succeed()
        else:
            self.in_service -= 1


def reference_grants(arrivals, service_times, capacity):
    sim = Simulator()
    srv = EventFifoServer(sim, capacity)
    grants, completed = [], []

    def job(tag, svc):
        yield srv.acquire()
        grants.append((tag, sim.now))
        try:
            yield svc
        finally:
            srv.release()
        completed.append((tag, sim.now))

    for i, (at, svc) in enumerate(zip(arrivals, service_times)):
        sim.schedule(at, lambda i=i, svc=svc: sim.process(job(i, svc)))
    sim.run()
    return grants, completed


_HALVES = st.integers(0, 12).map(lambda k: k / 2.0)  # dense same-instant ties


@given(jobs=st.lists(st.tuples(_HALVES, _HALVES), min_size=1, max_size=40),
       capacity=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_callback_server_grants_like_the_event_fifo(jobs, capacity):
    """Same order, same instants: granting by continuation instead of by
    an acquire event removes kernel hops, not grants or their timing."""
    arrivals = [at for at, _ in jobs]
    service_times = [svc for _, svc in jobs]
    sim = Simulator()
    srv = Server(sim, capacity=capacity)
    grants = []
    completed = serve_all(sim, srv, service_times, arrivals,
                          on_grant=lambda tag: grants.append((tag, sim.now)))
    sim.run()
    assert (grants, completed) == reference_grants(arrivals, service_times,
                                                   capacity)


class ReferenceLoop:
    """The ordering contract as executable spec: one heap of
    ``(time, seq, ident)`` popped one entry at a time, cancelled
    entries skipped, the clock parked on ``until``."""

    def __init__(self):
        self.heap, self.seq, self.now = [], 0, 0.0
        self.cancelled, self.events_executed = set(), 0

    def schedule(self, delay, ident):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, ident))
        return self.seq

    def cancel(self, handle):
        self.cancelled.add(handle)

    def run(self, fire, until=None):
        while self.heap and (until is None or self.heap[0][0] <= until):
            time, seq, ident = heapq.heappop(self.heap)
            if seq in self.cancelled:
                continue
            self.now = time
            self.events_executed += 1
            fire(ident)
        if until is not None:
            self.now = until


class KernelLoop:
    """The same three verbs on the real kernel."""

    def __init__(self, compact_min):
        self.sim = Simulator(compact_min=compact_min)
        self.fire = None

    def schedule(self, delay, ident):
        return self.sim.schedule(delay, lambda: self.fire(ident))

    def cancel(self, handle):
        handle.cancel()

    def run(self, fire, until=None):
        self.fire = fire
        self.sim.run(until=until)

    now = property(lambda self: self.sim.now)
    events_executed = property(lambda self: self.sim.events_executed)


class SteppedKernelLoop(KernelLoop):
    """One ``step()`` at a time to exhaustion (``step`` has no bound)."""

    def run(self, fire, until=None):
        assert until is None
        self.fire = fire
        while self.sim.step():
            pass


def _play(loop, initial, precancel, cuts):
    """Interpret one event program on ``loop``; observations per window.

    ``initial[i] = (time, actions)``; an action is ``("spawn", delay,
    depth)`` — schedule a child that re-schedules itself at its own
    instant ``depth`` more times — or ``("cancel", j)`` — cancel initial
    event ``j`` (a no-op once it has fired).
    """
    fired, handles = [], {}

    def fire(ident):
        fired.append((loop.now, ident))
        if isinstance(ident, int):
            for k, action in enumerate(initial[ident][1]):
                if action[0] == "spawn":
                    loop.schedule(action[1], (ident, k, action[2]))
                else:
                    loop.cancel(handles[action[1] % len(initial)])
        elif ident[2] > 0:  # same-instant reschedule chain
            loop.schedule(0.0, (ident[0], ident[1], ident[2] - 1))

    for i, (time, _) in enumerate(initial):
        handles[i] = loop.schedule(time, i)
    for j in precancel:
        loop.cancel(handles[j % len(initial)])
    seen = []
    for cut in sorted(cuts) + [None]:
        loop.run(fire, until=cut)
        seen.append((len(fired), loop.now, loop.events_executed))
    return fired, seen


_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0, 7.25])  # dense collisions
_ACTIONS = st.one_of(
    st.tuples(st.just("spawn"), _TIMES, st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 50)))


@given(initial=st.lists(st.tuples(_TIMES, st.lists(_ACTIONS, max_size=3)),
                        min_size=1, max_size=40),
       precancel=st.lists(st.integers(0, 50), max_size=10),
       cuts=st.lists(st.floats(min_value=0.0, max_value=12.0,
                               allow_nan=False), max_size=4),
       compact_min=st.sampled_from([1, 4, 64]))
def test_heap_determinism_reference_model(initial, precancel, cuts,
                                          compact_min):
    """``Simulator.run`` replays the reference loop event for event:
    ``(time, seq)`` order with cancellation, same-instant rescheduling
    and mid-instant compaction, split by ``run(until=)`` at arbitrary
    cut points, with the same clock and ``events_executed`` at every
    cut.  ``step()`` (what snapshot replay drives) fires the same log."""
    expected = _play(ReferenceLoop(), initial, precancel, cuts)
    assert _play(KernelLoop(compact_min), initial, precancel, cuts) == expected
    fired, seen = _play(SteppedKernelLoop(compact_min), initial, precancel, [])
    assert fired == expected[0]
    assert seen[-1][2] == expected[1][-1][2]


@given(n=st.integers(min_value=2, max_value=10),
       removals=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                         max_size=8))
def test_remove_callback_during_dispatch_matches_model(n, removals):
    """Arbitrary removal patterns during dispatch obey one contract:
    a callback removed before its turn never fires, everything else
    fires exactly once, in registration order."""
    removals = [(a % n, b % n) for a, b in removals]
    by_remover: dict[int, list[int]] = {}
    for a, b in removals:
        by_remover.setdefault(a, []).append(b)

    sim = Simulator()
    ev = sim.event("prop")
    fired = []
    cbs = []

    def make(i):
        def cb(e):
            fired.append(i)
            for target in by_remover.get(i, ()):
                e.remove_callback(cbs[target])
        return cb

    cbs = [make(i) for i in range(n)]
    for cb in cbs:
        ev.add_callback(cb)
    ev.succeed()
    sim.run()

    expected, removed = [], set()
    for i in range(n):
        if i in removed:
            continue
        expected.append(i)
        # Removing an already-fired (or the running) callback is a
        # no-op on the output; only not-yet-run siblings are affected.
        removed.update(by_remover.get(i, ()))
    assert fired == expected
