"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator
from repro.sim.kernel import ScheduledCall


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_at_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_order_by_time(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, sim):
        seen = []
        for tag in range(10):
            sim.schedule(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_cancel_prevents_execution(self, sim):
        seen = []
        call = sim.schedule(1.0, lambda: seen.append(1))
        call.cancel()
        sim.run()
        assert seen == []

    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.5)
        assert sim.now == 4.5
        assert sim.pending == 1

    def test_run_until_executes_boundary_events(self, sim):
        seen = []
        sim.schedule(4.5, lambda: seen.append(1))
        sim.run(until=4.5)
        assert seen == [1]

    def test_run_until_past_raises(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_nan_delay_refused_by_name(self, sim, bad):
        # NaN passed ``delay < 0`` and then sat at the heap head:
        # ``run(until=10)`` spun forever and ``step()`` set the clock
        # to NaN.  Refused at the door, heap untouched.
        with pytest.raises(ValueError, match=f"delay={bad}"):
            sim.schedule(bad, lambda: None)
        with pytest.raises(ValueError, match=f"t={bad}"):
            sim.schedule_at(bad, lambda: None)
        assert sim._heap == [] and sim._seq == 0
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_nan_until_refused(self, sim):
        with pytest.raises(ValueError, match="until=nan"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0

    def test_schedule_handle_matches_the_constructor(self, sim):
        call = sim.schedule(2.0, print)
        ref = ScheduledCall(2.0, print, sim)
        assert [getattr(call, a) for a in ScheduledCall.__slots__] == \
            [getattr(ref, a) for a in ScheduledCall.__slots__]
        assert sim._heap == [(2.0, 1, call)] and sim.heap_peak == 1

    def test_nested_scheduling(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_events_executed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 7


class TestEvents:
    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append((e.ok, type(e.value))))
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert got == [(False, RuntimeError)]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        with pytest.raises(RuntimeError):
            ev.fail(ValueError())

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_callback_after_dispatch_still_runs(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        late = []
        ev.add_callback(lambda e: late.append(e.value))
        sim.run()
        assert late == ["x"]

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_timeout_fires_at_delay(self, sim):
        ev = sim.timeout(3.0, value="done")
        got = []
        ev.add_callback(lambda e: got.append((sim.now, e.value)))
        sim.run()
        assert got == [(3.0, "done")]

    def test_timeout_negative_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)


class TestConditions:
    def test_any_of_first_wins(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = sim.any_of([a, b])
        sim.run()
        assert cond.ok and a in cond.value and b not in cond.value

    def test_any_of_empty_succeeds_immediately(self, sim):
        cond = sim.any_of([])
        assert cond.triggered and cond.value == {}

    def test_any_of_failure_propagates(self, sim):
        a = sim.event()
        cond = sim.any_of([a, sim.timeout(10.0)])
        a.fail(ValueError("x"))
        sim.run()
        assert cond.ok is False and isinstance(cond.value, ValueError)


class TestProcesses:
    def test_process_sleeps(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield 5.0
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 5.0]

    def test_process_return_value(self, sim):
        def proc():
            yield 1.0
            return "result"

        p = sim.process(proc())
        sim.run()
        assert p.ok and p.value == "result"

    def test_process_waits_on_event(self, sim):
        ev = sim.event()
        got = []

        def proc():
            val = yield ev
            got.append((sim.now, val))

        sim.process(proc())
        sim.schedule(7.0, lambda: ev.succeed("payload"))
        sim.run()
        assert got == [(7.0, "payload")]

    def test_failed_event_raises_in_process(self, sim):
        ev = sim.event()
        got = []

        def proc():
            try:
                yield ev
            except ValueError as e:
                got.append(str(e))

        sim.process(proc())
        sim.schedule(1.0, lambda: ev.fail(ValueError("rpc failed")))
        sim.run()
        assert got == ["rpc failed"]

    def test_process_exception_fails_termination_event(self, sim):
        def proc():
            yield 1.0
            raise RuntimeError("inner")

        p = sim.process(proc())
        sim.run()
        assert p.ok is False and isinstance(p.value, RuntimeError)

    def test_process_waits_on_subprocess(self, sim):
        def child():
            yield 3.0
            return 99

        def parent():
            val = yield sim.process(child())
            return val + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100 and sim.now == 3.0

    def test_bad_yield_type_fails_process(self, sim):
        def proc():
            yield "not an event"

        p = sim.process(proc())
        sim.run()
        assert p.ok is False and isinstance(p.value, TypeError)

    def test_abandoned_process_survives_gc(self, sim):
        """A process stuck on an event that can never fire must stay
        suspended — not be closed by the cyclic garbage collector.

        Holding no external reference to the process or its wake-up
        event makes the whole cluster cyclic garbage; if the kernel did
        not pin live processes, ``gc.collect()`` would ``close()`` the
        generator and run its ``finally`` at an arbitrary instant
        (observed as run-to-run nondeterminism under fault injection).
        """
        import gc

        closed = []

        def wedged():
            try:
                yield sim.event()  # nobody will ever succeed this
            finally:
                closed.append(sim.now)

        sim.process(wedged())
        sim.schedule(5.0, lambda: None)
        sim.run()
        gc.collect()
        assert closed == []

    def test_terminated_processes_are_unpinned(self, sim):
        """The live-process registry must not accumulate finished ones."""
        def proc():
            yield 1.0

        def failing():
            yield 1.0
            raise RuntimeError("boom")

        p = sim.process(proc())
        q = sim.process(failing())
        q.add_callback(lambda ev: None)  # watched: not an unhandled failure
        sim.run()
        assert p not in sim._processes
        assert q not in sim._processes


class TestPeriodic:
    def test_every_fires_on_interval(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_start_offset(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), start=1.0)
        sim.run(until=25.0)
        assert ticks == [1.0, 11.0, 21.0]

    def test_every_cancel_stops_chain(self, sim):
        ticks = []
        handle = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(3.5, handle.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_every_rejects_nonpositive_interval(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestCancelAccounting:
    """The ``_dead`` counter is a subset-of-heap invariant: a cancel is
    noted iff its entry is still in the heap (``_sim`` cleared on every
    exit path — pop or compaction), so late cancels can never skew the
    compaction trigger."""

    def test_cancel_from_inside_own_callback(self, sim):
        """A callback cancelling its own (already-popped) handle must
        not count as a dead heap entry."""
        fired = []
        holder = {}

        def fn():
            fired.append(sim.now)
            holder["call"].cancel()

        holder["call"] = sim.schedule(5.0, fn)
        sim.run()
        assert fired == [5.0]
        assert sim._dead == 0

    def test_late_cancel_after_run_not_counted(self, sim):
        call = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)  # keep the heap non-trivial
        sim.run(until=1.5)
        call.cancel()  # entry already left the heap
        assert sim._dead == 0
        sim.run()

    def test_periodic_self_cancel_from_tick(self, sim):
        """A periodic timer cancelling itself from inside its own tick:
        the chain stops, and the cancel of the just-popped entry leaves
        the accounting untouched."""
        ticks = []
        handles = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                handles["h"].cancel()

        handles["h"] = sim.every(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim._dead == 0

    def test_compact_clears_backrefs_on_dropped_entries(self):
        """Entries removed by compaction uphold the popped-entry
        contract (``_sim`` cleared), so a double ``cancel()`` on a
        handle the compactor already dropped cannot re-note."""
        sim = Simulator(compact_min=4)
        calls = [sim.schedule(100.0 + i, lambda: None) for i in range(8)]
        for call in calls:
            call.cancel()
        assert sim.compactions >= 1
        assert sim._dead == 0
        assert all(call._sim is None for call in calls)
        # Forcing a second cancel must be a no-op (idempotent flag),
        # and even a fresh cancel-note on an out-of-heap entry is
        # unreachable because the back-reference is gone.
        for call in calls:
            call.cancel()
        assert sim._dead == 0

    def test_double_note_trips_the_guard(self, sim):
        """Any future path that notes a cancel for an entry outside the
        heap must fail loudly, not silently skew compaction."""
        from repro.sim.kernel import ScheduledCall

        stray = ScheduledCall(0.0, lambda: None, sim)  # never heap-pushed
        with pytest.raises(AssertionError, match="cancel accounting"):
            stray.cancel()

    def test_cancelled_pops_drain_the_counter(self, sim):
        """Both pop paths (step and bounded run) decrement ``_dead``
        for each cancelled entry they skip."""
        calls = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        calls[0].cancel()
        calls[2].cancel()
        assert sim._dead == 2
        sim.run(until=2.5)   # pops entries at t=1 (dead) and t=2 (live)
        assert sim._dead == 1
        sim.run()            # drains t=3 (dead) and t=4 (live)
        assert sim._dead == 0


class TestDispatchRemoval:
    def test_sibling_removed_during_dispatch_does_not_fire(self, sim):
        # Regression: remove_callback was a no-op once dispatch began
        # (the list was detached), so a callback removing a later
        # sibling silently let that sibling fire anyway.
        ev = sim.event()
        fired = []
        third = lambda e: fired.append("third")
        def first(e):
            fired.append("first")
            e.remove_callback(third)
        second = lambda e: fired.append("second")
        for cb in (first, second, third):
            ev.add_callback(cb)
        ev.succeed()
        sim.run()
        assert fired == ["first", "second"]

    def test_removal_never_skips_a_neighbour(self, sim):
        # Sentinel replacement (not list.remove) keeps dispatch indices
        # stable: removing an adjacent sibling must not skip the one
        # after it.
        ev = sim.event()
        fired = []
        second = lambda e: fired.append("second")
        def first(e):
            fired.append("first")
            e.remove_callback(second)
        for i, cb in enumerate([first, second]):
            ev.add_callback(cb)
        ev.add_callback(lambda e: fired.append("third"))
        ev.add_callback(lambda e: fired.append("fourth"))
        ev.succeed()
        sim.run()
        assert fired == ["first", "third", "fourth"]

    def test_removing_self_or_done_callback_is_noop(self, sim):
        ev = sim.event()
        fired = []
        def first(e):
            fired.append("first")
        def second(e):
            fired.append("second")
            e.remove_callback(first)   # already ran: no-op
            e.remove_callback(second)  # currently running: no-op
        ev.add_callback(first)
        ev.add_callback(second)
        ev.succeed()
        sim.run()
        assert fired == ["first", "second"]
        ev.remove_callback(first)  # after dispatch: still a no-op


class TestBatchDispatch:
    def test_same_instant_reschedule_joins_the_batch(self, sim):
        fired = []
        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(0.0, lambda: chain(n + 1))
        sim.schedule(1.0, lambda: chain(0))
        sim.schedule(1.0, lambda: fired.append("peer"))
        sim.run(until=1.0)
        # The re-scheduled same-instant calls carry higher seqs, so the
        # already-queued peer fires between chain(0) and chain(1).
        assert fired == [0, "peer", 1, 2, 3]
        assert sim.now == 1.0

    def test_cancel_inside_batch_skips_the_sibling(self, sim):
        fired = []
        handles = {}
        def first():
            fired.append("first")
            handles["late"].cancel()
        handles["late"] = None
        sim.schedule(2.0, first)
        handles["late"] = sim.schedule(2.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["first"]
        assert sim.events_executed == 1

    def test_compaction_during_batch_keeps_future_events(self):
        # _compact must rebuild the heap *in place*: the run loop
        # holds a local alias across callbacks, and a mid-batch
        # compaction that rebound the list would silently strand every
        # remaining event.
        sim = Simulator(compact_min=8)
        cancelled = [sim.schedule(5.0, lambda: None) for _ in range(64)]
        fired = []
        def cancel_storm():
            fired.append("storm")
            for h in cancelled:
                h.cancel()  # trips the compaction threshold mid-batch
        sim.schedule(1.0, cancel_storm)
        sim.schedule(1.0, lambda: fired.append("same-instant"))
        sim.schedule(3.0, lambda: fired.append("future"))
        sim.run()
        assert fired == ["storm", "same-instant", "future"]
        assert sim.compactions >= 1
