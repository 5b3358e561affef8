"""The kernel fast path: timer lane, wake lane, lazy cancellation.

These lock in the zero-allocation hot-path mechanics: ``call_later``
timers share the heap and sequence counter with the event lane (so
timestamp tie-breaks stay globally FIFO and ``events_scheduled`` stays
an honest odometer), a process's ``sleep()`` and recycled-store
``get()`` resume it from a bare heap wake with no Event at all, and
abandoned timeouts are discarded unprocessed instead of being
dispatched long after anyone cares.
"""

from unittest import mock

import pytest

from repro.dataplane.rings import RingBuffer
from repro.sim import Store
from repro.sim.events import WAIT, Event, Interrupt


class TestTimerLane:
    def test_call_later_fires_with_argument(self, sim):
        seen = []
        sim.call_later(25, seen.append, "tick")
        sim.run()
        assert sim.now == 25
        assert seen == ["tick"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_later(-1, lambda _: None)

    def test_timers_and_events_interleave_fifo(self, sim):
        """Same-timestamp entries fire in schedule order across lanes."""
        order = []
        sim.timeout(10).callbacks.append(lambda e: order.append("event-a"))
        sim.call_later(10, order.append, "timer-b")
        sim.timeout(10).callbacks.append(lambda e: order.append("event-c"))
        sim.call_later(10, order.append, "timer-d")
        sim.run()
        assert order == ["event-a", "timer-b", "event-c", "timer-d"]

    def test_timers_counted_in_events_scheduled(self, sim):
        """Satellite check: the odometer counts both lanes."""
        before = sim.events_scheduled
        sim.call_later(5, lambda _: None)
        sim.call_later(7, lambda _: None)
        sim.timeout(9)
        assert sim.events_scheduled == before + 3
        assert sim.timers_scheduled == 2

    def test_schedule_convenience_wrapper(self, sim):
        seen = []
        sim.schedule(30, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [30]

    def test_timer_lane_rearms_itself(self, sim):
        """A self-rearming timer (the pktgen/NIC-drain shape)."""
        ticks = []

        def tick(count):
            ticks.append(sim.now)
            if count > 1:
                sim.call_later(10, tick, count - 1)

        sim.call_later(10, tick, 3)
        sim.run()
        assert ticks == [10, 20, 30]


class TestWakeLane:
    def test_sleep_and_ring_get_build_no_event(self, sim):
        """Steady-state sleeps, recycled-store gets and ring gets —
        parked or immediate — construct no Event."""
        store = Store(sim, recycle=True)
        ring = RingBuffer(sim, "ring", slots=4)
        received = []

        def producer():
            for i in range(6):
                store.try_put(i)
                ring.try_enqueue(-i)
                yield sim.sleep(3 if i % 2 else 0)

        def consumer():
            for _ in range(6):
                received.append((yield store.get()))
                received.append((yield ring.get()))
                yield sim.sleep(1)

        sim.process(producer())
        sim.process(consumer())
        original = Event.__init__
        built = []

        def counting_init(event, *args, **kwargs):
            built.append(type(event).__name__)
            original(event, *args, **kwargs)

        with mock.patch.object(Event, "__init__", counting_init):
            sim.run()
        assert built == []
        assert received == [0, 0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]

    def test_process_waits_yield_the_wait_sentinel(self, sim):
        seen = []

        def waiter():
            seen.append(sim.sleep(5))
            yield seen[-1]
            seen.append(Store(sim, recycle=True).get())
            yield seen[-1]

        sim.process(waiter())
        sim.run()
        assert seen == [WAIT, WAIT]

    def test_stale_wake_after_interrupt_is_ignored(self, sim):
        """The sleep an interrupt abandoned pops later and changes
        nothing: the process resumes once, from its next wait."""
        resumptions = []

        def sleeper():
            try:
                yield sim.sleep(100)
            except Interrupt:
                resumptions.append(("interrupted", sim.now))
            yield sim.sleep(500)
            resumptions.append(("woke", sim.now))

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt())
        sim.run()
        assert resumptions == [("interrupted", 10), ("woke", 510)]
        # The stale wake still popped at t=100 (same heap as an Event
        # wait), but an abandoned wake is no cancelled event.
        assert sim.events_cancelled == 0
        assert process.ok

    def test_interrupted_parked_getter_is_skipped(self, sim):
        """An item put after a parked recycled getter was interrupted
        goes to the next live getter — including the interrupted
        process itself once it parks again."""
        store = Store(sim, recycle=True)
        received = []

        def doomed():
            try:
                yield store.get()
            except Interrupt:
                received.append("doomed-interrupted")
            yield sim.sleep(20)
            received.append(("doomed", (yield store.get())))

        def patient():
            received.append(("patient", (yield store.get())))

        doomed_process = sim.process(doomed())
        sim.process(patient())
        sim.schedule(10, lambda: doomed_process.interrupt())
        sim.schedule(15, lambda: store.try_put("first"))
        sim.schedule(40, lambda: store.try_put("second"))
        sim.run()
        assert received == ["doomed-interrupted", ("patient", "first"),
                            ("doomed", "second")]
        assert not store.items

    def test_sleep_outside_a_process_returns_an_event(self, sim):
        event = sim.sleep(25)
        assert isinstance(event, Event)
        fired = []
        event.callbacks.append(lambda e: fired.append(sim.now))

        def waiter():
            value = yield event
            fired.append(("waiter", sim.now, value))

        sim.process(waiter())
        sim.run()
        assert fired == [25, ("waiter", 25, None)]

    def test_recycled_get_outside_a_process_returns_an_event(self, sim):
        store = Store(sim, recycle=True)
        event = store.get()
        assert isinstance(event, Event)
        got = []
        event.callbacks.append(lambda e: got.append((sim.now, e.value)))
        sim.call_later(7, store.try_put, "item")
        sim.run()
        assert got == [(7, "item")]

    def test_sleep_resumes_with_none(self, sim):
        values = []

        def sleeper():
            values.append((yield sim.sleep(5)))
            values.append((yield sim.sleep(5)))

        sim.process(sleeper())
        sim.run()
        assert values == [None, None]

    def test_negative_sleep_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.sleep(-3)


class TestLazyCancellation:
    def test_cancelled_event_discarded_unprocessed(self, sim):
        fired = []
        timeout = sim.timeout(10)
        timeout.callbacks.append(lambda e: fired.append("fired"))
        timeout.callbacks.clear()
        timeout.cancel()
        sim.run()
        assert fired == []
        assert sim.events_cancelled == 1

    def test_resubscribe_uncancels(self, sim):
        fired = []
        timeout = sim.timeout(10)
        timeout.cancel()
        timeout.callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [10]
        assert sim.events_cancelled == 0

    def test_interrupted_waits_do_not_bloat_the_heap(self, sim):
        """Satellite regression: many interrupted long waits (the ring
        poll / deadline shape) are discarded, not dispatched."""
        waiters = []

        def wait_forever():
            try:
                yield sim.timeout(10_000_000)
            except Interrupt:
                pass

        for _ in range(200):
            waiters.append(sim.process(wait_forever()))

        def interrupter():
            yield sim.timeout(5)
            for process in waiters:
                process.interrupt()

        sim.process(interrupter())
        sim.run()
        # Every abandoned timeout was discarded unprocessed (the heap
        # entry is popped to advance the clock, but never dispatched).
        assert sim.events_cancelled == 200
        assert not sim._queue

    def test_anyof_deadline_pruned_after_reply_wins(self, sim):
        reply = Event(sim)
        deadline = sim.timeout(1_000_000)
        race = sim.any_of([reply, deadline])
        sim.call_later(10, lambda _: reply.succeed("ok"), None)
        assert sim.run(until=race) == {reply: "ok"}
        sim.run()
        # The losing deadline was detached and lazily cancelled.
        assert sim.events_cancelled == 1
