"""Interrupt-semantics hardening: stale events must never mis-resume a
process, and stores must not lose items to abandoned getters."""


from repro.sim import Interrupt, Store


class TestTargetDetachment:
    def test_old_target_firing_does_not_resume(self, sim):
        """A process interrupted out of a timeout must not be resumed a
        second time when that timeout eventually fires."""
        resumptions = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            # Now wait on something else past t=100.
            yield sim.timeout(500)
            resumptions.append(sim.now)

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt())
        sim.run()
        # Exactly one resumption, at 10 + 500 — the stale t=100 timeout
        # changed nothing.
        assert resumptions == [510]

    def test_interrupt_then_value_flow_correct(self, sim):
        """After an interrupt, the next awaited event's value arrives
        intact (no leakage from the abandoned event)."""
        values = []

        def worker():
            try:
                yield sim.timeout(100, value="stale-value")
            except Interrupt as interrupt:
                values.append(("interrupt", interrupt.cause))
            fresh = yield sim.timeout(50, value="fresh-value")
            values.append(("value", fresh))

        process = sim.process(worker())
        sim.schedule(10, lambda: process.interrupt("why"))
        sim.run()
        assert values == [("interrupt", "why"), ("value", "fresh-value")]


    def test_processed_target_wake_goes_stale_on_interrupt(self, sim):
        """Yielding an already-processed event queues a wake at the
        current time; an interrupt delivered before it pops must leave
        that wake stale, not let it resume the process's next wait."""
        done = sim.event()
        done.succeed("old")
        sim.run()
        log = []

        def worker():
            yield sim.sleep(5)
            try:
                log.append(("value", (yield done)))
            except Interrupt:
                log.append(("interrupted", sim.now))
                log.append(("slept", (yield sim.sleep(10)), sim.now))

        process = sim.process(worker())
        # Pushed before the worker's sleep: the interrupt is issued at
        # t=5 just before the sleep wakes, and delivered right after the
        # worker yields ``done``.
        sim.call_later(5, lambda _: process.interrupt())
        sim.run()
        assert log == [("interrupted", 5), ("slept", None, 15)]

    def test_failed_processed_target_throws_into_process(self, sim):
        failed = sim.event()
        failed.fail(ValueError("boom"))
        failed.defuse()
        sim.run()
        caught = []

        def worker():
            try:
                yield failed
            except ValueError as exc:
                caught.append((str(exc), sim.now))

        sim.process(worker())
        sim.run()
        assert caught == [("boom", 0)]


class TestStoreAbandonedGetters:
    def test_item_not_lost_to_interrupted_getter(self, sim):
        """An item put after a waiting consumer was interrupted must go
        to the next live consumer, not vanish."""
        store = Store(sim)
        received = []

        def doomed():
            try:
                yield store.get()
                received.append("doomed-got-item")
            except Interrupt:
                pass  # walks away without consuming

        def patient():
            item = yield store.get()
            received.append(("patient", item))

        doomed_process = sim.process(doomed())
        sim.process(patient())
        sim.schedule(10, lambda: doomed_process.interrupt())
        sim.schedule(20, lambda: store.try_put("the-item"))
        sim.run()
        assert received == [("patient", "the-item")]

    def test_all_getters_abandoned_item_queues(self, sim):
        store = Store(sim)

        def doomed():
            try:
                yield store.get()
            except Interrupt:
                pass

        process = sim.process(doomed())
        sim.schedule(10, lambda: process.interrupt())
        sim.schedule(20, lambda: store.try_put("kept"))
        sim.run()
        # Nobody was waiting: the item stays in the store.
        assert list(store.items) == ["kept"]

    def test_fifo_preserved_among_live_getters(self, sim):
        store = Store(sim)
        received = []

        def consumer(tag, give_up):
            try:
                item = yield store.get()
                received.append((tag, item))
            except Interrupt:
                pass

        first = sim.process(consumer("first", True))
        sim.process(consumer("second", False))
        sim.process(consumer("third", False))
        sim.schedule(10, lambda: first.interrupt())
        sim.schedule(20, lambda: (store.try_put("a"),
                                  store.try_put("b")))
        sim.run()
        assert received == [("second", "a"), ("third", "b")]


class TestSelfInterrupt:
    def test_self_interrupt_on_first_step_raises(self, sim):
        """A process has no target during its first step; interrupting
        itself there must still be refused, not scheduled."""
        outcome = []

        def selfish():
            try:
                process.interrupt("me")
            except RuntimeError as exc:
                outcome.append(str(exc))
            yield sim.sleep(5)
            outcome.append(("still running", sim.now))

        process = sim.process(selfish())
        sim.run()
        assert outcome == ["a process cannot interrupt itself",
                           ("still running", 5)]

    def test_self_interrupt_after_a_wake_raises(self, sim):
        outcome = []

        def selfish():
            yield sim.sleep(3)
            try:
                process.interrupt()
            except RuntimeError as exc:
                outcome.append(str(exc))

        process = sim.process(selfish())
        sim.run()
        assert outcome == ["a process cannot interrupt itself"]

    def test_interrupting_an_unstarted_process_from_a_timer(self, sim):
        """Outside any process, interrupting one that has not taken its
        first step is allowed: the interrupt lands at that step."""
        seen = []

        def worker():
            try:
                yield sim.sleep(10)
            except Interrupt as interrupt:
                seen.append((interrupt.cause, sim.now))

        sim.call_later(0, lambda _: process.interrupt("early"))
        process = sim.process(worker())
        sim.run()
        assert seen == [("early", 0)]
