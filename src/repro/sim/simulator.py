"""The event loop: an integer-nanosecond discrete-event scheduler.

Three scheduling lanes share one heap and one sequence counter:

- the **event lane** pushes ``(when, seq, Event)`` and runs the event's
  callbacks;
- the **timer lane** (:meth:`Simulator.call_later`, the ``rte_timer``
  analogue) pushes a bare ``(when, seq, fn, arg)`` with no Event object
  at all — the fast path for poll wakeups, heartbeats, and deferred
  callbacks that nobody ever waits on;
- the **wake lane** pushes ``(when, seq, process, token, value)`` for a
  process's own waits — its start, ``sleep()``, a recycled store's
  ``get()``, an interrupt — and resumes the generator straight from the
  entry (see :mod:`repro.sim.events`).

Entries never compare past the sequence number (it is unique), so the
mixed tuple arities are safe to co-exist in one heap.  Because every
lane consumes the same sequence counter, ``events_scheduled`` remains an
honest odometer of kernel work and timestamp tie-breaks stay globally
FIFO.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import (_THROW, WAIT, AllOf, AnyOf, Event, Process,
                              Timeout)

# A deadline past every timestamp: ``run()`` without ``until``.
_FOREVER = 1 << 62


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator._step` when the event queue is dry."""


def _invoke(callback: typing.Callable[[], None]) -> None:
    callback()


class Simulator:
    """Deterministic discrete-event scheduler.

    Events scheduled for the same timestamp fire in the order they were
    scheduled (FIFO tie-break via a monotonically increasing sequence
    number), which keeps runs reproducible.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # Mixed arity: (when, seq, Event) | (when, seq, fn, arg)
        # | (when, seq, process, token, value).
        self._queue: list[tuple] = []
        self._sequence = 0
        self._active_process: Process | None = None
        #: Bare timers pushed through :meth:`call_later` (subset of
        #: :attr:`events_scheduled`).
        self.timers_scheduled = 0
        #: Lazily-cancelled events discarded unprocessed by :meth:`run`.
        self.events_cancelled = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: typing.Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: int) -> typing.Any:
        """Wait ``delay`` ns: ``yield sim.sleep(delay)``.

        Called by a running process, it queues the process's wake and
        returns :data:`~repro.sim.events.WAIT`, which the process must
        yield at once (lint rule SIM007); no Event is built.  Called
        anywhere else it returns an :class:`Event` firing ``delay`` ns
        from now.  Use :meth:`timeout` when the event object itself
        matters, e.g. to read a value or race it in a condition.
        """
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        process = self._active_process
        if process is None:
            event = Event(self)
            event._value = None
            self._enqueue(event, delay)
            return event
        heapq.heappush(self._queue, (self.now + int(delay), self._sequence,
                                     process, process._token, None))
        self._sequence += 1
        return WAIT

    def process(self, generator: typing.Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        return AllOf(self, events)

    @property
    def active_process(self) -> Process | None:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total heap entries ever enqueued — the kernel-work odometer.

        Counts every lane (Event objects, process wakes *and* bare
        ``call_later`` timers; the latter are also broken out in
        :attr:`timers_scheduled`).  Batching ablations divide this by
        packets moved to get "kernel events per packet", the
        simulator-side analogue of per-packet event-dispatch overhead in
        the real NF Manager.
        """
        return self._sequence

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self.now + int(delay), self._sequence, event))
        self._sequence += 1

    def call_later(self, delay: int, fn: typing.Callable[[typing.Any], None],
                   arg: typing.Any = None) -> None:
        """Run ``fn(arg)`` after ``delay`` ns — the bare timer lane.

        The ``rte_timer`` analogue: no Event object, no callback list,
        just a ``(when, seq, fn, arg)`` heap entry.  Use it for wakeups
        nobody waits on (poll loops, heartbeats, deferred hand-offs); use
        :meth:`timeout` when the result must be awaitable.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self.now + int(delay), self._sequence, fn, arg))
        self._sequence += 1
        self.timers_scheduled += 1

    def schedule(self, delay: int,
                 callback: typing.Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` ns (timer-lane convenience)."""
        self.call_later(delay, _invoke, callback)

    def peek(self) -> int | None:
        """Timestamp of the next event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: int | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until no events remain,
        - an ``int``: run until the clock reaches that timestamp (events at
          exactly ``until`` do not fire; ``now`` is left at ``until``),
        - an :class:`Event`: run until that event has been processed and
          return its value.
        """
        if isinstance(until, Event):
            if not until.processed:
                self._dispatch(_FOREVER, until)
                if not until.processed:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        "event triggered")
            return until.value
        if until is None:
            self._dispatch(_FOREVER, None)
            return None
        deadline = int(until)
        if deadline < self.now:
            raise ValueError(f"until={deadline} is in the past "
                             f"(now={self.now})")
        self._dispatch(deadline, None)
        self.now = deadline
        return None

    def _step(self) -> None:
        """Dispatch the next heap entry alone."""
        if not self._queue:
            raise EmptySchedule()
        self._dispatch(_FOREVER, None, [heapq.heappop(self._queue)])

    def _dispatch(self, deadline: int, stop: Event | None,
                  queue: list[tuple] | None = None) -> None:
        """Pop and dispatch heap entries due before ``deadline``; return
        early once ``stop`` has been processed.  ``queue`` replaces the
        heap as the source of entries (entries still schedule onto the
        heap)."""
        if queue is None:
            queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] < deadline:
            entry = pop(queue)
            self.now = entry[0]
            arity = len(entry)
            if arity == 5:
                # Wake lane: resume the generator straight from the entry.
                process = entry[2]
                token = entry[3]
                if token == process._token:
                    self._active_process = process
                    try:
                        target = process._generator.send(entry[4])
                    except BaseException as exc:
                        self._active_process = None
                        process._finish(exc)
                        continue
                    self._active_process = None
                    if target is not WAIT:
                        process._wait(target)
                elif token is _THROW or token == ~process._token:
                    process._throw(entry[4])
                # Any other token: a wake the process abandoned when it
                # was interrupted.
            elif arity == 4:
                entry[2](entry[3])
            else:
                event = entry[2]
                callbacks = event.callbacks
                if event._cancelled and not callbacks:
                    # Lazily-cancelled and nobody re-subscribed: discard.
                    self.events_cancelled += 1
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._exception is not None and not event._defused:
                    raise event._exception
                if event is stop:
                    return
