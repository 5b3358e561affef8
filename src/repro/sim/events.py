"""Event primitives for the simulation kernel.

The kernel is callback-based at the bottom (:class:`Event`) with a
generator-based process layer on top (:class:`Process`).  A process is a
generator that yields events; when a yielded event fires, the process is
resumed with the event's value (or the event's exception is thrown into it).

Hot-path notes: every event class carries ``__slots__`` (millions of
timeouts are created on the Fig. 7 workloads), and events abandoned by
an interrupt are lazily cancelled so the scheduler can discard them
unprocessed.  The waits a process makes most — ``sim.sleep()`` and a
recycled store's ``get()`` — build no Event at all: they queue a bare
*wake* ``(when, seq, process, token, value)`` on the simulator heap and
return :data:`WAIT`, which the process yields.  The scheduler resumes
the generator straight from the wake.  A process's ``_token`` moves on
whenever it abandons a wait (an interrupt is delivered, or it finishes),
so a wake queued before that is stale and dropped.
"""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class _Wait:
    __slots__ = ()

    def __repr__(self) -> str:
        return "WAIT"


#: What ``sim.sleep()`` and a recycled store's ``get()`` return to a
#: running process once its wake is queued: the process yields it.
WAIT = _Wait()

# Token of a wake that throws its value into the process whatever wait
# the process is in by then (an interrupt, delivered when it pops).
_THROW = object()


class Event:
    """A one-shot occurrence with a value and subscriber callbacks.

    Lifecycle: *pending* → *triggered* (scheduled into the event queue) →
    *processed* (callbacks ran).  An event may succeed with a value or fail
    with an exception; failing events propagate their exception into any
    process that waits on them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_defused",
                 "_cancelled")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        self._value: typing.Any = _PENDING
        self._exception: BaseException | None = None
        # Failures must either be waited on or explicitly defused, mirroring
        # "errors should never pass silently".
        self._defused = False
        # Lazy cancellation: a triggered event nobody listens to anymore
        # (e.g. a deadline abandoned by an interrupt) is skipped, not run.
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a result and is scheduled (or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The event's value (or raises its failure exception)."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: typing.Any = None) -> Event:
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        # Inlined Simulator._enqueue(self): succeed() fires once per
        # store hand-off, per packet, per stage — the hottest call in
        # the kernel.
        sim = self.sim
        _heappush(sim._queue, (sim.now, sim._sequence, self))
        sim._sequence += 1
        return self

    def fail(self, exception: BaseException) -> Event:
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = None
        self._exception = exception
        self.sim._enqueue(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    def cancel(self) -> None:
        """Lazily cancel a triggered event.

        The heap entry stays put; when popped, the scheduler discards it
        *if no callbacks are subscribed at that point* (subscribing again
        effectively un-cancels).  This is how abandoned deadlines avoid
        being dispatched long after anyone cares.
        """
        self._cancelled = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: int,
                 value: typing.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = int(delay)
        self._value = value
        sim._enqueue(self, delay=self.delay)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> typing.Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and drives it by subscribing to yielded events.

    The process *is* an event: it triggers when the generator returns
    (succeeding with the return value) or raises (failing with the
    exception).  Besides events, the generator may yield :data:`WAIT`
    right after ``sim.sleep()`` or a recycled store's ``get()`` queued
    its wake.
    """

    __slots__ = ("_generator", "_target", "_token")

    def __init__(self, sim: Simulator,
                 generator: typing.Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        # The event this process is subscribed to, if it waits on one.
        self._target: Event | None = None
        # Bumped whenever the process abandons a wait: a wake carrying
        # an older token is stale.
        self._token = 0
        # The first step is a wake at the current time.
        _heappush(sim._queue, (sim.now, sim._sequence, self, 0, None))
        sim._sequence += 1

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        sim = self.sim
        if sim._active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        _heappush(sim._queue,
                  (sim.now, sim._sequence, self, _THROW, Interrupt(cause)))
        sim._sequence += 1

    def _throw(self, exception: BaseException) -> None:
        """Deliver a thrown wake: abandon the current wait (its wake goes
        stale, its event loses this subscriber), then throw."""
        if self._value is not _PENDING:
            return
        self._token += 1
        target = self._target
        if target is not None:
            self._target = None
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not callbacks and isinstance(target, Timeout):
                    # Nobody is left waiting: let the scheduler discard
                    # the entry instead of dispatching a dead timeout.
                    target._cancelled = True
        self._advance(None, exception)

    def _resume(self, event: Event) -> None:
        """Callback of the event this process waits on."""
        # A stale wakeup: the process finished.
        if self._value is not _PENDING:
            return
        self._target = None
        if event._exception is None:
            self._advance(event._value, None)
        else:
            # The waited-on event failed; the failure is now the
            # process's problem.
            event._defused = True
            self._advance(None, event._exception)

    def _advance(self, value: typing.Any,
                 exception: BaseException | None) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if exception is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exception)
        except BaseException as exc:
            sim._active_process = None
            self._finish(exc)
            return
        sim._active_process = None
        if target is not WAIT:
            self._wait(target)

    def _finish(self, exc: BaseException) -> None:
        """The generator returned or raised: trigger the process event."""
        self._token += 1
        self._target = None
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        else:
            self.fail(exc)

    def _wait(self, target: typing.Any) -> None:
        """Subscribe to the event the generator yielded."""
        sim = self.sim
        if isinstance(target, Event):
            if target.sim is not sim:
                raise RuntimeError("process yielded an event from another "
                                   "simulator")
            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: resume through a wake at the current
                # time (a failure rides on the complemented token).
                if target._exception is None:
                    wake = (sim.now, sim._sequence, self, self._token,
                            target._value)
                else:
                    wake = (sim.now, sim._sequence, self, ~self._token,
                            target._exception)
                _heappush(sim._queue, wake)
                sim._sequence += 1
            else:
                self._target = target
                callbacks.append(self._resume)
            return
        kind = type(target).__name__
        error = RuntimeError(
            f"process yielded a non-event ({kind}); yield sim.timeout() "
            "or another Event")
        try:
            self._generator.throw(error)
        except BaseException as exc:
            self.fail(exc)
            return
        # The generator swallowed the error and kept yielding; that is
        # a programming error we refuse to paper over.
        self.fail(error)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events.

    A constituent counts as complete once it is *processed* (callbacks
    ran) — being merely scheduled (e.g. a fresh Timeout, which is
    triggered at creation) does not count.
    """

    __slots__ = ("events", "_completed")

    def __init__(self, sim: Simulator,
                 events: typing.Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise RuntimeError("condition mixes events from different "
                                   "simulators")
        self._completed = 0
        for event in self.events:
            if event.callbacks is None:
                if event._exception is not None:
                    if not self.triggered:
                        self.fail(event._exception)
                else:
                    self._completed += 1
            else:
                event.callbacks.append(self._observe)
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())
        if self.triggered:
            self._detach_pending_timeouts()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
            self._detach_pending_timeouts()
            return
        self._completed += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._detach_pending_timeouts()

    def _detach_pending_timeouts(self) -> None:
        """Stop watching timeouts that can no longer matter.

        Deadline timeouts raced against an RPC reply (the control-plane
        ``any_of([reply, deadline])`` pattern) would otherwise sit in the
        heap and be dispatched long after the condition fired.  Only
        :class:`Timeout` constituents are pruned: they can never fail, so
        dropping our subscription cannot silence an un-defused failure.
        """
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None and isinstance(event, Timeout):
                try:
                    callbacks.remove(self._observe)
                except ValueError:
                    continue
                if not callbacks:
                    event._cancelled = True

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, typing.Any]:
        """Values of constituents that have completed successfully."""
        return {event: event._value for event in self.events
                if event.callbacks is None and event._exception is None}


class AnyOf(_Condition):
    """Triggers as soon as any constituent event is processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._completed >= 1 or not self.events


class AllOf(_Condition):
    """Triggers once all constituent events are processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._completed >= len(self.events)
