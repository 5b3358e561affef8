"""A bounded FIFO store with blocking put/get, for inter-process queues."""

from __future__ import annotations

import collections
import typing
from heapq import heappush

from repro.sim.events import WAIT, Event, Process

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class Store:
    """Bounded FIFO channel between simulation processes.

    ``put(item)`` and ``get()`` return events; a process yields them::

        yield store.put(item)      # blocks while full
        item = yield store.get()   # blocks while empty

    Non-blocking variants ``try_put`` / ``try_get`` return success/None
    immediately — these model drop-on-full ring buffers.

    ``recycle=True`` marks an *internal* store whose consumer is a
    process that yields every ``get()`` at once (lint rule SIM007): such
    a get builds no Event.  It queues the process's wake on the
    simulator heap, or parks ``(process, token)`` until a put hands the
    item over, and returns :data:`~repro.sim.events.WAIT` for the
    process to yield.  A get made outside a process still returns an
    Event.  Leave it off for stores exposed to arbitrary callers.
    """

    # Stores sit on the per-packet path (NIC rings, VM rings, TX queues):
    # slotted so a busy host's queues never pay per-instance dict costs.
    __slots__ = ("sim", "capacity", "recycle", "items", "_getters",
                 "_putters")

    def __init__(self, sim: Simulator,
                 capacity: int | float = float("inf"),
                 recycle: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.recycle = recycle
        self.items: collections.deque = collections.deque()
        # Parked gets: an Event, or a recycled get's (process, token).
        self._getters: collections.deque[Event | tuple[Process, int]] = (
            collections.deque())
        self._putters: collections.deque[tuple[Event, typing.Any]] = (
            collections.deque())

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # ------------------------------------------------------------------
    # Blocking interface
    # ------------------------------------------------------------------
    def put(self, item: typing.Any) -> Event:
        event = Event(self.sim)
        items = self.items
        if self._getters and not items:
            getter = self._pop_live_getter()
            if getter is not None:
                self._hand(getter, item)
                event.succeed()
                return event
        if len(items) < self.capacity:
            items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> typing.Any:
        sim = self.sim
        process = sim._active_process
        items = self.items
        if self.recycle and process is not None:
            if items:
                heappush(sim._queue, (sim.now, sim._sequence, process,
                                      process._token, items.popleft()))
                sim._sequence += 1
                if self._putters and len(items) < self.capacity:
                    self._admit_putter()
            else:
                self._getters.append((process, process._token))
            return WAIT
        event = Event(sim)
        if items:
            event.succeed(items.popleft())
            if self._putters and len(items) < self.capacity:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        """A slot freed up: the oldest blocked put lands."""
        put_event, item = self._putters.popleft()
        self.items.append(item)
        put_event.succeed()

    def _pop_live_getter(self) -> Event | tuple[Process, int] | None:
        """Next parked getter whose process still waits on it.

        A get event whose callbacks emptied out, or a ``(process,
        token)`` whose token an interrupt has since bumped, belongs to a
        process that was interrupted while waiting; delivering an item
        to it would lose the item silently.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter.__class__ is tuple:
                if getter[1] == getter[0]._token:
                    return getter
            elif getter.callbacks:  # None (processed) is impossible here
                return getter
        return None

    def _hand(self, getter: Event | tuple[Process, int],
              item: typing.Any) -> None:
        """Give ``item`` to a live parked getter."""
        if getter.__class__ is tuple:
            sim = self.sim
            process, token = getter
            heappush(sim._queue, (sim.now, sim._sequence, process, token,
                                  item))
            sim._sequence += 1
        else:
            getter.succeed(item)

    # ------------------------------------------------------------------
    # Non-blocking interface
    # ------------------------------------------------------------------
    def try_put(self, item: typing.Any) -> bool:
        """Insert if not full.  Returns False (drop) when full."""
        items = self.items
        getters = self._getters
        if getters and not items:
            # _pop_live_getter and _hand inlined: the per-packet ring
            # hand-off to a parked consumer.
            while getters:
                getter = getters.popleft()
                if getter.__class__ is tuple:
                    process, token = getter
                    if token == process._token:
                        sim = self.sim
                        heappush(sim._queue, (sim.now, sim._sequence,
                                              process, token, item))
                        sim._sequence += 1
                        return True
                elif getter.callbacks:
                    getter.succeed(item)
                    return True
        if len(items) >= self.capacity:
            return False
        items.append(item)
        return True

    def try_get(self) -> typing.Any | None:
        """Remove and return the head item, or None when empty."""
        items = self.items
        if not items:
            return None
        item = items.popleft()
        if self._putters and len(items) < self.capacity:
            self._admit_putter()
        return item
