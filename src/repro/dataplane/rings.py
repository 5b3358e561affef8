"""SPSC ring buffers connecting the NF Manager and VM threads.

Paper §4.1: "we implement all communication in our system using asynchronous
ring buffers ... Since each ring buffer has a single data producer thread
and a single consumer thread, no locks are required."  In the simulation a
ring is a bounded FIFO; what we keep from the real design is the *bounded*
capacity (packets are dropped when a VM falls behind — the load-balancing
experiments depend on this) and the single-consumer discipline.
"""

from __future__ import annotations

import typing

from repro.net.batch import PacketBatch
from repro.sim.store import Store

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.stats import HostStats
    from repro.sim.simulator import Simulator

DEFAULT_RING_SLOTS = 512


class RingBuffer:
    """A bounded queue with drop-on-full producer semantics.

    Capacity counts *packets*: a descriptor fills one slot and a
    :class:`PacketBatch` one slot per packet, so drops are identical
    whichever form a burst travels in.  Only the batches' extra weight
    is tracked beside the store: the store's item bound is kept at
    ``slots - extra``, so descriptor puts and gets are the plain
    :class:`Store` operations.  Batches split FIFO-prefix-wise at the
    capacity boundary and at consumer dequeue budgets; splits are
    reported to ``stats.batch_splits``.

    The consumer pairs every :meth:`get` with a :meth:`dequeue_packets`
    sweep, as the NF and TX loops do: a batch handed whole to a parked
    consumer keeps weighing on the ring until that sweep, exactly as
    the descriptor form's queued tail would.
    """

    def __init__(self, sim: Simulator, name: str,
                 slots: int = DEFAULT_RING_SLOTS,
                 stats: HostStats | None = None) -> None:
        if slots <= 0:
            raise ValueError("ring must have at least one slot")
        self.name = name
        self.slots = slots
        self.stats = stats
        # The consumer loop yields every get at once, so gets queue the
        # consumer's wake instead of building an Event.
        self._store = Store(sim, capacity=slots, recycle=True)
        # Packets beyond one per deque item (a queued batch of n adds
        # n - 1), plus the rows past the head of ``_handed``.
        self._extra = 0
        # A batch a consumer took whole (handed to its parked get, or
        # taken by a get) before its sweep: the descriptor form would
        # still queue the rows past the head.
        self._handed: PacketBatch | None = None
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def occupancy(self) -> int:
        """Occupied slots — what queue-length load balancing inspects."""
        return len(self._store.items) + self._extra

    @property
    def is_full(self) -> bool:
        return self._store.is_full

    def _reweigh(self, delta: int) -> None:
        """Queued batches gained ``delta`` packets of extra weight."""
        self._extra += delta
        self._store.capacity -= delta

    def _settle(self) -> None:
        """The consumer swept: the batch its get took whole stops
        weighing on the ring."""
        handed, self._handed = self._handed, None
        if handed is not None:
            self._reweigh(1 - handed.count)

    def try_enqueue(self, item: typing.Any) -> bool:
        """Producer side: non-blocking put of one descriptor; False
        means the packet dropped."""
        if self._store.try_put(item):
            self.enqueued += 1
            return True
        self.dropped += 1
        return False

    def enqueue_burst(self, items: typing.Sequence[typing.Any]) -> int:
        """Producer side: enqueue descriptors and batches, dropping the
        tail when full.

        DPDK ``rte_ring_enqueue_burst`` semantics, counted in packets:
        items are accepted in order until the ring fills, and the number
        of leading items accepted whole is returned.  A batch straddling
        the boundary is accepted in part and keeps its rejected tail, so
        ``items[accepted:]`` is exactly what dropped; every rejected
        packet counts as one drop.
        """
        put = self._store.try_put
        accepted = enqueued = 0
        for item in items:
            if item.__class__ is PacketBatch:
                n = item.count
                taken = self._admit(item)
                enqueued += taken
                if taken < n:
                    break
            elif put(item):
                enqueued += 1
            else:
                break
            accepted += 1
        self.enqueued += enqueued
        for item in items[accepted:]:
            self.dropped += (item.count if item.__class__ is PacketBatch
                             else 1)
        return accepted

    def enqueue_batch(self, batch: PacketBatch) -> int:
        """Producer side: enqueue a whole batch without per-item boxing.

        Accepts the longest FIFO prefix that fits the packet-weighted
        capacity (splitting the batch at the boundary) and returns the
        number of packets accepted — the same count ``len(batch)``
        descriptor enqueues would have accepted.  On partial accept the
        caller keeps the rejected tail *in* ``batch``; a fully accepted
        batch is owned by the ring afterwards.
        """
        n = batch.count
        accepted = self._admit(batch)
        self.enqueued += accepted
        self.dropped += n - accepted
        return accepted

    def _admit(self, batch: PacketBatch) -> int:
        """Take the prefix of ``batch`` that fits; returns its length."""
        n = batch.count
        if n == 0:
            return 0
        store = self._store
        if store._getters and not store.items:
            getter = store._pop_live_getter()
            if getter is not None:
                # A parked consumer takes the head straight off the wire
                # (descriptor parity: one descriptor hands off, the rest
                # queue subject to capacity — min(n, slots + 1) total).
                accepted = min(n, self.slots + 1)
                handed = (batch if accepted == n
                          else self._split(batch, accepted))
                store._hand(getter, handed)
                if accepted > 1:
                    self._handed = handed
                    self._reweigh(accepted - 1)
                return accepted
        accepted = max(0, min(n, self.slots - self.occupancy))
        if accepted:
            store.items.append(batch if accepted == n
                               else self._split(batch, accepted))
            self._reweigh(accepted - 1)
        return accepted

    def _split(self, batch: PacketBatch, k: int) -> PacketBatch:
        if self.stats is not None:
            self.stats.batch_splits += 1
        return batch.split(k)

    def dequeue_burst(self, max_n: int) -> list[typing.Any]:
        """Consumer side: remove and return up to ``max_n`` queued items.

        Non-blocking; returns fewer than ``max_n`` (possibly zero) items
        when the ring runs empty.  The batch-poll analogue of
        ``rte_ring_dequeue_burst``.
        """
        items: list[typing.Any] = []
        while len(items) < max_n:
            item = self.try_get()
            if item is None:
                break
            items.append(item)
        return items

    def dequeue_packets(self, budget: int) -> list[typing.Any]:
        """Consumer side: the burst sweep after a :meth:`get`.

        Removes whole items worth up to ``budget`` packets, splitting
        the deque head when it straddles the budget — exactly the
        packets ``budget`` descriptor dequeues would take."""
        if not self._extra:
            # Every queued item weighs one packet.
            if not self._store.items:
                return []
            return self.dequeue_burst(budget)
        self._settle()
        items: list[typing.Any] = []
        store_items = self._store.items
        while budget > 0 and store_items:
            head = store_items[0]
            weight = head.count if head.__class__ is PacketBatch else 1
            if weight > budget:
                items.append(self._split(head, budget))
                self._reweigh(-budget)
                break
            items.append(self.try_get())
            budget -= weight
        return items

    def get(self) -> typing.Any:
        """Consumer side: what the consumer process yields for the next
        item."""
        if self._extra:
            self._settle()
            items = self._store.items
            if items and items[0].__class__ is PacketBatch:
                # The get takes the head batch at once, but its rows past
                # the head keep their slots until the consumer sweeps.
                self._handed = items[0]
        return self._store.get()

    def try_get(self) -> typing.Any | None:
        item = self._store.try_get()
        if self._extra and item.__class__ is PacketBatch:
            self._reweigh(1 - item.count)
        return item

    def drain(self) -> list[typing.Any]:
        """Remove and return every queued item (failover salvage path).

        A batch handed to a consumer that has not swept yet gives up its
        rows past the head, which the descriptor form would still hold
        queued: the consumer resumes with the head packet only."""
        items: list[typing.Any] = []
        handed = self._handed
        if handed is not None:
            self._settle()
            if handed.count > 1:
                items.append(handed.split_tail(1))
        while True:
            item = self.try_get()
            if item is None:
                return items
            items.append(item)
