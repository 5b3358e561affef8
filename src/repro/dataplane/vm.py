"""The simulated NF VM: one thread polling its RX ring, running the NF.

Paper §4.3: each VM runs a single network function as a user-space
application; each core runs a thread with its own ring buffer pair shared
with the host's RX/TX threads.  Here one :class:`NfVm` models one such
thread (replicas of a service are separate ``NfVm`` instances, which is
also how the load balancer sees them).

Failure model (§3.1: NF Managers "respond to failure or overload"): a VM
may *crash* (its thread dies, :class:`~repro.sim.events.Interrupt` is
thrown into the packet loop) or *hang* (the thread wedges mid-packet and
stops making progress).  Liveness is exposed through the same shared ring
state a real manager reads — ``last_progress_ns`` advances every time the
thread moves a descriptor, which is the heartbeat the watchdog in
:mod:`repro.faults.watchdog` samples.
"""

from __future__ import annotations

import typing

from repro.dataplane.costs import HostCosts
from repro.dataplane.descriptors import PacketDescriptor
from repro.dataplane.rings import DEFAULT_RING_SLOTS, RingBuffer
from repro.net.batch import PacketBatch
from repro.nfs.base import NetworkFunction, NfContext
from repro.sim.events import Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.manager import NfManager


class NfVm:
    """One VM thread hosting a network function."""

    def __init__(self, manager: NfManager, nf: NetworkFunction,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 priority: int = 0) -> None:
        self.manager = manager
        self.sim = manager.sim
        self.nf = nf
        # VM ids are minted per manager, not from a module-global counter:
        # they name rings, TX assignments, and per-VM RNG streams, so they
        # must depend only on this host's registration order (a sharded
        # run builds hosts in a different global order than a monolithic
        # one, but each host sees the same local sequence).
        self.vm_id = f"vm{next(manager._vm_ids)}-{nf.service_id}"
        self.priority = priority
        self.rx_ring = RingBuffer(self.sim, name=f"{self.vm_id}/rx",
                                  slots=ring_slots,
                                  stats=manager.stats)
        self.packets_processed = 0
        self.packets_lost = 0
        self.busy_ns = 0
        # Heartbeat state: when the thread last moved a descriptor, and the
        # descriptor it currently holds (None while idle on the ring).
        # With bursts, ``inflight`` is the head of the batch the thread is
        # working through; the not-yet-processed tail sits in ``_pending``
        # (salvageable on failure) and ``_busy_until_ns`` tells the
        # watchdog how long the current batch legitimately runs.
        self.last_progress_ns = 0
        self.inflight: PacketDescriptor | PacketBatch | None = None
        self._pending: list[PacketDescriptor | PacketBatch] = []
        self._busy_until_ns = 0
        self.failed = False
        self.failure_cause: str | None = None
        self._hung = False
        self.ctx = NfContext(
            sim=self.sim,
            service_id=nf.service_id,
            vm_id=self.vm_id,
            submit_message=manager.submit_nf_message,
            rng=manager.streams.stream(self.vm_id),
        )
        self._process = None

    @property
    def service_id(self) -> str:
        return self.nf.service_id

    @property
    def read_only(self) -> bool:
        return self.nf.read_only

    @property
    def crashed(self) -> bool:
        """True once the VM's thread is dead — killed, or the NF raised."""
        return self.failed or (self._process is not None
                               and not self._process.is_alive)

    def stalled(self, now_ns: int, heartbeat_timeout_ns: int) -> bool:
        """Wedged: holding a descriptor but no progress for too long.

        An idle VM (nothing in flight) is never considered stalled — it is
        legitimately blocked on its empty RX ring.  A VM inside a long
        batch is not stalled either: its heartbeat reference advances to
        the batch's expected completion time, so a 32-packet burst of a
        slow NF does not trip the watchdog mid-batch.
        """
        if self.failed or self.inflight is None:
            return False
        reference = max(self.last_progress_ns,
                        min(self._busy_until_ns, now_ns))
        return now_ns - reference >= heartbeat_timeout_ns

    def take_pending_batch(self) -> list:
        """Remove and return the dequeued-but-unprocessed burst tail.

        Failover salvage (``NfManager.fail_vm``): items the thread had
        burst-dequeued but not started are recoverable intact — only
        the in-flight head packet dies with the VM.
        """
        self._detach_inflight_tail()
        pending, self._pending = self._pending, []
        return pending

    def _detach_inflight_tail(self) -> None:
        """Narrow an in-flight batch to its head packet, moving the rest
        to the front of ``_pending``: a crash loses exactly the packet a
        descriptor burst would have lost."""
        batch = self.inflight
        if batch.__class__ is PacketBatch and batch.count > 1:
            self.inflight = batch.split(1)
            self._pending.insert(0, batch)

    def start(self) -> None:
        """Begin the VM's packet loop (called at registration)."""
        if self._process is not None:
            raise RuntimeError(f"{self.vm_id} already started")
        self.nf.on_register(self.ctx)
        self._process = self.sim.process(self._run())

    # ------------------------------------------------------------------
    # Fault surface (driven by repro.faults)
    # ------------------------------------------------------------------
    def crash(self, cause: str = "crash") -> None:
        """Kill the VM thread at the current time.

        The interrupt is delivered asynchronously (at the current
        timestamp); the packet loop's cleanup then marks the VM failed
        and accounts for any in-flight descriptor.  Idempotent.
        """
        if self.failed or self._process is None or not self._process.is_alive:
            self.failed = True
            self.failure_cause = self.failure_cause or cause
            return
        self._hung = False
        self._process.interrupt(cause)

    def hang(self) -> None:
        """Wedge the VM: it stops mid-packet on its next dequeue and makes
        no further progress until crashed/terminated."""
        self._hung = True

    # ------------------------------------------------------------------
    # Packet loop
    # ------------------------------------------------------------------
    def _run(self):
        """The VM's packet loop: burst-dequeue, process, hand off.

        The thread blocks for the head item, sweeps the rest of the
        burst from its ring (``burst_size`` packets, a batch weighing
        its packet count), then serves the whole burst under a single
        occupancy charge and hands it off with one timer per distinct
        delivery delay.  A :class:`PacketBatch` goes to the NF in one
        :meth:`~repro.nfs.base.NetworkFunction.handle_batch` call when
        the NF implements ``process_batch`` with a flat cost; otherwise
        it is exploded to descriptors *before* the work sleep, so
        per-packet costs and crash accounting see exactly what the
        descriptor path would (counted in ``object_fallbacks``).
        ``inflight`` holds the burst head (the packet that dies on a
        crash); the tail stays in ``_pending`` until the burst
        completes, so mid-burst failures salvage it intact.  At
        ``burst_size=1`` this is event-for-event the single-packet loop.
        """
        manager = self.manager
        costs: HostCosts = manager.costs
        nf, ctx = self.nf, self.ctx
        nf_type = type(nf)
        batch_ok = (
            nf_type.process_batch is not NetworkFunction.process_batch
            and nf_type.processing_cost_ns
            is NetworkFunction.processing_cost_ns)
        try:
            while True:
                head = yield self.rx_ring.get()
                items = [head]
                weight = head.count if head.__class__ is PacketBatch else 1
                items.extend(self.rx_ring.dequeue_packets(
                    manager.burst_size - weight))
                weight = len(items)
                explode = False
                for item in items:
                    if item.__class__ is PacketBatch:
                        weight += item.count - 1
                        explode = not batch_ok
                if explode:
                    work_items: list = []
                    for item in items:
                        if item.__class__ is PacketBatch:
                            work_items.extend(
                                descriptor for descriptor, _entry
                                in manager._explode_batch(item))
                        else:
                            work_items.append(item)
                    items = work_items
                manager.stats.record_vm_batch(weight)
                self.inflight = items[0]
                self._pending = items[1:]
                self.last_progress_ns = self.sim.now
                if self._hung:
                    # Wedged mid-packet: block on an event that never
                    # fires.  Only an interrupt (watchdog kill) resumes us.
                    yield self.sim.event()
                jobs = []
                work = costs.vm_batch_poll_ns
                for item in items:
                    if item.__class__ is PacketBatch:
                        cost = ((costs.vm_service_ns + nf.per_packet_cost_ns)
                                * item.count)
                    else:
                        cost = (costs.vm_service_ns
                                + nf.processing_cost_ns(item.packet, ctx))
                    jobs.append((item, cost))
                    work += cost
                self._busy_until_ns = self.sim.now + work
                yield self.sim.sleep(work)
                self.busy_ns += work
                # Burst complete: emit verdicts and group the handoff by
                # delivery delay (one timer per distinct delay, not one
                # per packet).
                handoff: dict[int, list] = {}
                for item, _cost in jobs:
                    batch = item.__class__ is PacketBatch
                    if batch:
                        self.packets_processed += item.count
                        item.verdict = nf.handle_batch(item, ctx)
                    else:
                        self.packets_processed += 1
                        item.verdict = nf.handle_packet(item.packet, ctx)
                    item.scope = self.service_id
                    item.vm_priority = self.priority
                    # Ring hops + poll-batching pickup are latency, not
                    # occupancy: hand the item to the TX tier after a
                    # non-blocking delay.  Parallel-group members (never
                    # batches) are staggered by their index, modeling
                    # cache contention on the shared packet buffer.
                    delay = costs.vm_pipeline_latency_ns
                    if not batch and item.group_id is not None:
                        # Merge stage: journal this member's writes while
                        # still in the handler's event (before any other
                        # member can touch the shared packet).
                        manager._capture_group_writes(item)
                        delay += costs.parallel_stagger_ns * item.group_index
                    handoff.setdefault(delay, []).append(item)
                self._pending = []
                self.inflight = None
                self.last_progress_ns = self.sim.now
                for delay, done in handoff.items():
                    # Bare timer lane: the handoff needs no Event object.
                    self.sim.call_later(delay, self._submit_batch, done)
        except Interrupt as interrupt:
            self._on_killed(str(interrupt.cause or "crash"))

    def _submit_batch(self, descriptors: list[PacketDescriptor]) -> None:
        self.manager.tx_submit_burst(descriptors, self)

    def _on_killed(self, cause: str) -> None:
        self.failed = True
        self.failure_cause = cause
        self._hung = False
        self._detach_inflight_tail()
        if self.inflight is None:
            return
        # The packet the NF was holding dies with it.  A parallel-group
        # member must run group bookkeeping first: when every other
        # member already reported, the merge consumes this reference and
        # the buffer lives on — freeing it here would be the
        # use-after-release the ownership verifier exists to catch.
        item, self.inflight = self.inflight, None
        self.packets_lost += 1
        self.manager.stats.lost_in_nf += 1
        if item.__class__ is PacketBatch:
            item.packets[0].free()
            return
        if not self.manager._group_member_lost(item):
            item.packet.free()
        self.manager._desc_free(item)

    def __repr__(self) -> str:
        state = " FAILED" if self.failed else ""
        return (f"<NfVm {self.vm_id} queue={self.rx_ring.occupancy} "
                f"processed={self.packets_processed}{state}>")
