"""Burst-mode data plane: ring burst ops, burst=1 parity, crash salvage.

The batched pipeline (``NfvHost(burst_size=...)``) must be a pure
efficiency refactor: ``burst_size=1`` reproduces the pre-refactor
pipeline event-for-event (checked here against golden summaries captured
before the refactor), per-slot ring accounting is identical to per-item
calls, and a VM crash mid-batch loses only the in-flight head — the
rest of the held batch is salvaged exactly like ring contents.
"""

from __future__ import annotations

import pytest

from repro._compat import HAVE_NUMPY
from repro.dataplane import NfvHost
from repro.dataplane.rings import RingBuffer
from repro.dataplane.stats import HostStats
from repro.net import FiveTuple, Packet, PacketBatch
from repro.nfs import ComputeNf, NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain


# ----------------------------------------------------------------------
# RingBuffer burst operations
# ----------------------------------------------------------------------
class TestRingBurstOps:
    def test_enqueue_burst_accepts_prefix_and_drops_tail(self, sim):
        ring = RingBuffer(sim, "r", slots=4)
        assert ring.enqueue_burst(list(range(6))) == 4
        assert ring.enqueued == 4
        assert ring.dropped == 2
        assert ring.occupancy == 4
        assert ring.is_full
        # A burst against a full ring accepts nothing.
        assert ring.enqueue_burst([99]) == 0
        assert ring.dropped == 3

    def test_burst_accounting_matches_per_item_calls(self, sim):
        burst_ring = RingBuffer(sim, "burst", slots=5)
        item_ring = RingBuffer(sim, "items", slots=5)
        payload = list(range(8))
        burst_ring.enqueue_burst(payload)
        for item in payload:
            item_ring.try_enqueue(item)
        assert burst_ring.enqueued == item_ring.enqueued
        assert burst_ring.dropped == item_ring.dropped
        assert burst_ring.drain() == item_ring.drain()

    def test_dequeue_burst_caps_at_max_n_and_preserves_fifo(self, sim):
        ring = RingBuffer(sim, "r", slots=8)
        ring.enqueue_burst([1, 2, 3, 4, 5])
        assert ring.dequeue_burst(3) == [1, 2, 3]
        assert ring.dequeue_burst(10) == [4, 5]
        assert ring.dequeue_burst(1) == []

    def test_wraparound_cycling_keeps_order_and_counters(self, sim):
        ring = RingBuffer(sim, "r", slots=8)
        produced = iter(range(10_000))
        offered = 0
        accepted_items = []
        consumed = []
        # Cycle bursts of varying size through the 8-slot ring so the
        # head/tail wrap many times; only the accepted prefix of each
        # burst enters the FIFO.
        for enqueue_n, dequeue_n in ((3, 1), (8, 8), (5, 2), (7, 7),
                                     (2, 0), (8, 3), (6, 6), (4, 9)) * 4:
            batch = [next(produced) for _ in range(enqueue_n)]
            offered += len(batch)
            free = ring.slots - ring.occupancy
            accepted = ring.enqueue_burst(batch)
            assert accepted == min(enqueue_n, free)
            accepted_items.extend(batch[:accepted])
            consumed.extend(ring.dequeue_burst(dequeue_n))
        consumed.extend(ring.drain())
        assert consumed == accepted_items
        assert ring.enqueued == len(accepted_items)
        assert ring.enqueued + ring.dropped == offered
        assert ring.occupancy == 0

    def test_drain_equals_full_dequeue_burst(self, sim):
        first = RingBuffer(sim, "a", slots=16)
        second = RingBuffer(sim, "b", slots=16)
        for ring in (first, second):
            ring.enqueue_burst(list(range(10)))
        assert first.drain() == second.dequeue_burst(second.occupancy)
        assert first.occupancy == second.occupancy == 0


def _batch(count: int, flow) -> PacketBatch:
    batch = PacketBatch("eth0")
    for _ in range(count):
        batch.append(Packet(flow=flow, size=64, created_at=0))
    return batch


class TestPacketWeightedRing:
    """Batches fill one slot per packet, and descriptors sharing the
    ring see exactly the capacity the batches left."""

    def test_descriptors_fill_only_what_batches_left(self, sim, flow):
        ring = RingBuffer(sim, "r", slots=8)
        assert ring.enqueue_batch(_batch(5, flow)) == 5
        assert (len(ring), ring.occupancy) == (1, 5)
        assert ring.enqueue_burst(["a", "b", "c", "d"]) == 3
        assert ring.is_full and ring.occupancy == 8
        assert ring.dropped == 1
        # Taking the batch frees all five of its slots.
        assert ring.try_get().count == 5
        assert ring.occupancy == 3
        assert ring.enqueue_burst(list("vwxyz")) == 5
        assert ring.is_full

    def test_batch_accepts_the_prefix_that_fits(self, sim, flow):
        ring = RingBuffer(sim, "r", slots=8)
        ring.enqueue_burst(list(range(6)))
        batch = _batch(5, flow)
        tail = batch.packets[2:]
        assert ring.enqueue_batch(batch) == 2
        # The caller keeps the rejected tail in ``batch``.
        assert batch.packets == tail
        assert ring.occupancy == 8 and ring.dropped == 3

    def test_dequeue_budget_splits_the_head_batch(self, sim, flow):
        stats = HostStats()
        ring = RingBuffer(sim, "r", slots=16, stats=stats)
        ring.enqueue_burst(["d0"])
        ring.enqueue_batch(_batch(6, flow))
        ring.enqueue_burst(["d1"])
        taken = ring.dequeue_packets(4)
        assert taken[0] == "d0" and taken[1].count == 3
        assert stats.batch_splits == 1
        assert ring.occupancy == 4              # 3 batch rows + d1
        assert ring.get().value.count == 3      # synchronous head get
        # Until the sweep the got batch's rows past its head keep their
        # slots, as the two descriptors behind a got one would.
        assert ring.occupancy == 3
        assert ring.dequeue_packets(4) == ["d1"]
        assert ring.occupancy == 0 and not ring.is_full

    def test_mixed_burst_accepts_a_packet_prefix(self, sim, flow):
        ring = RingBuffer(sim, "r", slots=8)
        last = _batch(3, flow)
        tail = last.packets[1:]
        # a + 5 rows + b fill 7 slots; one row of the last batch fits.
        assert ring.enqueue_burst(["a", _batch(5, flow), "b", last]) == 3
        assert last.packets == tail
        assert (ring.enqueued, ring.dropped) == (8, 2)
        assert ring.is_full


def _consume(ring: RingBuffer, budget: int, taken: list):
    """A consumer loop's first burst: get, then the sweep."""
    head = yield ring.get()
    weight = _weight(head)
    swept = ring.dequeue_packets(budget - weight)
    taken.append(weight + sum(_weight(item) for item in swept))


def _weight(item) -> int:
    return item.count if isinstance(item, PacketBatch) else 1


def _offer(ring: RingBuffer, batched: bool, flow, n: int) -> int:
    """Enqueue ``n`` packets as one batch or as n descriptors; returns
    the packets accepted."""
    if batched:
        return ring.enqueue_batch(_batch(n, flow))
    before = ring.enqueued
    ring.enqueue_burst([f"d{i}" for i in range(n)])
    return ring.enqueued - before


class TestTakenBatchWeighsUntilTheSweep:
    """A consumer that takes a batch whole (a parked get, or a get of a
    queued batch) holds what the descriptor form would still have
    queued until its sweep: producers in the same instant see the same
    occupancy, and a salvage before the sweep recovers the same tail."""

    @staticmethod
    def _run(batched: bool, flow, queued: int, salvage: bool = False):
        sim = Simulator()
        ring = RingBuffer(sim, "r", slots=4)
        offered = [_offer(ring, batched, flow, queued)] if queued else []
        taken: list[int] = []
        sim.process(_consume(ring, 32, taken))
        sim.run()  # the consumer parks (or its get resolves at once)
        offered.append(_offer(ring, batched, flow, 6))
        seen = [ring.occupancy]
        offered.append(_offer(ring, batched, flow, 6))
        seen.append(ring.occupancy)
        salvaged = (sum(_weight(item) for item in ring.drain())
                    if salvage else None)
        sim.run()
        return offered, seen, salvaged, taken, ring.occupancy

    @pytest.mark.parametrize("queued", [0, 3])
    def test_same_instant_producers_see_descriptor_occupancy(self, flow,
                                                             queued):
        batched = self._run(True, flow, queued)
        assert batched == self._run(False, flow, queued)
        # Both 6-packet offers met a ring the first burst had filled.
        assert batched[1] == [4, 4]

    def test_salvage_before_the_sweep_recovers_the_tail(self, flow):
        batched = self._run(True, flow, 0, salvage=True)
        assert batched == self._run(False, flow, 0, salvage=True)
        offered, _seen, salvaged, taken, _left = batched
        assert (offered[0], salvaged, taken) == (5, 4, [1])


# ----------------------------------------------------------------------
# burst_size=1 parity with the pre-refactor per-packet pipeline
# ----------------------------------------------------------------------
# HostStats/PktGen summaries of deterministic scenarios, captured on the
# per-packet pipeline immediately before the burst refactor.
GOLDEN = {
    "fig7_64B": {"rx_packets": 28572, "tx_packets": 17690,
                 "dropped_ring_full": 10882, "sent": 28572,
                 "received": 17690, "latency_mean_us": 142.349838},
    "fig7_512B": {"rx_packets": 4663, "tx_packets": 4663,
                  "dropped_ring_full": 0, "sent": 4663, "received": 4663,
                  "latency_mean_us": 28.525039},
    "table2_3vm_seq": {"rx_packets": 245, "tx_packets": 245,
                       "sent": 245, "received": 245,
                       "latency_mean_us": 29.977645},
    "parallel_2vm": {"rx_packets": 3642, "tx_packets": 3642,
                     "parallel_groups": 3642, "sent": 3642,
                     "received": 3642, "latency_mean_us": 27.268258},
}

FLOW = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)


def _summarise(host, gen):
    out = dict(host.stats.summary())
    out.update(sent=gen.sent, received=gen.received,
               latency_mean_us=round(gen.latency.mean_us(), 6))
    return out


def run_fig7_like(size: int, burst: int) -> dict:
    """2-VM sequential chain at an offered 10 Gbps (Fig. 7 workload)."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service), ring_slots=1024)
    install_chain(host, services)
    gen = PktGen(sim, host, window_ns=MS)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=10_000.0, packet_size=size,
                          stop_ns=2 * MS))
    sim.run(until=4 * MS)
    return _summarise(host, gen)


def run_table2_like(burst: int) -> dict:
    """3-VM sequential no-op chain at 100 Mbps (Table 2 workload)."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1", "noop2"]
    for service in services:
        host.add_nf(NoOpNf(service))
    install_chain(host, services)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=100.0, packet_size=1000,
                          stop_ns=20 * MS))
    sim.run(until=40 * MS)
    return _summarise(host, gen)


def run_parallel_like(burst: int) -> dict:
    """2-VM parallel chain under Poisson arrivals."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service))
    install_chain(host, services)
    host.manager.register_parallel_chain(services)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=400.0, packet_size=256,
                          stop_ns=20 * MS, pacing="poisson"))
    sim.run(until=40 * MS)
    return _summarise(host, gen)


@pytest.mark.skipif(not HAVE_NUMPY, reason="golden summaries pin the "
                    "numpy jitter stream; the stdlib fallback draws "
                    "different values")
class TestBurstOneParity:
    """burst_size=1 must reproduce the pre-refactor pipeline exactly."""

    def _check(self, name: str, summary: dict) -> None:
        for key, want in GOLDEN[name].items():
            assert summary[key] == want, f"{name}.{key}"

    def test_fig7_64B_overload(self):
        self._check("fig7_64B", run_fig7_like(64, burst=1))

    def test_fig7_512B_underload(self):
        self._check("fig7_512B", run_fig7_like(512, burst=1))

    def test_table2_sequential_chain(self):
        self._check("table2_3vm_seq", run_table2_like(burst=1))

    def test_parallel_chain_poisson(self):
        self._check("parallel_2vm", run_parallel_like(burst=1))


class TestBurst32:
    """Default-burst runs: same model outputs, conservation, batching on."""

    def test_fig7_conservation_and_batching(self):
        summary = run_fig7_like(64, burst=32)
        # Every received packet is transmitted or dropped — batching
        # never loses descriptors.
        assert summary["rx_packets"] == (summary["tx_packets"]
                                         + summary["dropped_ring_full"])
        assert summary["rx_packets"] == GOLDEN["fig7_64B"]["rx_packets"]
        # Batching actually engages under small-packet overload: far
        # fewer VM/TX wakeups than packets.
        assert 0 < summary["vm_batches"] < summary["rx_packets"] / 4
        assert 0 < summary["tx_batches"] < summary["tx_packets"] / 4

    def test_table2_latency_stays_in_calibration_band(self):
        summary = run_table2_like(burst=32)
        golden = GOLDEN["table2_3vm_seq"]
        assert summary["rx_packets"] == golden["rx_packets"]
        assert summary["tx_packets"] == golden["tx_packets"]
        # 100 Mbps of 1000 B packets never accumulates a backlog, so the
        # latency calibration is untouched by the burst knob.
        assert summary["latency_mean_us"] == pytest.approx(
            golden["latency_mean_us"], abs=0.5)


# ----------------------------------------------------------------------
# Crash mid-batch: only the in-flight head dies with the VM
# ----------------------------------------------------------------------
class TestMidBatchCrashSalvage:
    def test_crash_mid_batch_requeues_held_tail_to_survivor(self, sim,
                                                            flow):
        host = NfvHost(sim, name="h", burst_size=32)
        vm1 = host.add_nf(ComputeNf("svc", cost_ns=MS))
        host.add_nf(ComputeNf("svc", cost_ns=MS))
        install_chain(host, ["svc"])
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(40):
            host.inject("eth0", Packet(flow=flow, size=128, created_at=0))
        # Let both replicas dequeue a burst and start the batch timeout
        # (each holds ~20 packets x 1 ms of work).
        sim.run(until=2 * MS)
        assert vm1.inflight is not None
        held_tail = len(vm1._pending)
        assert held_tail > 0                   # genuinely mid-batch
        in_ring = vm1.rx_ring.occupancy
        salvage = host.manager.fail_vm(vm1)
        # The whole held batch minus the in-flight head is salvaged,
        # together with anything still queued in the ring.
        assert salvage == {"requeued": held_tail + in_ring,
                           "degraded": 0, "lost": 0}
        assert vm1.take_pending_batch() == []
        sim.run(until=200 * MS)
        # Exactly one packet (the in-flight head) died with the VM.
        assert host.stats.lost_in_nf == 1
        assert len(out) == 39
