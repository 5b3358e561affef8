"""Host-level statistics: what the NF Manager tier knows (paper §3.1).

The "host-specific internal state" of the hierarchy: queue occupancies,
packet/byte counters, drops, per-service activity.  The SDNFV Application
reads these through the manager rather than tracking them centrally.
"""

from __future__ import annotations

import collections
import dataclasses

from repro.net.batch import columnar_kernel


@dataclasses.dataclass
class HostStats:
    """Counters maintained by one NF Manager."""

    rx_packets: int = 0
    rx_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_ring_full: int = 0
    dropped_by_nf: int = 0
    dropped_no_rule: int = 0
    dropped_no_vm: int = 0
    policy_violations: int = 0
    sdn_requests: int = 0
    sdn_retries: int = 0
    sdn_timeouts: int = 0
    # Miss classifier: each flow's *first contact* with this host is
    # classified exactly once — it hit a pre-populated rule
    # (proactive_hits), hit a rule a previous miss pulled in
    # (reactive_hits), or missed and took the controller slow path
    # (reactive_misses).  miss_fallbacks counts miss queues released
    # without rules (degraded to the fallback destination or dropped).
    proactive_hits: int = 0
    reactive_hits: int = 0
    reactive_misses: int = 0
    miss_fallbacks: int = 0
    parallel_groups: int = 0
    failed_vms: int = 0
    requeued_packets: int = 0
    degraded_packets: int = 0
    lost_in_nf: int = 0
    # NIC-tier drops, mirrored from the ports so host reports see them
    # (frames rejected before the RX thread ever touched them are
    # otherwise invisible in manager-level accounting).
    nic_rx_dropped: int = 0
    nic_link_dropped: int = 0
    # Packet mempool traffic, mirrored from the host's PacketPool: hits
    # reuse a retired buffer, misses materialize a new pooled one (cold
    # start), exhausted allocations overflowed to the plain heap.
    pool_hits: int = 0
    pool_misses: int = 0
    pool_exhausted: int = 0
    # Burst pipeline: polls per stage and the batch-occupancy histogram
    # (batch size -> number of polls that returned that many packets).
    rx_batches: int = 0
    tx_batches: int = 0
    vm_batches: int = 0
    # Batch path: RX bursts that travelled as a PacketBatch, packets
    # rematerialized to descriptors for slow paths (the fallback rate),
    # burst flow-lookup rounds and their dedup hits, and batch
    # split/merge structure audits (splits at ring/budget boundaries,
    # merges when one drain charge covers several batches).  All zero
    # while every RX burst is smaller than the batching threshold.
    columnar_batches: int = 0
    object_fallbacks: int = 0
    lookup_batches: int = 0
    lookup_batch_hits: int = 0
    batch_splits: int = 0
    batch_merges: int = 0
    per_service_packets: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    per_port_tx_bytes: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    rx_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    tx_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    vm_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)

    def record_rx(self, size: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += size

    def record_tx(self, port: str, size: int) -> None:
        self.tx_packets += 1
        self.tx_bytes += size
        self.per_port_tx_bytes[port] += size

    def record_service(self, service_id: str) -> None:
        self.per_service_packets[service_id] += 1

    def record_rx_batch(self, size: int) -> None:
        self.rx_batches += 1
        self.rx_batch_occupancy[size] += 1

    def record_tx_batch(self, size: int) -> None:
        self.tx_batches += 1
        self.tx_batch_occupancy[size] += 1

    def record_vm_batch(self, size: int) -> None:
        self.vm_batches += 1
        self.vm_batch_occupancy[size] += 1

    @columnar_kernel
    def record_rx_bulk(self, count: int, nbytes: int) -> None:
        """Batch-wide RX accounting — one update per burst, identical
        totals to ``count`` :meth:`record_rx` calls."""
        self.rx_packets += count
        self.rx_bytes += nbytes
        self.columnar_batches += 1

    @columnar_kernel
    def record_tx_bulk(self, port: str, count: int, nbytes: int) -> None:
        """Batch-wide TX accounting — identical totals to ``count``
        :meth:`record_tx` calls."""
        self.tx_packets += count
        self.tx_bytes += nbytes
        self.per_port_tx_bytes[port] += nbytes

    def flow_setups(self) -> int:
        """Flows whose first contact has been classified."""
        return (self.proactive_hits + self.reactive_hits
                + self.reactive_misses)

    def reactive_miss_rate(self) -> float:
        """Fraction of flow setups that took the controller slow path
        (the Fig. 1 / Fig. 10 quantity the proactive pipeline drives
        down).  0.0 when no flow has been classified yet."""
        setups = self.flow_setups()
        return self.reactive_misses / setups if setups else 0.0

    def batch_summary(self) -> dict[str, float]:
        """Mean batch occupancy per pipeline stage (1.0 = no batching)."""

        def mean(histogram: collections.Counter) -> float:
            polls = sum(histogram.values())
            if not polls:
                return 0.0
            return sum(size * count
                       for size, count in histogram.items()) / polls

        return {
            "rx_mean_batch": mean(self.rx_batch_occupancy),
            "tx_mean_batch": mean(self.tx_batch_occupancy),
            "vm_mean_batch": mean(self.vm_batch_occupancy),
        }

    def summary(self) -> dict[str, int]:
        """Scalar counters as a plain dict (for reports and tests)."""
        return {
            "rx_packets": self.rx_packets,
            "rx_bytes": self.rx_bytes,
            "tx_packets": self.tx_packets,
            "tx_bytes": self.tx_bytes,
            "dropped_ring_full": self.dropped_ring_full,
            "dropped_by_nf": self.dropped_by_nf,
            "dropped_no_rule": self.dropped_no_rule,
            "dropped_no_vm": self.dropped_no_vm,
            "policy_violations": self.policy_violations,
            "sdn_requests": self.sdn_requests,
            "sdn_retries": self.sdn_retries,
            "sdn_timeouts": self.sdn_timeouts,
            "proactive_hits": self.proactive_hits,
            "reactive_hits": self.reactive_hits,
            "reactive_misses": self.reactive_misses,
            "miss_fallbacks": self.miss_fallbacks,
            "parallel_groups": self.parallel_groups,
            "failed_vms": self.failed_vms,
            "requeued_packets": self.requeued_packets,
            "degraded_packets": self.degraded_packets,
            "lost_in_nf": self.lost_in_nf,
            "nic_rx_dropped": self.nic_rx_dropped,
            "nic_link_dropped": self.nic_link_dropped,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_exhausted": self.pool_exhausted,
            "rx_batches": self.rx_batches,
            "tx_batches": self.tx_batches,
            "vm_batches": self.vm_batches,
            "columnar_batches": self.columnar_batches,
            "object_fallbacks": self.object_fallbacks,
            "lookup_batches": self.lookup_batches,
            "lookup_batch_hits": self.lookup_batch_hits,
            "batch_splits": self.batch_splits,
            "batch_merges": self.batch_merges,
        }
