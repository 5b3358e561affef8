"""The NF Manager: the per-host data plane engine (paper §4.1–4.2).

One :class:`NfManager` runs on each SDNFV host.  It owns:

- the host's **flow table** (Service-ID-scoped rules from the SDN tier),
- **RX threads** (one per NIC port) that classify arriving packets and
  dispatch descriptors into VM rings,
- **TX threads** that collect completed descriptors from VMs, resolve the
  NF's verdict against the flow table, and forward / drop / hand off,
- a **Flow Controller thread** that buffers flow-table misses and asks the
  SDN controller for rules asynchronously (31 ms off the critical path),
- a **management loop** applying cross-layer NF messages (SkipMe /
  RequestMe / ChangeDefault / Message), optionally validated by the SDNFV
  Application first,
- per-service **load balancers** and the **parallel processing** machinery
  (descriptor fan-out, reference counting, verdict merge).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

from repro.dataplane.actions import (
    Destination,
    Drop,
    NfVerdict,
    ToPort,
    ToService,
    Verdict,
    resolve_parallel_verdicts,
)
from repro.dataplane.costs import HostCosts
from repro.dataplane.descriptors import PacketDescriptor
from repro.dataplane.flow_table import FlowTable, FlowTableEntry
from repro.dataplane.load_balancer import LoadBalancePolicy, ServiceLoadBalancer
from repro.dataplane.messages import (
    ChangeDefault,
    NfMessage,
    RequestMe,
    SkipMe,
    UserMessage,
)
from repro.dataplane.rings import RingBuffer
from repro.dataplane.stats import HostStats
from repro.dataplane.vm import NfVm
from repro.net.batch import PacketBatch
from repro.net.flow import FiveTuple, FlowMatch
from repro.net.mempool import DEFAULT_POOL_SIZE, PacketPool
from repro.net.packet import Packet, transmission_ns
from repro.nfs.base import NetworkFunction
from repro.sim.events import Event
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import MS

_group_ids = itertools.count()

# Bound on the per-flow lookup-plan cache (entries, not bytes).
_PLAN_CACHE_LIMIT = 65536

# DPDK's burst model (§4.1): RX/TX threads and NFs move packets in
# batches of up to 32 descriptors per poll.
DEFAULT_BURST_SIZE = 32

# Bound on the descriptor free list (wrappers, not packets).
_DESC_POOL_LIMIT = 4096

# Smallest RX burst that travels as one PacketBatch; smaller bursts move
# as per-packet descriptors.  Both forms are simulation-identical, so
# this only trades host time: a batch's fixed construction and bulk
# lookup cost pays off once it is spread over enough packets.  Set from
# the threshold sweep in benchmarks/test_ablation_columnar.py.
_BATCH_MIN = 8

# An RX batch follows its rules' default actions, exactly what a batch
# that a no-op NF passed on does.
_RX_VERDICT = Verdict.default()


@dataclasses.dataclass(frozen=True)
class ControlPlanePolicy:
    """Client-side hardening for the manager → SDN controller channel.

    §3 argues hosts must keep making local decisions when the controller
    is slow or unreachable.  With a policy attached, each flow request
    gets a ``timeout_ns`` deadline; on timeout the manager retries with
    capped exponential backoff up to ``max_attempts`` total tries, then
    gives up and degrades (drop or :attr:`NfManager.miss_fallback`)
    instead of blocking the miss queue forever.
    """

    timeout_ns: int = 100 * MS
    max_attempts: int = 3
    backoff_base_ns: int = 10 * MS
    backoff_cap_ns: int = 500 * MS

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < 0:
            raise ValueError("backoff must be non-negative")

    def backoff_ns(self, attempt: int) -> int:
        """Delay before retry number ``attempt + 1`` (0-based, capped)."""
        return min(self.backoff_cap_ns, self.backoff_base_ns * (2 ** attempt))


class NicPort:
    """A NIC port: a bounded RX queue and a line-rate-limited egress.

    The RX queue is bounded like a real NIC descriptor ring: when the RX
    thread falls behind, arriving frames are dropped and counted in
    ``rx_dropped`` — this is what makes "max achievable throughput"
    measurable (Fig. 7).
    """

    def __init__(self, sim: Simulator, name: str,
                 line_rate_gbps: float = 10.0,
                 rx_frames: int = 2048,
                 stats: HostStats | None = None) -> None:
        self.sim = sim
        self.name = name
        self.line_rate_gbps = line_rate_gbps
        self.rx_dropped = 0
        self.link_dropped = 0
        # Host-level stats sink: NIC-tier drops are mirrored here so the
        # manager's summary sees frames it never got to touch.
        self.stats = stats
        self.link_up = True
        self._link_restored: Event | None = None
        # The RX ring recycles its poll events through the kernel free
        # list (its only consumer is the internal RX loop); the egress
        # store is a public sink, so it allocates.
        self.ingress = Store(sim, capacity=rx_frames, recycle=True)
        self.egress = Store(sim)
        self.tx_packets = 0
        self.tx_bytes = 0
        # Optional sink: when set, transmitted packets are delivered to the
        # callback instead of accumulating in the egress store.
        self.on_egress: typing.Callable[[Packet], None] | None = None
        # Wire serialization is a bare timer state machine, not a
        # generator process: transmit() arms it, each frame costs exactly
        # one timer per stage, and the steady-state TX path never touches
        # Event or generator machinery.
        self._tx_backlog: collections.deque[Packet] = collections.deque()
        self._tx_busy = False
        self._tx_ns_cache: dict[int, int] = {}

    def set_link(self, up: bool) -> None:
        """Flip link state (LinkFlap faults).  While down, arriving frames
        are dropped and queued egress frames wait for the link."""
        if up == self.link_up:
            return
        self.link_up = up
        if up:
            restored, self._link_restored = self._link_restored, None
            if restored is not None:
                restored.succeed()
        else:
            self._link_restored = Event(self.sim)

    def transmit(self, packet: Packet) -> None:
        """Queue a frame for transmission (called by TX threads)."""
        if self._tx_busy:
            self._tx_backlog.append(packet)
        else:
            self._tx_busy = True
            self.sim.call_later(0, self._tx_start, packet)

    def _tx_start(self, packet: Packet) -> None:
        """Begin serializing one frame onto the wire at the line rate."""
        if not self.link_up:
            self._link_restored.callbacks.append(
                lambda _event, packet=packet: self._tx_start(packet))
            return
        tx_ns = self._tx_ns_cache.get(packet.size)
        if tx_ns is None:
            tx_ns = transmission_ns(packet.size, self.line_rate_gbps)
            self._tx_ns_cache[packet.size] = tx_ns
        self.sim.call_later(tx_ns, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.size
        if self.on_egress is not None:
            self.on_egress(packet)
            self._tx_next()
        else:
            self.egress.put(packet).callbacks.append(self._tx_after_put)

    def _tx_after_put(self, _event: Event) -> None:
        self._tx_next()

    def _tx_next(self) -> None:
        if self._tx_backlog:
            self.sim.call_later(0, self._tx_start, self._tx_backlog.popleft())
        else:
            self._tx_busy = False

    def receive(self, packet: Packet) -> bool:
        """Deliver an arriving frame into the RX queue (drop when full or
        while the link is down)."""
        if not self.link_up:
            self.link_dropped += 1
            if self.stats is not None:
                self.stats.nic_link_dropped += 1
            if packet._pool is not None:
                packet.free()
            return False
        if self.ingress.try_put(packet):
            return True
        self.rx_dropped += 1
        if self.stats is not None:
            self.stats.nic_rx_dropped += 1
        if packet._pool is not None:
            packet.free()
        return False

    def rx_burst(self, max_n: int) -> list[Packet]:
        """Non-blocking poll: up to ``max_n`` frames already waiting.

        The RX thread blocks for the first frame of a burst, then sweeps
        whatever else has accumulated in the descriptor ring — DPDK's
        ``rte_eth_rx_burst`` shape.
        """
        frames: list[Packet] = []
        while len(frames) < max_n:
            packet = self.ingress.try_get()
            if packet is None:
                break
            frames.append(packet)
        return frames

    def rx_burst_into(self, batch: PacketBatch, max_n: int) -> None:
        """Batch variant of :meth:`rx_burst`: sweep waiting frames
        straight into ``batch`` without building an intermediate list."""
        store = self.ingress
        for _ in range(max_n):
            frame = store.try_get()
            if frame is None:
                break
            batch.append(frame)


#: Sentinel for "this field/annotation key was absent at fan-out time".
_UNSET = object()

#: Header fields the merge journal may snapshot and re-apply.  Matches
#: ``repro.analysis.profiles.MERGEABLE_FIELDS`` (kept literal here so the
#: data plane never imports the analysis package); five-tuple fields are
#: excluded by construction — rewriting the flow key mid-group would
#: change what lookups and balancers see.
_MERGEABLE_FIELDS = ("dscp", "ttl", "payload")


def _read_merge_field(packet: Packet, field: str):
    if field == "payload":
        return packet.payload
    ip = packet.ip
    return _UNSET if ip is None else getattr(ip, field)


def _write_merge_field(packet: Packet, field: str, value) -> None:
    if value is _UNSET:
        return
    if field == "payload":
        packet.payload = value
        return
    ip = packet.ip
    if ip is not None and getattr(ip, field) != value:
        packet.ip = dataclasses.replace(ip, **{field: value})


class _ParallelGroup:
    """Bookkeeping for one packet fanned out to parallel member VMs.

    Legacy groups (read-only fusion, rule-based fan-out) carry no
    ``write_plan`` and behave exactly as before.  Profile-driven groups
    additionally run the *merge stage*: at fan-out the group snapshots
    every field and annotation key any member is allowed to write; as
    each member's handler returns, the VM loop calls :meth:`capture`,
    journaling the fields that member actually changed; the finalizer
    calls :meth:`apply`, replaying the journal in graph order so the
    merged packet's state is deterministic — last graph-order writer
    wins — regardless of the members' execution interleaving.
    """

    def __init__(self, expected: int, exit_scope: str,
                 write_plan: typing.Mapping[
                     str, tuple[tuple[str, ...], tuple[str, ...]]]
                 | None = None,
                 packet: Packet | None = None) -> None:
        self.expected = expected
        self.exit_scope = exit_scope
        self.verdicts: list[tuple[int, Verdict]] = []
        self.write_plan = write_plan
        self._field_snapshot: dict[str, typing.Any] = {}
        self._ann_snapshot: dict[str, typing.Any] = {}
        #: (group_index, kind, name, value) records; kind is "field"/"ann".
        self._journal: list[tuple[int, str, str, typing.Any]] = []
        if write_plan is not None and packet is not None:
            for fields, keys in write_plan.values():
                for field in fields:
                    if field not in self._field_snapshot:
                        self._field_snapshot[field] = (
                            _read_merge_field(packet, field))
                for key in keys:
                    if key not in self._ann_snapshot:
                        self._ann_snapshot[key] = (
                            packet.annotations.get(key, _UNSET))

    def member_done(self, descriptor: PacketDescriptor) -> bool:
        """Record one member's verdict; True when the group is complete."""
        assert descriptor.verdict is not None
        self.verdicts.append((descriptor.vm_priority, descriptor.verdict))
        return len(self.verdicts) >= self.expected

    def member_lost(self) -> bool:
        """A member was dropped before reaching its VM."""
        self.expected -= 1
        return self.expected > 0 and len(self.verdicts) >= self.expected

    def capture(self, service_id: str, group_index: int,
                packet: Packet) -> None:
        """Journal the writes one member just made to the shared packet.

        Called by the VM loop in the same event as the handler, so the
        values read here are exactly what this member left behind.  Only
        fields in the member's declared write set are examined, and only
        values differing from the fan-out snapshot are journaled — a
        member that declared a write but didn't perform it contributes
        nothing (it must not mask an earlier graph-order writer).
        """
        if self.write_plan is None:
            return
        plan = self.write_plan.get(service_id)
        if plan is None:
            return
        fields, keys = plan
        for field in fields:
            value = _read_merge_field(packet, field)
            if value != self._field_snapshot.get(field, _UNSET):
                self._journal.append((group_index, "field", field, value))
        for key in keys:
            value = packet.annotations.get(key, _UNSET)
            if value != self._ann_snapshot.get(key, _UNSET):
                self._journal.append((group_index, "ann", key, value))

    def apply(self, packet: Packet) -> None:
        """Replay the journal in graph order (ascending group index)."""
        if not self._journal:
            return
        for _index, kind, name, value in sorted(
                self._journal, key=lambda record: record[0]):
            if kind == "field":
                _write_merge_field(packet, name, value)
            elif value is _UNSET:
                packet.annotations.pop(name, None)
            else:
                packet.annotations[name] = value


class NfManager:
    """The data plane manager for one SDNFV host."""

    def __init__(self, sim: Simulator, name: str = "host0",
                 costs: HostCosts | None = None,
                 controller: typing.Any | None = None,
                 tx_threads: int = 2,
                 load_balance: LoadBalancePolicy = (
                     LoadBalancePolicy.LEAST_QUEUE),
                 conflict_policy: str = "action_priority",
                 lookup_cache: bool = True,
                 streams: RandomStreams | None = None,
                 control_policy: ControlPlanePolicy | None = None,
                 miss_fallback: Destination | None = None,
                 burst_size: int = DEFAULT_BURST_SIZE,
                 pool_size: int = DEFAULT_POOL_SIZE) -> None:
        if tx_threads < 1:
            raise ValueError("need at least one TX thread")
        if burst_size < 1:
            raise ValueError("burst size must be at least 1")
        if pool_size < 0:
            raise ValueError("pool size must be non-negative")
        self.sim = sim
        self.name = name
        self.costs = costs or HostCosts()
        # How many descriptors each RX poll / VM poll / TX drain moves at
        # once (§4.1's DPDK burst model).  1 degenerates to the strict
        # one-descriptor-per-event pipeline.
        self.burst_size = burst_size
        self.controller = controller
        self.conflict_policy = conflict_policy
        self.lookup_cache = lookup_cache
        # Control-plane hardening: None means wait forever (legacy
        # behaviour); a policy adds timeout + retry + bounded budget.
        self.control_policy = control_policy
        # Where flows go when the control plane cannot answer: None drops
        # them; a Destination (typically the exit port — the service
        # graph's outermost default edge) forwards them unprocessed.
        self.miss_fallback = miss_fallback
        self.streams = streams or RandomStreams(seed=0)
        self.flow_table = FlowTable()
        self.stats = HostStats()
        # The host's rte_mempool analogue: packet generators and sinks
        # allocate/reclaim buffers through it.  0 disables pooling (every
        # packet is a plain heap allocation — the golden-parity baseline).
        self.packet_pool: PacketPool | None = (
            PacketPool(pool_size, stats=self.stats) if pool_size else None)
        # Free list of descriptor wrappers (the mbuf-descriptor analogue):
        # RX allocation and TX/drop retirement recycle through it.
        self._desc_pool: list[PacketDescriptor] = []
        self.ports: dict[str, NicPort] = {}
        # Per-manager VM id mint (see NfVm.__init__): local registration
        # order, never global creation order, names a VM.
        self._vm_ids = itertools.count()
        self.vms_by_service: dict[str, list[NfVm]] = {}
        self._balancers: dict[str, ServiceLoadBalancer] = {}
        self._lb_policy = load_balance
        self._tx_queues = [RingBuffer(sim, name=f"{name}/tx{i}", slots=4096,
                                      stats=self.stats)
                           for i in range(tx_threads)]
        self._vm_tx_assignment: dict[str, RingBuffer] = {}
        self._next_tx = 0
        self._groups: dict[int, _ParallelGroup] = {}
        self._parallel_chains: dict[str, list[str]] = {}
        # Merge plans for profile-driven chains, keyed like the chains
        # (first member): service -> (mergeable fields, annotation keys)
        # that member may write.  Absent for legacy read-only chains.
        self._chain_merge_plans: dict[
            str, dict[str, tuple[tuple[str, ...], tuple[str, ...]]]] = {}
        self._plans: dict[FiveTuple, dict] = {}
        # Miss classifier (§4.1 hybrid pipeline): flows whose first
        # contact with this host has been classified as proactive-hit /
        # reactive-hit / reactive-miss.  A dict used as an insertion-
        # ordered set so eviction matches the plan cache's FIFO idiom.
        self._classified: dict[FiveTuple, None] = {}
        self._fc_queue = Store(sim, recycle=True)
        self._pending_flows: dict[tuple[str, FiveTuple],
                                  list[PacketDescriptor]] = {}
        self._mgmt_queue = Store(sim, recycle=True)
        self.policy_validator: typing.Any | None = None
        self.message_handlers: dict[
            str, typing.Callable[[UserMessage], None]] = {}
        # Where UserMessages without a local handler go — the SDNFV
        # Application attaches itself here (Fig. 2 step 5).
        self.user_message_sink: typing.Callable[
            [str, UserMessage], None] | None = None
        self.uninterpreted_messages: list[UserMessage] = []
        self.rejected_messages = 0
        # Optional structured observability (repro.metrics.eventlog).
        self.event_log: typing.Any | None = None
        for queue in self._tx_queues:
            sim.process(self._tx_loop(queue))
        sim.process(self._fc_loop())
        sim.process(self._mgmt_loop())

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_port(self, name: str, line_rate_gbps: float = 10.0) -> NicPort:
        """Attach a NIC port and start its RX thread."""
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r}")
        port = NicPort(self.sim, name, line_rate_gbps, stats=self.stats)
        self.ports[name] = port
        self.sim.process(self._rx_loop(port))
        return port

    def register_vm(self, nf: NetworkFunction, ring_slots: int = 512,
                    priority: int = 0) -> NfVm:
        """The §3.3 handshake: a VM advertises its Service ID (and whether
        it is read-only) and gets its communication channels set up."""
        vm = NfVm(self, nf, ring_slots=ring_slots, priority=priority)
        self._check_parallel_membership(vm)
        self.vms_by_service.setdefault(vm.service_id, []).append(vm)
        self._balancers.setdefault(vm.service_id,
                                   ServiceLoadBalancer(self._lb_policy))
        self._vm_tx_assignment[vm.vm_id] = (
            self._tx_queues[self._next_tx % len(self._tx_queues)])
        self._next_tx += 1
        vm.start()
        if self.event_log is not None:
            self.event_log.record("vm_register", host=self.name,
                                  service=vm.service_id, vm=vm.vm_id,
                                  read_only=vm.read_only)
        return vm

    def unregister_vm(self, vm: NfVm) -> None:
        """Remove a VM from load balancing (it stops receiving packets)."""
        replicas = self.vms_by_service.get(vm.service_id, [])
        if vm in replicas:
            replicas.remove(vm)

    # ------------------------------------------------------------------
    # Failure handling (§3.1: "respond to failure or overload")
    # ------------------------------------------------------------------
    def fail_vm(self, vm: NfVm, cause: str = "crash") -> dict[str, int]:
        """Take a dead or wedged VM out of service and salvage its queue.

        The VM is unregistered, its thread killed (idempotent), and every
        descriptor still in its RX ring is re-dispatched: to a surviving
        replica when one exists, else along the dead service's own default
        edge (graceful degradation), else dropped with a count.  Returns
        the salvage accounting.
        """
        service = vm.service_id
        self.unregister_vm(vm)
        # Salvage order matters: the batch the VM already dequeued (but
        # had not processed) is older than anything still in its ring.
        # Batches salvage as rematerialized descriptors so the
        # requeue/degrade/drop accounting below stays per-packet.
        drained: list[PacketDescriptor] = []
        for item in vm.take_pending_batch() + vm.rx_ring.drain():
            if item.__class__ is PacketBatch:
                drained.extend(descriptor for descriptor, _entry
                               in self._explode_batch(item))
            else:
                drained.append(item)
        vm.crash(cause)
        self.stats.failed_vms += 1
        survivors = self.vms_by_service.get(service, ())
        requeued = degraded = lost = 0
        for descriptor in drained:
            if survivors:
                self.stats.requeued_packets += 1
                requeued += 1
                self._route(descriptor, ToService(service))
            elif self._bypass_dead_service(descriptor, service):
                degraded += 1
            else:
                lost += 1
                self._drop(descriptor, "dropped_no_vm")
        if self.event_log is not None:
            self.event_log.record("nf_failure", host=self.name,
                                  service=service, vm=vm.vm_id, cause=cause,
                                  requeued=requeued, degraded=degraded,
                                  lost=lost)
        return {"requeued": requeued, "degraded": degraded, "lost": lost}

    def _bypass_dead_service(self, descriptor: PacketDescriptor,
                             service: str) -> bool:
        """Route a descriptor as if ``service`` had returned Default —
        the service graph's default edge is the fallback path."""
        entry = self.flow_table.lookup(service, descriptor.packet.flow,
                                       now_ns=self.sim.now)
        if entry is None or entry.default_action == ToService(service):
            return False
        self.stats.degraded_packets += 1
        descriptor.scope = service
        self._follow_entry(descriptor, entry, entry.default_action)
        return True

    def quarantine_service(self, service: str
                           ) -> list[FlowTableEntry] | None:
        """Reroute traffic around a service with no live VMs.

        Every rule whose *default* leads to ``service`` is rewritten to the
        service's own default edge, so flows degrade gracefully instead of
        blackholing while a replacement boots.  Returns the displaced
        rules so :meth:`restore_service` can reinstate them — entries
        pointing at the dead service are rewritten, not leaked.
        """
        bypass = ToService(service)
        fallback = self._scope_default(service, FlowMatch.any())
        if fallback is None or fallback == bypass:
            return None
        displaced: list[FlowTableEntry] = []
        for scope in list(self.flow_table.scopes()):
            if scope == service:
                continue
            for entry in list(self.flow_table.entries(scope)):
                if entry.parallel:
                    continue  # fan-out groups lose the member, not the flow
                if entry.default_action == bypass:
                    displaced.append(entry)
                    self.install_rule(entry.with_default(fallback))
        if self.event_log is not None:
            self.event_log.record("service_quarantined", host=self.name,
                                  service=service, rewritten=len(displaced),
                                  fallback=str(fallback))
        return displaced

    def restore_service(self, service: str,
                        displaced: typing.Iterable[FlowTableEntry]) -> None:
        """Reinstate rules displaced by :meth:`quarantine_service` once a
        replacement VM is serving again."""
        count = 0
        for entry in displaced:
            self.install_rule(entry)
            count += 1
        if self.event_log is not None:
            self.event_log.record("service_restored", host=self.name,
                                  service=service, reinstated=count)

    def install_rule(self, entry: FlowTableEntry) -> None:
        """Install a flow rule, enforcing the read-only parallel rule."""
        if entry.parallel:
            self._validate_parallel_rule(entry)
        entry.installed_at_ns = self.sim.now
        entry.last_hit_ns = self.sim.now
        self.flow_table.install(entry)
        if self.event_log is not None:
            self.event_log.record("rule_install", host=self.name,
                                  scope=entry.scope,
                                  default=str(entry.default_action))

    def start_rule_expiry(self, interval_ns: int) -> None:
        """Periodically evict rules whose idle/hard timeouts elapsed.

        Keeps per-flow rule state bounded under flow churn (the concern
        behind §3.4's discussion of pre-populated wildcard rules and
        flow-table size).
        """
        if interval_ns <= 0:
            raise ValueError("expiry interval must be positive")
        self.sim.process(self._expiry_loop(interval_ns))

    def _expiry_loop(self, interval_ns: int):
        while True:
            yield self.sim.sleep(interval_ns)
            self.flow_table.expire(self.sim.now)

    def register_parallel_chain(
            self, services: typing.Sequence[str],
            profiles: typing.Mapping[str, typing.Any] | None = None,
    ) -> None:
        """Fuse a run of adjacent services into a parallel group.

        §3.3: when an NF registers as read-only, the manager "uses this
        information to determine if the service can be run in parallel with
        any adjacent NFs in the service graph".  After registration, any
        packet routed to ``services[0]`` is fanned out to every member at
        once; the merged verdict continues from the last member's rules.

        Without ``profiles`` (the legacy path) every member's VM must be
        declared read-only.  With ``profiles`` — a mapping of service id
        to its :class:`~repro.analysis.profiles.ActionProfile` — members
        may *write* as long as the profiles are pairwise conflict-free
        (this is what ``SdnfvApp.deploy(auto_parallel=True)`` registers);
        the group then runs the merge stage, journaling each member's
        writes and replaying them in graph order at finalization.
        Conflicting profiles are rejected here at registration, the same
        condition lint rule NF003 flags statically.
        """
        if len(services) < 2:
            raise ValueError("a parallel chain needs >= 2 services")
        if profiles is None:
            for service_id in services:
                for vm in self.vms_by_service.get(service_id, ()):
                    if not vm.read_only:
                        raise ValueError(
                            f"service {service_id!r} has a non-read-only "
                            "VM; cannot run in parallel")
            self._parallel_chains[services[0]] = list(services)
            return
        # Off the packet path: validate with the analysis package (the
        # data plane itself stays analysis-free; see host.py's verifier
        # import for the same pattern).
        from repro.analysis.profiles import chain_conflicts
        missing = [service for service in services
                   if service not in profiles]
        if missing:
            raise ValueError(f"no action profile for {missing!r}")
        ordered = [profiles[service] for service in services]
        issues = chain_conflicts(ordered)
        if issues:
            raise ValueError(
                f"parallel chain {list(services)!r} has conflicting "
                f"profiles: {'; '.join(issues)}")
        plan = {
            service: (
                tuple(field for field in _MERGEABLE_FIELDS
                      if field in profile.writes),
                tuple(sorted(profile.annotations_written)),
            )
            for service, profile in zip(services, ordered)
        }
        self._parallel_chains[services[0]] = list(services)
        if any(fields or keys for fields, keys in plan.values()):
            self._chain_merge_plans[services[0]] = plan

    def set_load_balance_policy(self, policy: LoadBalancePolicy) -> None:
        self._lb_policy = policy
        for balancer in self._balancers.values():
            balancer.policy = policy

    def _validate_parallel_rule(self, entry: FlowTableEntry) -> None:
        for action in entry.actions:
            assert isinstance(action, ToService)
            for vm in self.vms_by_service.get(action.service_id, ()):
                if not vm.read_only:
                    raise ValueError(
                        f"parallel rule includes non-read-only service "
                        f"{action.service_id!r}")

    def _check_parallel_membership(self, vm: NfVm) -> None:
        if vm.read_only:
            return
        for entry in self.flow_table.entries():
            if entry.parallel and ToService(vm.service_id) in entry.actions:
                raise ValueError(
                    f"service {vm.service_id!r} appears in a parallel rule "
                    "but the registering VM is not read-only")

    # ------------------------------------------------------------------
    # Introspection (host-tier state for the hierarchy)
    # ------------------------------------------------------------------
    def service_queue_depths(self) -> dict[str, int]:
        """Occupied ring slots per service (host-specific internal state)."""
        return {service: sum(vm.rx_ring.occupancy for vm in vms)
                for service, vms in self.vms_by_service.items()}

    def start_overload_monitor(
            self, interval_ns: int, threshold_slots: int,
            callback: typing.Callable[[str, int], None],
            consecutive: int = 3) -> None:
        """Watch per-service queue depths and report sustained overload.

        §3.1: NF Managers "track load levels of NFs for load balancing
        and respond to failure or overload".  When a service's total ring
        occupancy stays above ``threshold_slots`` for ``consecutive``
        samples, ``callback(service_id, depth)`` fires once; it re-arms
        after the service drains below half the threshold.
        """
        if interval_ns <= 0 or threshold_slots <= 0 or consecutive <= 0:
            raise ValueError("monitor parameters must be positive")
        self.sim.process(self._overload_loop(
            interval_ns, threshold_slots, callback, consecutive))

    def _overload_loop(self, interval_ns, threshold_slots, callback,
                       consecutive):
        breaches: dict[str, int] = {}
        alarmed: set[str] = set()
        while True:
            yield self.sim.sleep(interval_ns)
            for service, depth in self.service_queue_depths().items():
                if depth > threshold_slots:
                    breaches[service] = breaches.get(service, 0) + 1
                    if (breaches[service] >= consecutive
                            and service not in alarmed):
                        alarmed.add(service)
                        callback(service, depth)
                else:
                    breaches[service] = 0
                    if depth < threshold_slots // 2:
                        alarmed.discard(service)

    def services(self) -> list[str]:
        return list(self.vms_by_service)

    # ------------------------------------------------------------------
    # Descriptor free list
    # ------------------------------------------------------------------
    def _desc_alloc(self, packet: Packet, scope: str,
                    ingress_at: int) -> PacketDescriptor:
        """A descriptor wrapper, recycled from the free list when possible."""
        pool = self._desc_pool
        if pool:
            return pool.pop().reset(packet, scope, ingress_at)
        return PacketDescriptor(packet=packet, scope=scope,
                                ingress_at=ingress_at)

    def _desc_free(self, descriptor: PacketDescriptor) -> None:
        """Retire a descriptor nobody references anymore."""
        if len(self._desc_pool) < _DESC_POOL_LIMIT:
            descriptor.packet = None  # type: ignore[assignment]
            descriptor.verdict = None
            descriptor.cached_entry = None
            self._desc_pool.append(descriptor)

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------
    def _rx_loop(self, port: NicPort):
        """One RX thread: burst-poll the NIC ring, classify, dispatch.

        The thread blocks for the first frame, sweeps up to
        ``burst_size - 1`` more that already arrived, then moves the
        whole burst through classify → dispatch with one thread-occupancy
        charge, resolving the flow-table lookup plan once per (flow,
        burst).  A burst of at least ``_BATCH_MIN`` frames travels as one
        :class:`PacketBatch` (bulk lookup per distinct flow, one ring
        enqueue when its flows agree on a single-replica service); a
        smaller one as per-packet descriptors.  Both forms charge the
        same costs at the same instants.  At ``burst_size=1`` the event
        sequence is exactly the one-descriptor-per-event pipeline.
        """
        costs = self.costs
        stats = self.stats
        ingress = port.ingress
        while True:
            packet: Packet = yield ingress.get()
            count = 1 + min(self.burst_size - 1, len(ingress.items))
            stats.record_rx_batch(count)
            burst_plans: dict = {}
            if count >= _BATCH_MIN:
                batch = PacketBatch(port.name, self.sim.now)
                batch.append(packet)
                port.rx_burst_into(batch, count - 1)
                stats.record_rx_bulk(count, batch.total_bytes)
                entries, lookup_cost = self._classify_flows(
                    port.name, batch.distinct_flows(), burst_plans)
                yield self.sim.sleep(costs.rx_burst_work_ns(count)
                                     + lookup_cost)
                batch.verdict = _RX_VERDICT
                extra = self._resolve_batch(batch, entries)
            else:
                frames = [packet]
                if count > 1:
                    frames.extend(port.rx_burst(count - 1))
                now = self.sim.now
                work = costs.rx_batch_poll_ns
                classified: list[tuple[PacketDescriptor,
                                       FlowTableEntry | None]] = []
                for frame in frames:
                    stats.record_rx(frame.size)
                    descriptor = self._desc_alloc(frame, port.name, now)
                    entry, lookup_cost = self._classify_in_burst(
                        descriptor, burst_plans)
                    work += costs.rx_service_ns + lookup_cost
                    classified.append((descriptor, entry))
                yield self.sim.sleep(work)
                extra = 0
                for descriptor, entry in classified:
                    if entry is None:
                        self._fc_queue.try_put(descriptor)
                        continue
                    extra += self._follow_entry(descriptor, entry,
                                                entry.default_action)
            if extra:
                yield self.sim.sleep(extra)

    def _classify_in_burst(self, descriptor: PacketDescriptor,
                           burst_plans: dict
                           ) -> tuple[FlowTableEntry | None, int]:
        """Classify against a per-burst plan: each distinct (scope, flow)
        in a burst pays for at most one table lookup; later packets of
        the same flow reuse the resolved entry for free."""
        key = (descriptor.scope, descriptor.packet.flow)
        if key in burst_plans:
            entry = burst_plans[key]
            if entry is not None:
                descriptor.cache_lookup(entry, self.flow_table.generation)
            return entry, 0
        entry, cost = self._classify(descriptor)
        burst_plans[key] = entry
        return entry, cost

    def _classify(self,
                  descriptor: PacketDescriptor
                  ) -> tuple[FlowTableEntry | None, int]:
        """Find the rule for the descriptor's (scope, flow).

        Returns (entry, service_cost_ns).  With the descriptor lookup cache
        enabled (§4.2), hits on the per-flow plan are free; otherwise each
        hop pays header extraction + a hash lookup.
        """
        flow = descriptor.packet.flow
        generation = self.flow_table.generation
        if self.lookup_cache:
            plan = self._plans.get(flow)
            if plan is not None and plan["generation"] == generation:
                cached = plan["entries"].get(descriptor.scope)
                if cached is not None:
                    descriptor.cache_lookup(cached, generation)
                    return cached, 0
            elif plan is not None:
                del self._plans[flow]
        cost = self.costs.header_extract_ns + self.costs.flow_lookup_ns
        entry = self.flow_table.lookup(descriptor.scope, flow,
                                       now_ns=self.sim.now)
        if entry is not None:
            self._remember_plan(flow, descriptor.scope, entry, generation)
            descriptor.cache_lookup(entry, generation)
        return entry, cost

    def _remember_plan(self, flow: FiveTuple, scope: str,
                       entry: FlowTableEntry, generation: int) -> None:
        """A lookup hit: classify the flow's first contact and fill its
        per-flow plan (FIFO eviction at the cache bound)."""
        if flow not in self._classified:
            self._classify_first_contact(flow, entry)
        if not self.lookup_cache:
            return
        if len(self._plans) >= _PLAN_CACHE_LIMIT:
            self._plans.pop(next(iter(self._plans)))
        plan = self._plans.setdefault(
            flow, {"generation": generation, "entries": {}})
        if plan["generation"] != generation:
            plan["generation"] = generation
            plan["entries"] = {}
        plan["entries"][scope] = entry

    def _classify_first_contact(self, flow: FiveTuple,
                                entry: FlowTableEntry | None) -> None:
        """Classify a flow's first contact with this host exactly once:
        it either hit a pre-populated rule (proactive), hit a rule an
        earlier miss pulled in (reactive hit), or missed and took the
        controller slow path (reactive miss).  The reactive-miss-rate
        metric is ``reactive_misses / flow_setups`` over these three."""
        if len(self._classified) >= _PLAN_CACHE_LIMIT:
            self._classified.pop(next(iter(self._classified)))
        self._classified[flow] = None
        if entry is None:
            self.stats.reactive_misses += 1
        elif entry.proactive:
            self.stats.proactive_hits += 1
        else:
            self.stats.reactive_hits += 1

    def _classify_flows(self, scope: str,
                        flows: typing.Sequence[FiveTuple],
                        burst_plans: dict
                        ) -> tuple[dict, int]:
        """Resolve a batch's distinct flows against one scope in bulk.

        The batch analogue of per-descriptor :meth:`_classify_in_burst`
        calls: burst-plan and per-flow plan-cache hits are free, the
        remaining flows go through :meth:`FlowTable.lookup_batch` in one
        round, and every cache side effect (stale-plan invalidation,
        first-contact classification, plan fill with FIFO eviction)
        happens per flow in arrival order — exactly the descriptor
        path's mutation sequence.  Returns ``(entries, cost_ns)``.
        """
        entries: dict = {}
        generation = self.flow_table.generation
        need: list[FiveTuple] = []
        hits = 0
        for flow in flows:
            key = (scope, flow)
            if key in burst_plans:
                entries[flow] = burst_plans[key]
                hits += 1
                continue
            if self.lookup_cache:
                plan = self._plans.get(flow)
                if plan is not None and plan["generation"] == generation:
                    cached = plan["entries"].get(scope)
                    if cached is not None:
                        burst_plans[key] = cached
                        entries[flow] = cached
                        hits += 1
                        continue
            need.append(flow)
        cost = 0
        if need:
            self.stats.lookup_batches += 1
            cost = ((self.costs.header_extract_ns
                     + self.costs.flow_lookup_ns) * len(need))
            results = self.flow_table.lookup_batch(scope, need,
                                                   now_ns=self.sim.now)
            for flow, entry in zip(need, results):
                if self.lookup_cache:
                    plan = self._plans.get(flow)
                    if plan is not None and plan["generation"] != generation:
                        del self._plans[flow]
                if entry is not None:
                    self._remember_plan(flow, scope, entry, generation)
                burst_plans[(scope, flow)] = entry
                entries[flow] = entry
        self.stats.lookup_batch_hits += hits
        return entries, cost

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _follow_entry(self, descriptor: PacketDescriptor,
                      entry: FlowTableEntry,
                      destination: Destination) -> int:
        """Dispatch a descriptor along ``destination`` under ``entry``.

        Returns the extra service cost (fan-out copies, queue scans) the
        calling thread must charge.
        """
        if entry.parallel and destination == entry.default_action:
            return self._fan_out(descriptor, entry)
        return self._route(descriptor, destination)

    def _route(self, descriptor: PacketDescriptor,
               destination: Destination) -> int:
        if isinstance(destination, Drop):
            self._drop(descriptor, "dropped_by_nf")
            return 0
        if isinstance(destination, ToPort):
            self._egress(descriptor, destination.port)
            return 0
        assert isinstance(destination, ToService)
        if self._parallel_chains and descriptor.group_id is None:
            chain = self._parallel_chains.get(destination.service_id)
            if chain is not None:
                return self._fan_out_members(
                    descriptor, chain,
                    plan=self._chain_merge_plans.get(
                        destination.service_id))
        replicas = self.vms_by_service.get(destination.service_id, ())
        if not replicas:
            self.stats.dropped_no_vm += 1
            if not self._group_member_lost(descriptor):
                self._release(descriptor.packet)
            self._desc_free(descriptor)
            return 0
        balancer = self._balancers[destination.service_id]
        vm, scan_cost = balancer.choose(replicas, descriptor.packet.flow)
        self.stats.record_service(destination.service_id)
        if not vm.rx_ring.try_enqueue(descriptor):
            self.stats.dropped_ring_full += 1
            if not self._group_member_lost(descriptor):
                self._release(descriptor.packet)
            self._desc_free(descriptor)
        return scan_cost

    def _fan_out(self, descriptor: PacketDescriptor,
                 entry: FlowTableEntry) -> int:
        """Copy a descriptor to every VM in a parallel action list."""
        members = [action.service_id for action in entry.actions
                   if isinstance(action, ToService)]
        return self._fan_out_members(descriptor, members)

    def _fan_out_members(self, descriptor: PacketDescriptor,
                         members: typing.Sequence[str],
                         plan: typing.Mapping[
                             str, tuple[tuple[str, ...], tuple[str, ...]]]
                         | None = None) -> int:
        group_id = next(_group_ids)
        group = _ParallelGroup(expected=len(members),
                               exit_scope=members[-1],
                               write_plan=plan, packet=descriptor.packet)
        self._groups[group_id] = group
        self.stats.parallel_groups += 1
        packet = descriptor.packet
        packet.add_reference(len(members) - 1)
        cost = self.costs.parallel_fanout_ns * (len(members) - 1)
        for index, service_id in enumerate(members):
            member = self._desc_alloc(packet, service_id,
                                      descriptor.ingress_at)
            member.group_id = group_id
            member.group_index = index
            member.cached_entry = descriptor.cached_entry
            member.cached_generation = descriptor.cached_generation
            replicas = self.vms_by_service.get(service_id, ())
            if not replicas:
                self.stats.dropped_no_vm += 1
                self._release(packet)
                self._desc_free(member)
                group.member_lost()
                continue
            balancer = self._balancers[service_id]
            vm, scan_cost = balancer.choose(replicas, packet.flow)
            cost += scan_cost
            self.stats.record_service(service_id)
            if not vm.rx_ring.try_enqueue(member):
                self.stats.dropped_ring_full += 1
                self._release(packet)
                self._desc_free(member)
                group.member_lost()
        if group.expected <= 0:
            del self._groups[group_id]
        # The template descriptor's reference now lives in the members.
        self._desc_free(descriptor)
        return cost

    # ------------------------------------------------------------------
    # Dispatch, batch form
    # ------------------------------------------------------------------
    def _bulk_service_ok(self, service_id: str) -> bool:
        """A batch may move to this service without per-packet decisions:
        exactly one replica (the balancer is then a constant) and no
        parallel chain registered for it."""
        if self._parallel_chains and service_id in self._parallel_chains:
            return False
        return len(self.vms_by_service.get(service_id, ())) == 1

    def _dispatch_batch_to_service(self, batch: PacketBatch,
                                   service_id: str) -> int:
        """Move a whole batch to a single-replica service's RX ring.

        Accounting is identical to ``batch.count`` object dispatches:
        one balancer decision and one service count per packet, ring
        overflow drops the FIFO tail packet-by-packet.
        """
        vm = self.vms_by_service[service_id][0]
        n = batch.count
        # choose() with one replica is decisions += 1, scan cost 0.
        self._balancers[service_id].decisions += n
        self.stats.per_service_packets[service_id] += n
        accepted = vm.rx_ring.enqueue_batch(batch)
        if accepted < n:
            # enqueue_batch left the rejected tail in ``batch``.
            self.stats.dropped_ring_full += n - accepted
            for packet in batch.packets:
                self._release(packet)
        return 0

    def _explode_batch(self, batch: PacketBatch, entries: dict | None = None
                       ) -> list[tuple[PacketDescriptor,
                                       FlowTableEntry | None]]:
        """Rematerialize a batch into per-packet descriptors (slow path).

        The fallback boundary of the batch path: every packet gets a
        descriptor carrying the batch's scalar verdict/priority plus its
        flow's cached lookup, and ``object_fallbacks`` counts the
        rematerializations.
        """
        self.stats.object_fallbacks += batch.count
        generation = self.flow_table.generation
        scope = batch.scope
        verdict = batch.verdict
        ingress_at = batch.ingress_at
        vm_priority = batch.vm_priority
        out: list[tuple[PacketDescriptor, FlowTableEntry | None]] = []
        for packet in batch.packets:
            descriptor = self._desc_alloc(packet, scope, ingress_at)
            descriptor.verdict = verdict
            descriptor.vm_priority = vm_priority
            entry = entries.get(packet.flow) if entries is not None else None
            if entry is not None:
                descriptor.cache_lookup(entry, generation)
            out.append((descriptor, entry))
        return out

    # ------------------------------------------------------------------
    # TX path
    # ------------------------------------------------------------------
    def tx_submit_burst(self, items: typing.Sequence[typing.Any],
                        vm: NfVm) -> None:
        """Hand a VM's completed burst (descriptors and batches) to its
        TX thread in one shot; the queue counts capacity in packets."""
        queue = self._vm_tx_assignment[vm.vm_id]
        accepted = queue.enqueue_burst(items)
        # enqueue_burst left a straddling batch's rejected tail in place.
        for item in items[accepted:]:
            if item.__class__ is PacketBatch:
                self.stats.dropped_ring_full += item.count
                for packet in item.packets:
                    self._release(packet)
            else:
                self._drop(item, "dropped_ring_full")

    def _tx_loop(self, queue: RingBuffer):
        """One TX thread: burst-drain completed items, resolve.

        Mirrors the RX side: block for the head item, sweep the rest of
        the burst (``burst_size`` packets, a batch weighing its packet
        count), then charge drain + per-packet resolution once,
        absorbing parallel-group members and re-resolving lookup plans
        once per (flow, burst).  Batches resolve in bulk when their
        flows agree.  ``burst_size=1`` reproduces the one-descriptor
        event sequence exactly (including the unconditional merge delay
        after a group completes).
        """
        costs = self.costs
        while True:
            head = yield queue.get()
            items = [head]
            weight = head.count if head.__class__ is PacketBatch else 1
            items.extend(queue.dequeue_packets(self.burst_size - weight))
            weight = len(items)
            batches = 0
            for item in items:
                if item.__class__ is PacketBatch:
                    weight += item.count - 1
                    batches += 1
            self.stats.record_tx_batch(weight)
            if batches > 1:
                # One drain charge covered several batches' packets.
                self.stats.batch_merges += batches - 1
            yield self.sim.sleep(costs.tx_burst_work_ns(weight))
            merged_any = False
            merge_cost = 0
            survivors: list = []
            for item in items:
                # Batches never carry parallel-group members.
                if (item.__class__ is not PacketBatch
                        and item.group_id is not None):
                    merged = self._absorb_group_member(item)
                    if merged is None:
                        continue
                    item, member_count = merged
                    merged_any = True
                    merge_cost += (costs.parallel_merge_ns
                                   * max(0, member_count - 1))
                survivors.append(item)
            if merged_any:
                yield self.sim.sleep(merge_cost)
            burst_plans: dict = {}
            lookup_total = 0
            resolved: list = []
            for item in survivors:
                if item.__class__ is PacketBatch:
                    entries, lookup_cost = self._classify_flows(
                        item.scope, item.distinct_flows(), burst_plans)
                    resolved.append((item, entries))
                else:
                    assert item.verdict is not None
                    entry, lookup_cost = self._classify_in_burst(
                        item, burst_plans)
                    resolved.append((item, entry))
                lookup_total += lookup_cost
            if lookup_total:
                yield self.sim.sleep(lookup_total)
            extra = 0
            for item, entry in resolved:
                if item.__class__ is PacketBatch:
                    extra += self._resolve_batch(item, entry)
                else:
                    extra += self._resolve_verdict(item, entry)
            if extra:
                yield self.sim.sleep(extra)

    def _resolve_batch(self, batch: PacketBatch, entries: dict) -> int:
        """Resolve a whole batch's scalar verdict against its flows' rules.

        Bulk paths: a discard verdict, or every flow agreeing on one
        destination that is a known port, a bulk-eligible service, or a
        drop.  Anything else — a miss, a parallel rule, a multi-replica
        service, mixed destinations, a Send-to that any flow's rule
        disallows — rematerializes descriptors and resolves them one by
        one, so per-packet accounting runs unchanged.  Returns the extra
        service cost to charge, exactly as the descriptor loop would.
        """
        verdict = batch.verdict
        assert verdict is not None
        if verdict.kind is NfVerdict.DISCARD:
            self.stats.dropped_by_nf += batch.count
            for packet in batch.packets:
                self._release(packet)
            return 0
        destination: Destination | None = None
        bulk = True
        for entry in entries.values():
            if entry is None:
                bulk = False
                break
            if verdict.kind is NfVerdict.SEND:
                flow_dest = verdict.destination
                assert flow_dest is not None
                if not entry.allows(flow_dest):
                    bulk = False
                    break
            else:
                flow_dest = entry.default_action
            if entry.parallel and flow_dest == entry.default_action:
                bulk = False
                break
            if destination is None:
                destination = flow_dest
            elif flow_dest != destination:
                bulk = False
                break
        if bulk and destination is not None:
            if isinstance(destination, ToPort):
                port = self.ports.get(destination.port)
                if port is not None:
                    self._egress_batch(batch, destination.port, port)
                    return 0
            elif isinstance(destination, Drop):
                self.stats.dropped_by_nf += batch.count
                for packet in batch.packets:
                    self._release(packet)
                return 0
            elif (isinstance(destination, ToService)
                  and self._bulk_service_ok(destination.service_id)):
                return self._dispatch_batch_to_service(
                    batch, destination.service_id)
        extra = 0
        for descriptor, entry in self._explode_batch(batch, entries):
            extra += self._resolve_verdict(descriptor, entry)
        return extra

    def _egress_batch(self, batch: PacketBatch, port_name: str,
                      port: NicPort) -> None:
        """Transmit a whole batch out one port: one stats update, then
        the per-packet release/transmit interleaving the wire's timer
        cascade depends on."""
        self.stats.record_tx_bulk(port_name, batch.count, batch.total_bytes)
        for packet in batch.packets:
            packet.release()
            port.transmit(packet)

    def _capture_group_writes(self, descriptor: PacketDescriptor) -> None:
        """Journal a parallel member's packet writes (merge stage).

        Called by the VM loop in the same event as the member's handler,
        immediately after it returns.  No-op for legacy groups (no write
        plan) and for members whose profile declares no writes.
        """
        group = self._groups.get(descriptor.group_id)
        if group is not None and group.write_plan is not None:
            group.capture(descriptor.scope, descriptor.group_index,
                          descriptor.packet)

    def _absorb_group_member(
            self, descriptor: PacketDescriptor
    ) -> tuple[PacketDescriptor, int] | None:
        """Fold one parallel member in; emit the merged descriptor when all
        members have reported."""
        group = self._groups.get(descriptor.group_id)
        if group is None:  # group finalized by member loss accounting
            self._release(descriptor.packet)
            self._desc_free(descriptor)
            return None
        if not group.member_done(descriptor):
            self._release(descriptor.packet)
            self._desc_free(descriptor)
            return None
        del self._groups[descriptor.group_id]
        group.apply(descriptor.packet)
        verdict = resolve_parallel_verdicts(group.verdicts,
                                            policy=self.conflict_policy)
        merged = self._desc_alloc(descriptor.packet, group.exit_scope,
                                  descriptor.ingress_at)
        merged.verdict = verdict
        count = len(group.verdicts)
        self._desc_free(descriptor)
        return merged, count

    def _group_member_lost(self, descriptor: PacketDescriptor) -> bool:
        """Account for a parallel-group member dying after dispatch.

        Every post-dispatch loss path (TX ring overflow, a drop verdict,
        a VM crash with the member in flight) must run group bookkeeping,
        or the group can never complete: its ``_groups`` entry leaks and
        — worse — the surviving members' verdicts are thrown away even
        though their NFs processed the packet successfully.

        When the lost member was the *last* straggler (every survivor
        already reported), the group is finalized here, and the merged
        descriptor reuses the lost member's packet reference — by this
        point the survivors have all dropped theirs, so releasing it
        instead would hand the merge a reclaimed buffer.  Returns True
        exactly when that reference was consumed; the caller must then
        skip its own release.
        """
        group_id = descriptor.group_id
        if group_id is None:
            return False
        group = self._groups.get(group_id)
        if group is None:
            return False
        if group.member_lost():
            del self._groups[group_id]
            group.apply(descriptor.packet)
            verdict = resolve_parallel_verdicts(
                group.verdicts, policy=self.conflict_policy)
            merged = self._desc_alloc(descriptor.packet, group.exit_scope,
                                      descriptor.ingress_at)
            merged.verdict = verdict
            entry, _cost = self._classify(merged)
            self._resolve_verdict(merged, entry)
            return True
        if group.expected <= 0:
            # Every member died before any verdict: nothing to merge.
            del self._groups[group_id]
        return False

    def _resolve_verdict(self, descriptor: PacketDescriptor,
                         entry: FlowTableEntry | None) -> int:
        verdict = descriptor.verdict
        assert verdict is not None
        if verdict.kind is NfVerdict.DISCARD:
            self._drop(descriptor, "dropped_by_nf")
            return 0
        if entry is None:
            # Mid-chain miss: ask the control plane like any other miss.
            self._fc_queue.try_put(descriptor)
            return 0
        if verdict.kind is NfVerdict.SEND:
            destination = verdict.destination
            assert destination is not None
            if not entry.allows(destination):
                # §3.4: Send-to "is only permitted if the destination is one
                # of the allowable next hops listed in the flow table".
                self.stats.policy_violations += 1
                destination = entry.default_action
            return self._follow_entry(descriptor, entry, destination)
        return self._follow_entry(descriptor, entry, entry.default_action)

    # ------------------------------------------------------------------
    # Flow Controller thread (SDN miss path, §4.1)
    # ------------------------------------------------------------------
    def _fc_loop(self):
        while True:
            descriptor: PacketDescriptor = yield self._fc_queue.get()
            key = (descriptor.scope, descriptor.packet.flow)
            if key in self._pending_flows:
                self._pending_flows[key].append(descriptor)
                continue
            self._pending_flows[key] = [descriptor]
            if descriptor.packet.flow not in self._classified:
                self._classify_first_contact(descriptor.packet.flow, None)
            self.stats.sdn_requests += 1
            if self.event_log is not None:
                self.event_log.record("sdn_request", host=self.name,
                                      scope=descriptor.scope,
                                      flow=str(descriptor.packet.flow))
            # Resolve each flow in its own process so one slow controller
            # round trip doesn't head-of-line-block other misses.
            self.sim.process(self._resolve_miss(key))

    def _resolve_miss(self, key: tuple[str, FiveTuple]):
        scope, flow = key
        if self.controller is None:
            for descriptor in self._pending_flows.pop(key):
                self._drop(descriptor, "dropped_no_rule")
            return
        rules = yield from self._request_rules(scope, flow)
        if rules is None:
            # Control plane unreachable (or its app failed the request):
            # degrade instead of blocking — the data plane stays alive.
            self._degrade_pending(key)
            return
        for rule in rules:
            self.install_rule(rule)
        buffered = self._pending_flows.pop(key)
        for descriptor in buffered:
            entry, _cost = self._classify(descriptor)
            if entry is None:
                self._drop(descriptor, "dropped_no_rule")
            else:
                self._follow_entry(descriptor, entry, entry.default_action)

    def _request_rules(self, scope: str, flow: FiveTuple):
        """Ask the controller for rules; None means giving up.

        Without a :class:`ControlPlanePolicy` this is a single request
        that waits as long as the controller takes.  With one, each
        attempt is bounded by ``timeout_ns`` and retried with capped
        exponential backoff up to ``max_attempts`` tries.
        """
        policy = self.control_policy
        if policy is None:
            try:
                rules = yield self.controller.flow_request(self.name, scope,
                                                           flow)
            except Exception:  # noqa: BLE001 - controller fault isolation
                return None
            return list(rules or ())
        for attempt in range(policy.max_attempts):
            reply = self.controller.flow_request(self.name, scope, flow)
            deadline = self.sim.timeout(policy.timeout_ns)
            failed = False
            try:
                yield self.sim.any_of([reply, deadline])
            except Exception:  # noqa: BLE001 - controller fault isolation
                failed = True
            if not failed and reply.processed and reply.ok:
                return list(reply.value or ())
            if not (failed or reply.processed):
                # Deadline fired first: the request timed out.  A late
                # reply is ignored (the AnyOf defuses late failures).
                self.stats.sdn_timeouts += 1
                if self.event_log is not None:
                    self.event_log.record("sdn_timeout", host=self.name,
                                          scope=scope, attempt=attempt)
            if attempt + 1 < policy.max_attempts:
                self.stats.sdn_retries += 1
                yield self.sim.sleep(policy.backoff_ns(attempt))
        if self.event_log is not None:
            self.event_log.record("controller_unreachable", host=self.name,
                                  scope=scope,
                                  attempts=policy.max_attempts)
        return None

    def _degrade_pending(self, key: tuple[str, FiveTuple]) -> None:
        """Release a miss queue without rules: fallback-forward or drop."""
        buffered = self._pending_flows.pop(key)
        self.stats.miss_fallbacks += 1
        if self.miss_fallback is not None:
            for descriptor in buffered:
                self.stats.degraded_packets += 1
                self._route(descriptor, self.miss_fallback)
        else:
            for descriptor in buffered:
                self._drop(descriptor, "dropped_no_rule")
        if self.event_log is not None:
            self.event_log.record(
                "miss_degraded", host=self.name, scope=key[0],
                packets=len(buffered),
                fallback=str(self.miss_fallback) if self.miss_fallback
                else "drop")

    # ------------------------------------------------------------------
    # Cross-layer messages (§3.4)
    # ------------------------------------------------------------------
    def submit_nf_message(self, message: NfMessage) -> None:
        """Entry point for NFs (via NfContext): queue a message."""
        self._mgmt_queue.try_put(message)

    def _mgmt_loop(self):
        while True:
            message: NfMessage = yield self._mgmt_queue.get()
            if self.policy_validator is not None:
                approved = yield self.policy_validator.validate(self.name,
                                                                message)
                if not approved:
                    self.rejected_messages += 1
                    if self.event_log is not None:
                        self.event_log.record(
                            "message_rejected", host=self.name,
                            kind=type(message).__name__,
                            sender=message.sender_service)
                    continue
            if self.event_log is not None:
                self.event_log.record("message_applied", host=self.name,
                                      kind=type(message).__name__,
                                      sender=message.sender_service)
            self.apply_message(message)

    def apply_message(self, message: NfMessage) -> None:
        """Apply an (already validated) cross-layer message to the table."""
        if isinstance(message, ChangeDefault):
            self._apply_change_default(message)
        elif isinstance(message, SkipMe):
            self._apply_skip_me(message)
        elif isinstance(message, RequestMe):
            self._apply_request_me(message)
        elif isinstance(message, UserMessage):
            handler = self.message_handlers.get(message.sender_service)
            if handler is not None:
                handler(message)
            elif self.user_message_sink is not None:
                self.user_message_sink(self.name, message)
            else:
                self.uninterpreted_messages.append(message)
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")

    def _apply_change_default(self, message: ChangeDefault) -> None:
        destination = _parse_target(message.target)
        self._rewrite_defaults(
            scope=message.service, flows=message.flows,
            new_default=destination)

    def _apply_skip_me(self, message: SkipMe) -> None:
        bypass = ToService(message.service)
        bypass_default = self._scope_default(message.service, message.flows)
        if bypass_default is None:
            return  # S has no rules; nothing routes through it anyway
        exact = message.flows.exact_key()
        for scope in list(self.flow_table.scopes()):
            if scope == message.service:
                continue
            if exact is not None:
                entry = self.flow_table.lookup(scope, exact)
                if entry is not None and entry.default_action == bypass:
                    specialized = self.flow_table.specialize(scope, exact)
                    self.install_rule(
                        specialized.with_default(bypass_default))
                continue
            for entry in list(self.flow_table.entries(scope)):
                if (entry.default_action == bypass
                        and message.flows.subsumes(entry.match)):
                    self.install_rule(entry.with_default(bypass_default))

    def _apply_request_me(self, message: RequestMe) -> None:
        """Rewrite every rule (including per-flow specializations) that has
        an edge to the requesting service so it becomes the default."""
        wanted = ToService(message.service)
        exact = message.flows.exact_key()
        for scope in list(self.flow_table.scopes()):
            if scope == message.service:
                continue
            if exact is not None:
                entry = self.flow_table.lookup(scope, exact)
                if (entry is not None and wanted in entry.actions
                        and entry.default_action != wanted):
                    specialized = self.flow_table.specialize(scope, exact)
                    self.install_rule(specialized.with_default(wanted))
                continue
            for entry in list(self.flow_table.entries(scope)):
                if (wanted in entry.actions
                        and entry.default_action != wanted
                        and message.flows.subsumes(entry.match)):
                    self.install_rule(entry.with_default(wanted))

    def _scope_default(self, scope: str,
                       flows: FlowMatch) -> Destination | None:
        """The default action service ``scope`` applies to ``flows``."""
        exact = flows.exact_key()
        if exact is not None:
            entry = self.flow_table.lookup(scope, exact)
            return entry.default_action if entry else None
        entries = self.flow_table.entries(scope)
        if not entries:
            return None
        # Prefer the rule whose match equals F, else the scope's broadest.
        for entry in entries:
            if entry.match == flows:
                return entry.default_action
        broadest = min(entries, key=lambda rule: rule.match.specificity)
        return broadest.default_action

    def _rewrite_defaults(self, scope: str, flows: FlowMatch,
                          new_default: Destination) -> None:
        """Make ``new_default`` the default for ``flows`` within ``scope``.

        Exact flows get a specialised per-flow rule (cloning the wildcard
        template so the change doesn't leak to other flows); wildcard flows
        rewrite matching rules in place, or install an overriding rule at
        higher priority when no rule has that exact match.
        """
        exact = flows.exact_key()
        if exact is not None:
            entry = self.flow_table.specialize(scope, exact)
            if entry is None:
                return
            self.install_rule(entry.with_default(new_default))
            return
        entries = self.flow_table.entries(scope)
        # Rules entirely inside F (including per-flow specializations) are
        # rewritten in place.
        rewritten = False
        for entry in entries:
            if flows.subsumes(entry.match):
                self.install_rule(entry.with_default(new_default))
                rewritten = True
        # Broader rules that merely overlap F get a higher-priority
        # override carved out for the F region.
        broader = [entry for entry in entries
                   if not flows.subsumes(entry.match)
                   and _match_covers(entry.match, flows)]
        if broader:
            template = max(broader, key=lambda rule:
                           (rule.priority, rule.match.specificity))
            override = FlowTableEntry(
                scope=scope, match=flows,
                actions=template.with_default(new_default).actions,
                parallel=template.parallel,
                priority=template.priority + 1)
            self.install_rule(override)
        elif not rewritten:
            return

    # ------------------------------------------------------------------
    # Terminal actions
    # ------------------------------------------------------------------
    def _egress(self, descriptor: PacketDescriptor, port_name: str) -> None:
        port = self.ports.get(port_name)
        if port is None:
            self._drop(descriptor, "dropped_no_rule")
            return
        packet = descriptor.packet
        self.stats.record_tx(port_name, packet.size)
        # Pure refcount drop — no pool reclaim here: the zero-ref buffer
        # is still on the wire (NIC TX FIFO, then fabric / egress sinks).
        # The terminal owner (pktgen's return sink, a drop path, or the
        # next host) reclaims it.
        packet.release()
        self._desc_free(descriptor)
        port.transmit(packet)

    def _drop(self, descriptor: PacketDescriptor, counter: str) -> None:
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if not self._group_member_lost(descriptor):
            self._release(descriptor.packet)
        self._desc_free(descriptor)

    @staticmethod
    def _release(packet: Packet) -> None:
        # free(), not release(): drop paths are terminal owners, so a
        # pooled buffer goes straight back to its slab at refcount zero.
        packet.free()


def _parse_target(target: str) -> Destination:
    """ChangeDefault targets: "port:<name>", "drop", or a Service ID."""
    if target == "drop":
        return Drop()
    if target.startswith("port:"):
        return ToPort(target[len("port:"):])
    return ToService(target)


def _match_covers(rule_match: FlowMatch, flows: FlowMatch) -> bool:
    """Whether a rule's match could apply to flows selected by ``flows``.

    Conservative overlap test: exact F is checked precisely; wildcard F is
    treated as overlapping unless both constrain the same field to
    different values.
    """
    exact = flows.exact_key()
    if exact is not None:
        return rule_match.matches(exact)
    for field in ("src_ip", "dst_ip", "protocol", "src_port", "dst_port"):
        ours, theirs = getattr(rule_match, field), getattr(flows, field)
        if ours is not None and theirs is not None and ours != theirs:
            return False
    return True
