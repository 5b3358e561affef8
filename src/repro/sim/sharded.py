"""Sharded parallel simulation: per-host-group event lanes behind one API.

The single-threaded kernel (:mod:`repro.sim.simulator`) serializes every
host of a multi-host run through one event heap.  This module partitions
a topology's NFV hosts into *shards* — each shard a complete, private
simulation (its own :class:`~repro.sim.simulator.Simulator`, its own
hosts, fabric, packet pools, event log) — and runs them in conservative
lockstep:

- **Lookahead windows.**  The minimum propagation delay of any link
  that crosses a shard boundary is a hard lower bound on how soon one
  shard can affect another.  ``ShardPlan`` records that bound per
  *directed shard pair* (``lookahead_matrix``); the conductor runs a
  null-message/LBTS-style round schedule where each shard advances to
  the minimum over its inbound neighbors' clocks plus the pair
  lookahead, so two shards joined only by a slow WAN link barrier at
  WAN cadence even while an intra-DC pair elsewhere barriers every few
  microseconds.  Uniform-delay topologies — or a plan whose matrix
  states the global minimum for every pair — degenerate to the classic
  global barrier.  A frame transmitted at ``t`` inside a window
  arrives at ``t + delay`` past every target the round hands out, so
  delivering captured frames between rounds never violates causality.

- **Boundary events.**  Frames leaving a shard are serialized to plain
  tuples (flow fields, size, payload, timestamps) — never object
  references — and rebuilt from the destination host's packet pool on
  the owning shard.  Per window and destination the tuples travel as
  one packed :class:`~repro.net.batch.BoundaryBatch` (int64 columns
  plus dictionary tables) that decodes to the identical rows.  The
  same codec runs in-process (``workers=0``) and over
  ``multiprocessing`` pipes, so a worker run is bit-equal to the
  debuggable in-process run, and per-shard transport counters
  (windows, batches, messages, bytes) land in the run result.

- **Determinism.**  Boundary events are globally sorted by
  ``(arrival time, source shard, capture order)`` before delivery, and
  per-shard event logs merge by ``(timestamp, shard id, append order)``
  (:func:`repro.metrics.eventlog.merge_events`).  ``shards=1`` runs the
  identical construction with no boundaries at all and is byte-identical
  to a hand-built single-kernel run — pinned by the golden-parity suite.

Known limit: two boundary frames from *different* source shards arriving
at the same destination in the same nanosecond are ordered by source
shard, where the monolithic kernel would use global schedule order; all
per-host counters remain invariant, but exact event interleaving at such
collisions may differ.
"""

from __future__ import annotations

import dataclasses
import pickle
import typing

from repro.control.plane import ControlPlane
from repro.core.app import SdnfvApp
from repro.core.service_graph import ServiceGraph
from repro.dataplane.costs import HostCosts
from repro.dataplane.manager import DEFAULT_BURST_SIZE, ControlPlanePolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import ControllerOutage, FaultPlan
from repro.metrics.eventlog import ControlEvent, EventLog, merge_events
from repro.net.batch import BoundaryBatch, encode_boundary_events
from repro.net.flow import FiveTuple
from repro.net.mempool import DEFAULT_POOL_SIZE
from repro.net.packet import Packet
from repro.nfs import NoOpNf
from repro.sim.simulator import Simulator
from repro.sim.units import US
from repro.topology.builder import BoundaryWire, BuiltNetwork, build_network
from repro.topology.nodes import NodeKind
from repro.topology.topology import Topology
from repro.workloads.pktgen import FlowSpec, PktGen

__all__ = [
    "Scenario",
    "ShardPlan",
    "ShardRuntime",
    "ShardedRunResult",
    "ShardedSimulator",
    "TrafficSpec",
]


class ScenarioError(ValueError):
    """The scenario cannot run (invalid placement, traffic, or faults)."""


@dataclasses.dataclass
class TrafficSpec:
    """One generated flow, injected at ``host``'s ingress port.

    The picklable subset of :class:`repro.workloads.pktgen.FlowSpec`
    (callable payloads are excluded so specs can cross worker
    boundaries), plus the injection host.
    """

    host: str
    flow: FiveTuple
    rate_mbps: float
    packet_size: int = 64
    start_ns: int = 0
    stop_ns: int | None = None
    pacing: str = "uniform"
    payload: str = ""
    # Cycle the generated packets over this many distinct five-tuples
    # (src_port, then src_ip vary; see FlowSpec.flow_count) — the Fig. 10
    # saturation-sweep knob for driving rule-cache churn at scale.
    flow_count: int = 1


@dataclasses.dataclass
class Scenario:
    """A complete, self-contained description of one multi-host run.

    Everything a shard needs to rebuild its share of the world: the
    topology, the placed service graph, NF factories (callables taking
    the service id — classes like :class:`repro.nfs.NoOpNf` work as-is),
    traffic, faults, and the normalized construction kwargs shared with
    :func:`repro.topology.build_network` and :class:`NfvHost`.  Must be
    picklable for ``workers > 0``.
    """

    topology: Topology
    graph: ServiceGraph
    placement: dict[str, str]
    duration_ns: int
    traffic: list[TrafficSpec] = dataclasses.field(default_factory=list)
    nf_factory: typing.Callable[[str], typing.Any] = NoOpNf
    nf_factories: dict[str, typing.Callable[[str], typing.Any]] = (
        dataclasses.field(default_factory=dict))
    fault_plan: FaultPlan | None = None
    costs: HostCosts | None = None
    ingress_port: str = "eth0"
    exit_port: str = "eth1"
    line_rate_gbps: float = 10.0
    burst_size: int = DEFAULT_BURST_SIZE
    pool_size: int = DEFAULT_POOL_SIZE
    # Attach the descriptor-ownership verifier to every host
    # (repro.analysis.ownership.HostVerifier): the boundary capture
    # (pool reclaim at the source) and delivery (pool alloc + NIC
    # receive at the destination) hand-offs run under its shadow
    # ledger, and each shard's collect() carries the per-host audit.
    verify: bool = False
    seed: int = 0
    ring_slots: int = 512
    pktgen_seed: int = 42
    # Shard-local control plane (0 = no controller, today's behaviour:
    # rules install directly at deploy time).  With control_shards >= 1
    # every simulation shard builds its own ControlPlane replica —
    # controller placement follows the data it serves, so reactive
    # misses never cross a shard boundary.  control_proactive=False
    # leaves tables empty at deploy and every flow sets up reactively
    # (each replica then models its own slice of the controller's
    # queueing, so cross-shard-count parity holds only for the
    # proactive path, whose tables never consult the controller).
    control_shards: int = 0
    control_proactive: bool = True
    control_service_time_ns: int = 500 * US
    control_propagation_ns: int = 15_250 * US
    control_policy: ControlPlanePolicy | None = None

    def nfv_hosts(self) -> tuple[str, ...]:
        return tuple(name for name in self.topology.node_names
                     if self.topology.node(name).kind is NodeKind.NFV_HOST)

    def validate(self) -> None:
        self.graph.validate()
        if self.duration_ns <= 0:
            raise ScenarioError("duration_ns must be positive")
        hosts = set(self.nfv_hosts())
        if not hosts:
            raise ScenarioError("topology has no NFV hosts")
        for service in self.graph.services:
            placed = self.placement.get(service)
            if placed is None:
                raise ScenarioError(f"service {service!r} has no placement")
            if placed not in hosts:
                raise ScenarioError(
                    f"{service!r} placed on unknown host {placed!r}")
        for spec in self.traffic:
            if spec.host not in hosts:
                raise ScenarioError(
                    f"traffic targets unknown host {spec.host!r}")
            if spec.flow_count < 1:
                raise ScenarioError("flow_count must be at least 1")
        if self.control_shards < 0:
            raise ScenarioError("control_shards must be non-negative")
        if self.fault_plan is not None:
            for fault in self.fault_plan:
                if isinstance(fault, ControllerOutage):
                    if not self.control_shards:
                        raise ScenarioError(
                            "ControllerOutage needs control_shards >= 1: "
                            "without a control plane there is no "
                            "controller to take down")
                    if (fault.shard is not None
                            and fault.shard >= self.control_shards):
                        raise ScenarioError(
                            f"fault targets controller shard "
                            f"{fault.shard} but control_shards="
                            f"{self.control_shards}")
                    continue
                target = getattr(fault, "host", None)
                if target is None:
                    raise ScenarioError(
                        f"fault {fault!r} needs an explicit host= so it "
                        "can be routed to its owning shard")
                if target not in hosts:
                    raise ScenarioError(
                        f"fault targets unknown host {target!r}")


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """Host-group partition plus the conservative lookahead bounds.

    ``groups[i]`` is the tuple of host names shard ``i`` owns.
    ``lookahead_matrix`` holds sorted ``(src_shard, dst_shard,
    lookahead)`` triples (nanoseconds), one per directed pair of groups joined by
    at least one link (empty when no link crosses a boundary, in which
    case one window covers the run); the schedule barriers each pair at
    its own cadence.  ``compute`` fills it with the minimum crossing
    delay per pair; a hand-built plan may state smaller lookaheads
    (giving every pair the global minimum reproduces the classic
    global barrier) or leave it ``None``, in which case
    :class:`ShardedSimulator` derives it from the topology.
    """

    groups: tuple[tuple[str, ...], ...]
    lookahead_matrix: tuple[tuple[int, int, int], ...] | None = None

    @classmethod
    def compute(cls, topology: Topology, shards: int) -> ShardPlan:
        """Contiguous balanced partition of the NFV hosts in node order.

        Contiguity in node order keeps neighboring hosts of line-ish
        topologies co-sharded, minimizing boundary crossings.
        """
        hosts = [name for name in topology.node_names
                 if topology.node(name).kind is NodeKind.NFV_HOST]
        if shards < 1:
            raise ValueError("need at least one shard")
        if shards > len(hosts):
            raise ValueError(
                f"{shards} shards for {len(hosts)} NFV hosts; at most "
                "one shard per host")
        groups: list[tuple[str, ...]] = []
        start = 0
        for index in range(shards):
            size = len(hosts) // shards + (
                1 if index < len(hosts) % shards else 0)
            groups.append(tuple(hosts[start:start + size]))
            start += size
        return cls(groups=tuple(groups),
                   lookahead_matrix=_crossing_matrix(topology, groups))

    def owners(self) -> dict[str, int]:
        """host name -> owning shard index."""
        return {host: index
                for index, group in enumerate(self.groups)
                for host in group}

    def pair_lookaheads(self) -> dict[tuple[int, int], int] | None:
        """``(src_shard, dst_shard) -> lookahead`` (None if unset)."""
        if self.lookahead_matrix is None:
            return None
        return {(src, dst): delay
                for src, dst, delay in self.lookahead_matrix}

    def validate_for(self, topology: Topology) -> None:
        """A manually-built plan must cover every NFV host exactly once
        and must not claim lookaheads larger than the links allow."""
        hosts = [name for name in topology.node_names
                 if topology.node(name).kind is NodeKind.NFV_HOST]
        owned = [host for group in self.groups for host in group]
        if sorted(owned) != sorted(set(owned)):
            raise ValueError("plan assigns a host to more than one shard")
        if set(owned) != set(hosts):
            raise ValueError(
                "plan must cover every NFV host exactly once")
        actual = _crossing_matrix(topology, self.groups)
        if self.lookahead_matrix is None:
            return
        count = len(self.groups)
        for src, dst, delay in self.lookahead_matrix:
            if src == dst or not (0 <= src < count and 0 <= dst < count):
                raise ValueError(
                    f"lookahead_matrix entry ({src}, {dst}, {delay}) "
                    f"must name two distinct shards of {count}")
            if delay < 1:
                raise ValueError("per-pair lookaheads must be >= 1 ns")
        claimed = self.pair_lookaheads()
        for src, dst, delay in actual:
            stated = claimed.get((src, dst))
            if stated is None:
                raise ValueError(
                    f"lookahead_matrix is missing the crossing pair "
                    f"{src}->{dst}; an absent pair would let the "
                    "schedule outrun that link")
            if stated > delay:
                raise ValueError(
                    f"lookahead_matrix claims {stated} ns for pair "
                    f"{src}->{dst} but the minimum crossing delay "
                    f"is {delay} ns")


def _crossing_matrix(topology: Topology,
                     groups: typing.Sequence[tuple[str, ...]]
                     ) -> tuple[tuple[int, int, int], ...]:
    """Sorted directed ``(src, dst, min_delay)`` triples between groups,
    rejecting zero-delay crossings (conservative sync needs >= 1 ns)."""
    delays = topology.crossing_delays(groups)
    if any(delay < 1 for delay in delays.values()):
        raise ValueError(
            "a zero-delay link crosses a shard boundary; conservative "
            "synchronization needs every crossing delay >= 1 ns")
    return tuple(sorted((src, dst, delay)
                        for (src, dst), delay in delays.items()))


def _flow_key(flow: FiveTuple) -> tuple[str, str, int, int, int]:
    return (flow.src_ip, flow.dst_ip, flow.protocol,
            flow.src_port, flow.dst_port)


class ShardRuntime:
    """One shard: a private kernel running its owned hosts end to end.

    Builds the shard's share of the scenario — hosts, NFs, rules,
    traffic, faults — from the *same global plan* every other shard
    compiles, so per-host construction order (and therefore every
    host-local RNG stream, VM id, and ring name) is identical whether
    the host runs monolithically or sharded.

    Cross-shard traffic leaves through :class:`BoundaryWire` egress
    hooks as serialized tuples and enters via :meth:`deliver`; no object
    in this runtime is ever reachable from another shard.
    """

    def __init__(self, scenario: Scenario, plan: ShardPlan,
                 shard_id: int) -> None:
        self.scenario = scenario
        self.plan = plan
        self.shard_id = shard_id
        self.owned: tuple[str, ...] = plan.groups[shard_id]
        sim = self.sim = Simulator()
        self.network: BuiltNetwork = build_network(
            sim, scenario.topology, costs=scenario.costs,
            ingress_port=scenario.ingress_port,
            exit_port=scenario.exit_port,
            line_rate_gbps=scenario.line_rate_gbps,
            burst_size=scenario.burst_size,
            pool_size=scenario.pool_size,
            verify=scenario.verify,
            seed=scenario.seed,
            only_hosts=self.owned)
        self.event_log = EventLog(sim)
        # Shard-local controller placement: each runtime replicates the
        # control plane, so every host's controller channel terminates
        # inside its own shard (reactive misses never cross a boundary).
        self.plane: ControlPlane | None = None
        if scenario.control_shards:
            self.plane = ControlPlane(
                sim, shards=scenario.control_shards,
                service_time_ns=scenario.control_service_time_ns,
                propagation_ns=scenario.control_propagation_ns,
                event_log=self.event_log)
        self.app = SdnfvApp(sim, controller=self.plane)
        for host in self.network.hosts.values():
            self.app.register_host(host)
            host.manager.event_log = self.event_log
            if self.plane is not None:
                host.manager.controller = self.plane
                host.manager.control_policy = scenario.control_policy

        # NFs in global graph order: each host sees the same local
        # registration sequence (hence the same vm ids and RNG streams)
        # at every shard count.
        for service in scenario.graph.services:
            host = self.network.hosts.get(scenario.placement[service])
            if host is None:
                continue
            factory = scenario.nf_factories.get(service,
                                                scenario.nf_factory)
            host.add_nf(factory(service), ring_slots=scenario.ring_slots)

        self.app.deploy(scenario.graph,
                        ingress_port=scenario.ingress_port,
                        exit_port=scenario.exit_port,
                        placement=scenario.placement,
                        network=self.network,
                        proactive=scenario.control_proactive)

        # Per-host traffic generation and exit-side measurement.
        self.gens: dict[str, PktGen] = {}
        self.deliveries: dict[str, list] = {}
        for name, host in self.network.hosts.items():
            gen = PktGen(sim, host,
                         ingress_port=scenario.ingress_port,
                         measure_ports=(scenario.exit_port,),
                         seed=scenario.pktgen_seed)
            self.gens[name] = gen
            self.deliveries[name] = []
            self._record_deliveries(host, name)
        for spec in scenario.traffic:
            gen = self.gens.get(spec.host)
            if gen is None:
                continue
            gen.add_flow(FlowSpec(
                flow=spec.flow, rate_mbps=spec.rate_mbps,
                packet_size=spec.packet_size, start_ns=spec.start_ns,
                stop_ns=spec.stop_ns, payload=spec.payload,
                pacing=spec.pacing, flow_count=spec.flow_count))

        # Fault injection routed to the owning shard: only faults whose
        # host this shard realizes are armed, at plan-index-pure times.
        self.injector: FaultInjector | None = None
        if scenario.fault_plan is not None:
            self.injector = FaultInjector(
                sim, scenario.fault_plan,
                hosts=self.network.hosts.values(),
                controller=self.plane,
                only_hosts=self.owned)
            self.injector.arm()

        # Boundary egress capture, staged per destination shard.  The
        # capture sequence is one counter across every destination so
        # the conductor's (arrival, source shard, capture order) sort
        # matches the single-outbox era exactly.
        self._outboxes: dict[int, list[tuple]] = {}
        self._boundary_seq = 0
        self.boundary_tx = 0
        self.boundary_frames_carried = 0
        self.boundary_dropped_at_rx = 0
        # Transport odometers: windows this shard advanced through,
        # encoded batches, pipe messages those batches amount to, and
        # their serialized size.
        self.windows_advanced = 0
        self.transport_batches = 0
        self.transport_messages = 0
        self.transport_bytes = 0
        owners = plan.owners()
        for wire in self.network.boundary_wires:
            port = self.network.hosts[wire.src_host].port(wire.src_port)
            if port.on_egress is not None:
                raise RuntimeError(
                    f"boundary port {wire.src_host}:{wire.src_port} "
                    "already hooked")
            port.on_egress = (
                lambda packet, w=wire, d=owners[wire.dst_host]:
                self._capture(w, d, packet))

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _record_deliveries(self, host: typing.Any, name: str) -> None:
        port = host.port(self.scenario.exit_port)
        measured = port.on_egress  # PktGen._on_return
        sink = self.deliveries[name]
        sim = self.sim

        def recording_hook(packet: Packet) -> None:
            sink.append((sim.now, packet.created_at,
                         _flow_key(packet.flow)))
            measured(packet)

        port.on_egress = recording_hook

    # ------------------------------------------------------------------
    # Boundary codec
    # ------------------------------------------------------------------
    def _capture(self, wire: BoundaryWire, dst_shard: int,
                 packet: Packet) -> None:
        """Serialize an egressing frame into a boundary event.

        Mirrors the measurement sink's ownership contract: the local
        buffer is reclaimed here (it never crosses the boundary); the
        destination shard allocates a fresh buffer from *its* host's
        pool.  Only pool telemetry differs from the monolithic run.
        """
        flow = packet.flow
        annotations = packet._annotations
        encoded_annotations = (tuple(sorted(annotations.items()))
                               if annotations else None)
        self._boundary_seq += 1
        self._outboxes.setdefault(dst_shard, []).append((
            self.sim.now + wire.delay_ns, self._boundary_seq,
            wire.dst_host, wire.dst_port,
            flow.src_ip, flow.dst_ip, flow.protocol,
            flow.src_port, flow.dst_port,
            packet.size, packet.payload, packet.created_at,
            encoded_annotations))
        self.boundary_tx += 1
        pool = packet.pool
        if pool is not None and packet.ref_count == 0:
            pool.reclaim(packet)

    def deliver(self,
                group: typing.Sequence[tuple[int, BoundaryBatch]]) -> None:
        """Decode and schedule one round's inbound boundary traffic.

        ``group`` is ``(source_shard, batch)`` pairs, one per source
        that captured toward this shard in the round.  Rows merge
        across sources by (arrival time, source shard, capture order) —
        the same global order the single-outbox conductor used.
        """
        rows: list[tuple[int, int, int, tuple]] = []
        for src_shard, batch in group:
            for event in batch.decode():
                rows.append((event[0], src_shard, event[1], event))
        rows.sort(key=lambda row: row[:3])
        now = self.sim.now
        for _arrival, _src, _seq, event in rows:
            self.sim.call_later(event[0] - now, self._deliver_one, event)

    def _deliver_one(self, event: tuple) -> None:
        (_arrive, _seq, dst_host, dst_port, src_ip, dst_ip, protocol,
         src_port, dst_port_num, size, payload, created_at,
         annotations) = event
        host = self.network.hosts[dst_host]
        flow = FiveTuple(src_ip, dst_ip, protocol, src_port, dst_port_num)
        pool = host.packet_pool
        if pool is not None:
            packet = pool.alloc(flow=flow, size=size, payload=payload,
                                created_at=created_at)
        else:
            packet = Packet(flow=flow, size=size, payload=payload,
                            created_at=created_at)
        if annotations:
            packet._annotations = dict(annotations)
        self.boundary_frames_carried += 1
        accepted = host.inject(dst_port, packet)
        if not accepted:
            self.boundary_dropped_at_rx += 1

    # ------------------------------------------------------------------
    # Conductor interface
    # ------------------------------------------------------------------
    def advance(self, until_ns: int) -> None:
        self.windows_advanced += 1
        self.sim.run(until=until_ns)

    def take_outbox(self) -> dict[int, BoundaryBatch]:
        """Encode this window's captures, one batch per destination
        shard, and account the transport odometers."""
        staged = self._outboxes
        self._outboxes = {}
        encoded: dict[int, BoundaryBatch] = {}
        for dst_shard in sorted(staged):
            boundary_events = staged[dst_shard]
            if not boundary_events:
                continue
            batch = encode_boundary_events(boundary_events)
            self.transport_batches += 1
            self.transport_messages += batch.buffer_count()
            self.transport_bytes += len(
                pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            encoded[dst_shard] = batch
        return encoded

    def collect(self) -> dict:
        """Everything observable, as picklable primitives."""
        hosts: dict[str, dict] = {}
        for name, host in self.network.hosts.items():
            gen = self.gens[name]
            hosts[name] = {
                "summary": host.stats.summary(),
                "deliveries": self.deliveries[name],
                "latency_samples": list(gen.latency.samples_ns),
                "sent": gen.sent,
                "received": gen.received,
                "rx_gbps": gen.rx_meter.mean_gbps(),
            }
        fired: list[tuple] = []
        skipped: list[tuple] = []
        if self.injector is not None:
            fired = [(when, type(fault).__name__,
                      getattr(fault, "host", None), fault.at_ns)
                     for when, fault in self.injector.fired]
            skipped = [(when, type(fault).__name__, reason)
                       for when, fault, reason in self.injector.skipped]
        return {
            "shard": self.shard_id,
            "hosts": hosts,
            "control": (self.plane.snapshot()
                        if self.plane is not None else None),
            "events": list(self.event_log.events),
            "fired_faults": fired,
            "skipped_faults": skipped,
            "events_scheduled": self.sim.events_scheduled,
            "timers_scheduled": self.sim.timers_scheduled,
            "events_cancelled": self.sim.events_cancelled,
            "frames_carried": self.network.fabric.frames_carried,
            "frames_dropped_at_rx": (
                self.network.fabric.frames_dropped_at_rx),
            "boundary_tx": self.boundary_tx,
            "boundary_frames_carried": self.boundary_frames_carried,
            "boundary_dropped_at_rx": self.boundary_dropped_at_rx,
            # Schedule/transport odometers: identical between workers=0
            # and workers=N, but legitimately different across plans
            # (window count, and so batches, messages and bytes) —
            # parity suites strip this key when comparing across those.
            "transport": {
                "windows": self.windows_advanced,
                "batches": self.transport_batches,
                "messages": self.transport_messages,
                "bytes": self.transport_bytes,
            },
            "verify": self._verify_report(),
        }

    def _verify_report(self) -> dict[str, dict] | None:
        """Per-host ownership audits when the scenario ran verified.

        ``expect_drained=False``: a scenario may legitimately end with
        packets still queued in rings, so only double-releases, foreign
        frees, and conservation imbalance count as findings.
        """
        if not self.scenario.verify:
            return None
        reports: dict[str, dict] = {}
        for name, host in self.network.hosts.items():
            found = host.verifier.report(expect_drained=False)
            reports[name] = {
                "issues": [str(issue) for issue in found.issues],
                "audit": found.audit,
            }
        return reports


class ShardedRunResult:
    """Merged observables of a sharded run."""

    def __init__(self, plan: ShardPlan,
                 shard_results: list[dict]) -> None:
        self.plan = plan
        self.shard_results = shard_results
        self.hosts: dict[str, dict] = {}
        for result in shard_results:
            self.hosts.update(result["hosts"])
        #: Global control-event timeline: timestamp, then shard id, then
        #: each shard's own append order.
        self.events: list[ControlEvent] = merge_events(
            [result["events"] for result in shard_results])
        self.fired_faults: list[tuple] = sorted(
            fault for result in shard_results
            for fault in result["fired_faults"])
        #: Per-simulation-shard control-plane snapshots (None entries
        #: when the scenario ran without a control plane).
        self.controls: list[dict | None] = [
            result.get("control") for result in shard_results]
        #: Per-host ownership audits (None when Scenario(verify=False)).
        self.verify_reports: dict[str, dict] | None = None
        if any(result.get("verify") for result in shard_results):
            self.verify_reports = {}
            for result in shard_results:
                self.verify_reports.update(result["verify"] or {})

    @property
    def sent(self) -> int:
        return sum(host["sent"] for host in self.hosts.values())

    @property
    def received(self) -> int:
        return sum(host["received"] for host in self.hosts.values())

    def host_summary(self, name: str) -> dict[str, int]:
        return self.hosts[name]["summary"]

    def deliveries(self, name: str) -> list[tuple]:
        return self.hosts[name]["deliveries"]

    def totals(self) -> dict[str, int]:
        """Network-wide conservation totals, invariant in shard count."""
        keys = ("rx_packets", "tx_packets", "dropped_ring_full",
                "dropped_by_nf", "dropped_no_rule", "dropped_no_vm",
                "nic_rx_dropped", "nic_link_dropped", "lost_in_nf",
                "requeued_packets", "degraded_packets")
        out = {key: sum(host["summary"][key]
                        for host in self.hosts.values())
               for key in keys}
        out["sent"] = self.sent
        out["received"] = self.received
        out["frames_carried"] = sum(
            result["frames_carried"] + result["boundary_frames_carried"]
            for result in self.shard_results)
        out["frames_dropped_at_rx"] = sum(
            result["frames_dropped_at_rx"]
            + result["boundary_dropped_at_rx"]
            for result in self.shard_results)
        return out

    def transport_summary(self) -> dict[str, int | float]:
        """Aggregated schedule/transport odometers across all shards:
        total windows advanced, boundary batches, pipe messages the
        batches amount to, serialized bytes, and messages per
        non-empty batch (the per-window pipe-traffic headline)."""
        windows = batches = messages = size = 0
        for result in self.shard_results:
            transport = result["transport"]
            windows += transport["windows"]
            batches += transport["batches"]
            messages += transport["messages"]
            size += transport["bytes"]
        return {
            "windows": windows,
            "batches": batches,
            "messages": messages,
            "bytes": size,
            "messages_per_batch": messages / batches if batches else 0.0,
        }


class ShardedSimulator:
    """Run a :class:`Scenario` over one or more conservative shards.

    ``workers=0`` runs every shard in-process (deterministic, fully
    debuggable); ``workers=N`` spreads the shards over N
    ``multiprocessing`` workers with the identical round/boundary
    protocol.  ``shards=1`` (the default without a ``plan``) is
    byte-identical to the monolithic kernel; with a ``plan``, the shard
    count is ``len(plan.groups)`` and an explicit ``shards=`` must agree.

    Each shard advances against its inbound neighbors' clocks via the
    plan's per-pair lookahead matrix (see :meth:`_rounds`); boundary
    frames travel as one :class:`BoundaryBatch` per round and
    destination shard.
    """

    def __init__(self, scenario: Scenario, shards: int | None = None,
                 workers: int = 0,
                 plan: ShardPlan | None = None) -> None:
        scenario.validate()
        self.scenario = scenario
        if plan is None:
            plan = ShardPlan.compute(
                scenario.topology, 1 if shards is None else shards)
        elif shards not in (None, len(plan.groups)):
            raise ValueError(f"shards={shards} disagrees with the plan's "
                             f"{len(plan.groups)} groups")
        else:
            plan.validate_for(scenario.topology)
        self.plan = plan
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = min(workers, len(plan.groups))
        lookaheads = plan.pair_lookaheads()
        if lookaheads is None:
            # Hand-built plan without a matrix: derive the true per-pair
            # bounds from the topology (always causally safe).
            lookaheads = scenario.topology.crossing_delays(plan.groups)
        self._pair_lookaheads = lookaheads

    # ------------------------------------------------------------------
    def run(self) -> ShardedRunResult:
        if self.workers == 0:
            shard_results = self._run_inline()
        else:
            shard_results = self._run_workers()
        return ShardedRunResult(self.plan, shard_results)

    # ------------------------------------------------------------------
    # Round schedule and boundary routing (shared by both modes)
    # ------------------------------------------------------------------
    def _rounds(self) -> typing.Iterator[dict[int, int]]:
        """Yield ``{shard: advance_to_ns}`` per conductor round, lazily.

        Each shard's bound is the minimum over its inbound crossing
        pairs of the source shard's clock plus that pair's lookahead,
        all bounds computed from the clocks at the *start* of the round
        (events a source captures inside the round arrive no earlier
        than its old clock plus the pair lookahead, so every target
        handed out stays causally safe).  A shard only moves when it
        can take at least its smallest inbound lookahead in one step —
        without that quantum, fast neighbors would drag slow pairs
        through micro-windows — or when it can finish the run.  Shards
        with no inbound pairs (one shard, or no crossing links) finish
        in the first round.  When every pair states the same lookahead
        the rounds are exactly the global-barrier edges.  A generator
        rather than a list: a long run with a microsecond lookahead has
        millions of rounds, and materializing them up front costs
        memory before the first event fires.
        """
        count = len(self.plan.groups)
        duration = self.scenario.duration_ns
        inbound: dict[int, list[tuple[int, int]]] = {}
        for (src, dst), lookahead in sorted(self._pair_lookaheads.items()):
            inbound.setdefault(dst, []).append((src, lookahead))
        quantum = {dst: min(lookahead for _, lookahead in pairs)
                   for dst, pairs in inbound.items()}
        clocks = [0] * count
        while min(clocks) < duration:
            targets: dict[int, int] = {}
            for shard in range(count):
                now = clocks[shard]
                if now >= duration:
                    continue
                pairs = inbound.get(shard)
                bound = duration if not pairs else min(
                    clocks[src] + lookahead for src, lookahead in pairs)
                target = min(bound, duration)
                if target <= now:
                    continue
                if target >= duration or target - now >= quantum[shard]:
                    targets[shard] = target
            if not targets:  # pragma: no cover - the minimum-clock
                # shard can always take a full quantum, so the schedule
                # cannot stall; this guards the invariant.
                raise RuntimeError("window schedule stalled")
            for shard, upto in targets.items():
                clocks[shard] = upto
            yield targets

    def _route(self, outboxes: dict[int, dict[int, BoundaryBatch]],
               pending: dict[int, list[list[tuple[int, BoundaryBatch]]]]
               ) -> None:
        """Stage one round's encoded batches for their destinations.

        ``outboxes`` maps source shard -> {destination shard: batch}.
        Each destination receives the round's batches as one *group*
        (source-sorted); groups queue up until the destination's next
        advance, which decodes and merges them in round order.
        """
        destinations = {dst for box in outboxes.values() for dst in box}
        for dst in sorted(destinations):
            group = [(src, outboxes[src][dst])
                     for src in sorted(outboxes) if dst in outboxes[src]]
            pending.setdefault(dst, []).append(group)

    # ------------------------------------------------------------------
    # workers=0: every shard in this process
    # ------------------------------------------------------------------
    def _run_inline(self) -> list[dict]:
        runtimes = [ShardRuntime(self.scenario, self.plan, index)
                    for index in range(len(self.plan.groups))]
        pending: dict[int, list[list[tuple[int, BoundaryBatch]]]] = {}
        for targets in self._rounds():
            outboxes: dict[int, dict[int, BoundaryBatch]] = {}
            for shard_id in sorted(targets):
                runtime = runtimes[shard_id]
                for group in pending.pop(shard_id, ()):
                    runtime.deliver(group)
                runtime.advance(targets[shard_id])
                captured = runtime.take_outbox()
                if captured:
                    outboxes[shard_id] = captured
            self._route(outboxes, pending)
        return [runtime.collect() for runtime in runtimes]

    # ------------------------------------------------------------------
    # workers=N: shards spread over processes, same protocol
    # ------------------------------------------------------------------
    def _run_workers(self) -> list[dict]:
        import multiprocessing

        count = len(self.plan.groups)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context("spawn")
        assignment = {worker: [index for index in range(count)
                               if index % self.workers == worker]
                      for worker in range(self.workers)}
        pipes: dict[int, typing.Any] = {}
        procs: dict[int, typing.Any] = {}
        for worker, shard_ids in assignment.items():
            parent, child = context.Pipe()
            proc = context.Process(
                target=_shard_worker,
                args=(child, self.scenario, self.plan, shard_ids),
                daemon=True)
            proc.start()
            child.close()
            pipes[worker] = parent
            procs[worker] = proc
        try:
            pending: dict[int, list[list[tuple[int, BoundaryBatch]]]] = {}
            for targets in self._rounds():
                # Only workers owning an advancing shard hear about the
                # round; each message carries the shard's target and the
                # delivery groups queued since its last advance.
                by_worker: dict[int, dict[int, tuple]] = {}
                for shard_id in sorted(targets):
                    orders = by_worker.setdefault(
                        shard_id % self.workers, {})
                    orders[shard_id] = (targets[shard_id],
                                        pending.pop(shard_id, []))
                for worker in sorted(by_worker):
                    pipes[worker].send(("advance", by_worker[worker]))
                outboxes: dict[int, dict[int, BoundaryBatch]] = {}
                for worker in sorted(by_worker):
                    outboxes.update(self._receive(pipes[worker]))
                self._route(outboxes, pending)
            for worker in assignment:
                pipes[worker].send(("finish",))
            results: dict[int, dict] = {}
            for worker in assignment:
                results.update(self._receive(pipes[worker]))
            return [results[index] for index in range(count)]
        finally:
            for pipe in pipes.values():
                pipe.close()
            for proc in procs.values():
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()

    @staticmethod
    def _receive(pipe: typing.Any) -> typing.Any:
        kind, payload = pipe.recv()
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload


def _shard_worker(conn: typing.Any, scenario: Scenario, plan: ShardPlan,
                  shard_ids: list[int]) -> None:
    """Worker process: owns one or more shards, speaks the pipe protocol.

    Messages in: ``("advance", {shard: (until_ns, delivery_groups)})``
    and ``("finish",)``.  Replies: ``("ok", {shard: {dst: batch}})``,
    ``("result", {shard: collected})``, or ``("error", traceback)``.
    Boundary batches stay encoded end to end — the conductor routes
    them without decoding; only the destination shard unpacks.
    """
    try:
        runtimes = {shard_id: ShardRuntime(scenario, plan, shard_id)
                    for shard_id in shard_ids}
        while True:
            message = conn.recv()
            if message[0] == "advance":
                _kind, orders = message
                outboxes: dict[int, dict[int, BoundaryBatch]] = {}
                for shard_id in sorted(orders):
                    until_ns, groups = orders[shard_id]
                    runtime = runtimes[shard_id]
                    for group in groups:
                        runtime.deliver(group)
                    runtime.advance(until_ns)
                    captured = runtime.take_outbox()
                    if captured:
                        outboxes[shard_id] = captured
                conn.send(("ok", outboxes))
            elif message[0] == "finish":
                conn.send(("result",
                           {shard_id: runtime.collect()
                            for shard_id, runtime in runtimes.items()}))
                return
            else:
                raise ValueError(f"unknown message {message[0]!r}")
    except BaseException:  # propagate the real traceback to the parent
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()
