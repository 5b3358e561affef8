"""The benchmark's four workloads.

Each workload turns a seed into one *trial* per repetition.  Building the
trial is the set-up the benchmark times as ``setup_s`` (hosts or
topology, NFs, rules, deploy); ``Trial.run()`` is the timed simulation;
``Trial.observe()`` returns the simulated observables the correctness
gate checks.  Every workload runs the data path with its default knobs
(``burst_size``, ``columnar``, ``pool_size``, ``adaptive_windows``,
``transport``): nothing here passes them.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.metrics import LatencyRecorder
from repro.net import FiveTuple
from repro.nfs import NoOpNf, PolicyEngine, VideoFlowDetector
from repro.sim import MS, S, Simulator
from repro.sim.sharded import (
    ShardedSimulator,
    ShardPlan,
    ShardRuntime,
    TrafficSpec,
)
from repro.workloads import FlowChurnWorkload, FlowSpec, PktGen
from repro.workloads import sessions as _sessions

from benchmarks.test_micro_multihost import make_scenario
from tests.conftest import install_chain

#: HostStats counters that retire a packet without transmitting it.
DROP_KEYS = ("dropped_ring_full", "dropped_by_nf", "dropped_no_rule",
             "dropped_no_vm", "lost_in_nf")


@dataclasses.dataclass
class Observation:
    """What one trial did, in simulated terms.

    ``digest`` holds the deterministic observables the gate compares
    with the committed expected values; ``counters`` holds odometers the
    per-layer report divides by packets (never compared).
    """

    sent: int
    digest: dict[str, typing.Any]
    counters: dict[str, float]
    problems: list[str]


def _host_problems(name: str, summary: dict, in_flight: int | None
                   ) -> list[str]:
    """Per-host conservation: rx = tx + drops (+ packets still inside
    the host, when the run was not drained)."""
    retired = summary["tx_packets"] + sum(summary[key] for key in DROP_KEYS)
    if in_flight is None:
        ok = retired == summary["rx_packets"]
    else:
        ok = retired <= summary["rx_packets"] <= retired + in_flight
    if ok:
        return []
    return [f"{name}: rx {summary['rx_packets']} != tx "
            f"{summary['tx_packets']} + drops "
            f"{retired - summary['tx_packets']}"
            + (f" (+ up to {in_flight} in flight)"
               if in_flight is not None else "")]


def _latency(recorder: LatencyRecorder) -> tuple[float, float]:
    return recorder.percentile_us(50), recorder.percentile_us(99)


# ----------------------------------------------------------------------
# chain_trickle / chain_saturation: the Fig. 7 two-NoOpNf chain
# ----------------------------------------------------------------------
CHAIN_SERVICES = ("noop0", "noop1")
CHAIN_FLOW = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)


class ChainTrial:
    """One NfvHost, two NoOpNfs in sequence, one PktGen flow.

    Uniform pacing and the generator's default RNG seed (it only feeds
    the wire jitter) make the trial identical for every benchmark seed,
    like Fig. 7's PktGen-DPDK runs.  Generation stops at ``traffic_ns``
    and the run drains for ``drain_ns`` so every packet is accounted.
    """

    def __init__(self, rate_mbps: float, flow_count: int,
                 traffic_ns: int, drain_ns: int) -> None:
        self.until_ns = traffic_ns + drain_ns
        self.traffic_ns = traffic_ns
        sim = self.sim = Simulator()
        host = self.host = NfvHost(sim, name="fig7")
        for service in CHAIN_SERVICES:
            host.add_nf(NoOpNf(service), ring_slots=1024)
        install_chain(host, list(CHAIN_SERVICES))
        self.gen = PktGen(sim, host, window_ns=MS)
        self.gen.add_flow(FlowSpec(flow=CHAIN_FLOW, rate_mbps=rate_mbps,
                                   packet_size=64, stop_ns=traffic_ns,
                                   flow_count=flow_count))
        self.flow_count = flow_count

    def run(self) -> None:
        self.sim.run(until=self.until_ns)

    def observe(self) -> Observation:
        host, gen = self.host, self.gen
        summary = host.stats.summary()
        pool = host.packet_pool
        in_flight = pool.in_flight if pool is not None else 0
        dropped = (sum(summary[key] for key in DROP_KEYS)
                   + summary["nic_rx_dropped"] + summary["nic_link_dropped"])
        problems = _host_problems(host.name, summary, None)
        if gen.sent != gen.received + dropped + in_flight:
            problems.append(f"sent {gen.sent} != delivered {gen.received} "
                            f"+ dropped {dropped} + in flight {in_flight}")
        if in_flight:
            problems.append(f"{in_flight} packets still in flight after "
                            "the drain")
        p50, p99 = _latency(gen.latency)
        digest = {
            "sent": gen.sent,
            "delivered": gen.received,
            "dropped": dropped,
            "host_rx": summary["rx_packets"],
            "host_tx": summary["tx_packets"],
            "dropped_ring_full": summary["dropped_ring_full"],
            "nic_rx_dropped": summary["nic_rx_dropped"],
            "events_scheduled": self.sim.events_scheduled,
            "timers_scheduled": self.sim.timers_scheduled,
            "flow_table_entries": len(host.flow_table),
            "sim_delivered_gbps": gen.rx_meter.mean_gbps(),
            "sim_delivered_ratio": gen.received / gen.sent,
            "sim_latency_p50_us": p50,
            "sim_latency_p99_us": p99,
            "sim_flows_per_s": self.flow_count * S / self.traffic_ns,
        }
        return Observation(gen.sent, digest,
                           _host_counters([host]), problems)


def _host_counters(hosts: typing.Iterable[NfvHost]) -> dict[str, float]:
    """Host-side odometers summed over ``hosts`` (per-layer report)."""
    keys = ("pool_hits", "pool_misses", "pool_exhausted",
            "dropped_ring_full", "columnar_batches", "object_fallbacks")
    totals = dict.fromkeys(keys, 0)
    entries = 0
    for host in hosts:
        summary = host.stats.summary()
        for key in keys:
            totals[key] += summary[key]
        entries += len(host.flow_table)
    totals["flow_table_entries"] = entries
    return totals


# ----------------------------------------------------------------------
# flow_churn: the Fig. 10 SDNFV configuration
# ----------------------------------------------------------------------
CHURN_RATE = 9000.0


class ChurnTrial:
    """VideoFlowDetector → PolicyEngine under proactive deploy, fed by
    FlowChurnWorkload (two packets per flow, Poisson flow arrivals drawn
    from the benchmark seed).

    ``repro.workloads.sessions`` numbers flows with a module-global
    counter, so a second workload in the same interpreter would get other
    five-tuples.  Each trial restarts that counter before it builds the
    workload, which makes every repetition see the same flows.
    """

    def __init__(self, seed: int, sim_ns: int) -> None:
        self.sim_ns = sim_ns
        sim = self.sim = Simulator()
        app = SdnfvApp(sim)
        host = self.host = NfvHost(sim, name="sdnfv0")
        app.register_host(host)
        host.add_nf(VideoFlowDetector("vd"), ring_slots=4096)
        host.add_nf(PolicyEngine("pe", detector_service="vd",
                                 transcoder_service="tc",
                                 exit_port="eth1"), ring_slots=4096)
        graph = ServiceGraph("video")
        graph.add_service("vd", read_only=True)
        graph.add_service("pe")
        graph.add_edge("vd", "pe", default=True)
        graph.add_edge("vd", EXIT)
        graph.add_edge("pe", EXIT, default=True)
        graph.set_entry("vd")
        app.deploy(graph, proactive=True)
        self.static_rules = len(host.flow_table)
        _sessions._flow_counter = itertools.count()
        self.workload = FlowChurnWorkload(sim, host,
                                          new_flows_per_second=CHURN_RATE,
                                          seed=seed)
        # Delivered packets, and the in-host latency of each HTTP reply
        # (the packet that completes its flow; the bare ACKs take a
        # faster path, so mixing both makes the median bimodal).  A reply
        # is allocated, and stamped ``created_at``, when its flow starts
        # but injected later, so the latency runs from injection.  The
        # workload's own egress hook stays in charge of completion and
        # buffer reclaim.
        self.delivered = 0
        self.latency = LatencyRecorder("churn-reply")
        injected_at: dict[int, int] = {}
        inject = host.inject

        def stamping_inject(port_name, packet, _sim=sim, _inject=inject):
            if packet.payload:
                injected_at[packet.packet_id] = _sim.now
            return _inject(port_name, packet)

        host.inject = stamping_inject
        port = host.port("eth1")
        measured = port.on_egress

        def recording_hook(packet, _sim=sim, _record=self.latency.record):
            self.delivered += 1
            if packet.payload:
                _record(_sim.now - injected_at.pop(packet.packet_id))
            measured(packet)

        port.on_egress = recording_hook

    def run(self) -> None:
        self.sim.run(until=self.sim_ns)

    def observe(self) -> Observation:
        host, workload = self.host, self.workload
        summary = host.stats.summary()
        pool = host.packet_pool
        problems: list[str] = []
        # Replies are allocated when their flow starts, so every packet
        # the generator built is delivered, dropped, or still holds a
        # pool buffer (in a ring, a NIC queue, or waiting to be sent).
        sent = 2 * workload.flows_started
        delivered = self.delivered
        dropped = (sum(summary[key] for key in DROP_KEYS)
                   + summary["nic_rx_dropped"] + summary["nic_link_dropped"])
        in_flight = pool.in_flight if pool is not None else 0
        if summary["pool_exhausted"]:
            problems.append("pool exhausted: heap fallbacks escape the "
                            "conservation check")
        if sent != delivered + dropped + in_flight:
            problems.append(f"sent {sent} != delivered {delivered} + "
                            f"dropped {dropped} + in flight {in_flight}")
        problems += _host_problems(host.name, summary, in_flight)
        if workload.completed_flows > workload.flows_started:
            problems.append("more flows completed than started")
        rules = len(host.flow_table) - self.static_rules
        if not workload.completed_flows <= rules <= workload.flows_started:
            problems.append(f"{rules} per-flow rules for "
                            f"{workload.completed_flows} completed of "
                            f"{workload.flows_started} started flows")
        p50, p99 = _latency(self.latency)
        digest = {
            "sent": sent,
            "delivered": delivered,
            "dropped": dropped,
            "flows_started": workload.flows_started,
            "flows_completed": workload.completed_flows,
            "host_rx": summary["rx_packets"],
            "host_tx": summary["tx_packets"],
            "events_scheduled": self.sim.events_scheduled,
            "timers_scheduled": self.sim.timers_scheduled,
            "flow_table_entries": len(host.flow_table),
            "sim_delivered_gbps": workload.out_meter.mean_gbps(),
            "sim_delivered_ratio": delivered / sent,
            "sim_latency_p50_us": p50,
            "sim_latency_p99_us": p99,
            "sim_flows_per_s": workload.completed_per_second(self.sim_ns),
        }
        return Observation(sent, digest, _host_counters([host]), problems)


# ----------------------------------------------------------------------
# wan_sharded: the 22-node Rocketfuel chain on the sharded kernel
# ----------------------------------------------------------------------
WAN_SHARDS = 2
#: Uniform pacing fixes what the WAN carries; the seed only moves the
#: generator's wire jitter (latency) and host-local RNG streams.
WAN_SEED_INVARIANT = (
    "events_scheduled", "timers_scheduled", "sim_delivered_gbps",
    "sim_delivered_ratio", "sim_flows_per_s",
    *(f"total_{key}" for key in (
        "rx_packets", "tx_packets", "dropped_ring_full", "dropped_by_nf",
        "dropped_no_rule", "dropped_no_vm", "nic_rx_dropped",
        "nic_link_dropped", "lost_in_nf", "requeued_packets",
        "degraded_packets", "sent", "received", "frames_carried",
        "frames_dropped_at_rx")))


def wan_scenario(seed: int, traffic_ns: int, drain_ns: int):
    """The micro_multihost Rocketfuel scenario (22 nodes, 64 edges, a
    6-service chain across the node order), with two uniform-paced flows
    inside ``traffic_ns`` and ``drain_ns`` more for the ~6 ms path."""
    scenario = make_scenario()
    scenario.duration_ns = traffic_ns + drain_ns
    scenario.seed = seed
    scenario.pktgen_seed = seed
    scenario.traffic = [
        TrafficSpec(host="n0", flow=FiveTuple("10.0.0.1", "10.0.0.2",
                                              6, 1, 80),
                    rate_mbps=2000.0, stop_ns=traffic_ns),
        TrafficSpec(host="n0", flow=FiveTuple("10.0.0.3", "10.0.0.4",
                                              17, 2, 53),
                    rate_mbps=1200.0, start_ns=traffic_ns // 4,
                    stop_ns=traffic_ns * 3 // 4),
    ]
    return scenario


class WanTrial:
    """``ShardedSimulator(shards=2)`` over the Rocketfuel scenario.

    Set-up builds each shard's :class:`ShardRuntime` through the public
    class, as the workers do; with ``workers > 0`` the workers build
    their own again inside the run (the run cannot reuse parent objects
    across processes), so that cost is in the timed run as well.
    """

    def __init__(self, seed: int, traffic_ns: int, drain_ns: int,
                 workers: int) -> None:
        self.scenario = wan_scenario(seed, traffic_ns, drain_ns)
        self.traffic_ns = traffic_ns
        self.workers = workers
        plan = ShardPlan.compute(self.scenario.topology, WAN_SHARDS)
        self.runtimes = [ShardRuntime(self.scenario, plan, index)
                         for index in range(WAN_SHARDS)]
        self.result = None

    def run(self) -> None:
        self.result = ShardedSimulator(self.scenario, shards=WAN_SHARDS,
                                       workers=self.workers).run()

    def observe(self) -> Observation:
        result = self.result
        totals = result.totals()
        problems: list[str] = []
        dropped = sum(totals[key] for key in DROP_KEYS) + (
            totals["nic_rx_dropped"] + totals["nic_link_dropped"]
            + totals["frames_dropped_at_rx"])
        if totals["sent"] != totals["received"] + dropped:
            problems.append(f"sent {totals['sent']} != delivered "
                            f"{totals['received']} + dropped {dropped}")
        latency = LatencyRecorder("wan")
        for name in sorted(result.hosts):
            problems += _host_problems(name, result.host_summary(name), None)
            for sample in result.hosts[name]["latency_samples"]:
                latency.record(sample)
        p50, p99 = _latency(latency)
        transport = result.transport_summary()
        flows = sum(spec.flow_count for spec in self.scenario.traffic)
        digest = {
            **{f"total_{key}": value for key, value in sorted(totals.items())},
            "events_scheduled": sum(shard["events_scheduled"]
                                    for shard in result.shard_results),
            "timers_scheduled": sum(shard["timers_scheduled"]
                                    for shard in result.shard_results),
            "sim_delivered_gbps": sum(host["rx_gbps"]
                                      for host in result.hosts.values()),
            "sim_delivered_ratio": totals["received"] / totals["sent"],
            "sim_latency_p50_us": p50,
            "sim_latency_p99_us": p99,
            "sim_flows_per_s": flows * S / self.traffic_ns,
        }
        counters = {
            "boundary_messages": transport["messages"],
            "boundary_bytes": transport["bytes"],
            "dropped_ring_full": totals["dropped_ring_full"],
        }
        for key in ("pool_hits", "pool_misses", "pool_exhausted",
                    "columnar_batches", "object_fallbacks"):
            counters[key] = sum(result.host_summary(name)[key]
                                for name in result.hosts)
        # The shards' flow tables live in the (possibly remote) runtimes;
        # the set-up copies hold the same deployed tables.
        counters["flow_table_entries"] = sum(
            len(host.flow_table) for runtime in self.runtimes
            for host in runtime.network.hosts.values())
        return Observation(totals["sent"], digest, counters, problems)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload: ``build(seed, smoke, traced)`` makes one trial.

    ``traced`` runs pick the in-process variant of a multi-process
    workload (wrappers cannot see into worker processes).
    ``seed_invariant`` names the digest keys the seed cannot change
    (``None``: the seed changes nothing); the gate checks those for
    every seed and the rest only for seeds with a committed record.
    """

    name: str
    why: str
    build: typing.Callable[[int, bool, bool], typing.Any]
    seed_invariant: tuple[str, ...] | None = None

    def invariant(self, key: str) -> bool:
        return self.seed_invariant is None or key in self.seed_invariant


def _trickle(seed: int, smoke: bool, traced: bool) -> ChainTrial:
    return ChainTrial(1000.0, 1, (1 if smoke else 10) * MS, 1 * MS)


def _saturation(seed: int, smoke: bool, traced: bool) -> ChainTrial:
    return ChainTrial(16_000.0, 4096, (1 if smoke else 3) * MS, 2 * MS)


def _churn(seed: int, smoke: bool, traced: bool) -> ChurnTrial:
    return ChurnTrial(seed, (50 if smoke else 600) * MS)


def _wan(seed: int, smoke: bool, traced: bool) -> WanTrial:
    return WanTrial(seed, (MS // 4) if smoke else 1 * MS, 7 * MS,
                    workers=0 if traced else WAN_SHARDS)


WORKLOADS = {workload.name: workload for workload in (
    Workload("chain_trickle",
             "Fig. 7 NoOp chain at 1 Gbps: ~1-packet bursts, per-packet "
             "kernel and manager cost dominates",
             _trickle),
    Workload("chain_saturation",
             "Fig. 7 chain at 16 Gbps over 4096 flows: full bursts, ring "
             "overflow, pool and lookup work dominate",
             _saturation),
    Workload("flow_churn",
             "Fig. 10 SDNFV: 9000 new flows/s, NF messages and rule writes "
             "beside lookups, HTTP parsing in the NFs",
             _churn, seed_invariant=()),
    Workload("wan_sharded",
             "22-node Rocketfuel 6-service chain on shards=2, workers=2: "
             "the only sharded-kernel rounds, codec and pipes",
             _wan, seed_invariant=WAN_SEED_INVARIANT),
)}
