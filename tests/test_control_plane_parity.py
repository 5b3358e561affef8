"""Golden parity: ``ControlPlane(shards=1)`` is the POX controller.

The paper's single-threaded controller is the plane's one-shard case.
Every run below must reproduce the goldens in
``tests/data/control_plane_golden.json``, recorded from the standalone
single-server controller before it became the plane's private per-shard
server: packet-for-packet delivery order, every latency sample, every
host ``summary()`` counter, the control-event timeline, and the kernel's
event, timer and cancel odometers.

Three cases are pinned.  Two routed two-host network runs — reactive
(every flow misses and pulls its rules through the controller) and
proactive (a full pre-populated cover, the slow path never fires) — and
one non-network two-host ``deploy(placement=...)`` whose proactive
pushes race the first packets through the controller queue.  That last
install goes through :meth:`ControlPlane.install_batch`, whose
single-shard fast path joins the per-host pushes behind one gate and one
completion event: the only pinned difference from the recorded run is
those two extra scheduled events.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

from repro.control import ControlPlane
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.metrics import EventLog
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, US, Simulator
from repro.topology import Fabric, Link, NodeSpec, Topology, build_network
from repro.workloads import FlowSpec, PktGen

DURATION = 120 * MS

FLOWS = (
    FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
    FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
    FiveTuple("10.0.0.5", "10.0.0.6", 6, 3, 443),
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "control_plane_golden.json").read_text())["cases"]

#: Events ``install_batch``'s single-shard fast path schedules on top of
#: the per-host pushes: the all-of gate and the completion event.
INSTALL_BATCH_EVENTS = 2


def single_shard(sim: Simulator) -> ControlPlane:
    return ControlPlane(sim, shards=1)


def two_host_topology() -> Topology:
    topology = Topology()
    topology.add_node(NodeSpec(name="h0", cores=4))
    topology.add_node(NodeSpec(name="h1", cores=4))
    topology.add_link(Link(a="h0", b="h1", delay_ns=500 * US))
    return topology


def chain_graph() -> ServiceGraph:
    graph = ServiceGraph("parity")
    graph.add_service("a", read_only=True)
    graph.add_service("b", read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", EXIT, default=True)
    graph.set_entry("a")
    return graph


def drive(sim: Simulator, hosts: dict, fabric: Fabric) -> dict:
    """Offer FLOWS at h0, record h1's egress, run; returns everything
    observable."""
    gen = PktGen(sim, hosts["h0"], measure_ports=())
    deliveries: list[tuple] = []

    def recording_hook(packet):
        flow = packet.flow
        deliveries.append((sim.now, packet.created_at,
                           (flow.src_ip, flow.dst_ip, flow.protocol,
                            flow.src_port, flow.dst_port)))
        gen._on_return(packet)

    hosts["h1"].port("eth1").on_egress = recording_hook
    for index, flow in enumerate(FLOWS):
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=200.0, packet_size=256,
                              start_ns=index * MS, stop_ns=80 * MS))
    sim.run(until=DURATION)
    return {
        "deliveries": deliveries,
        "latency_samples": list(gen.latency.samples_ns),
        "summaries": {name: host.stats.summary()
                      for name, host in hosts.items()},
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "sent": gen.sent,
        "frames_carried": fabric.frames_carried,
    }


def run_network(controller_factory, proactive: bool) -> dict:
    """One deterministic routed two-host run."""
    sim = Simulator()
    network = build_network(sim, two_host_topology())
    controller = controller_factory(sim)
    event_log = EventLog(sim)
    app = SdnfvApp(sim, controller=controller)
    for host in network.hosts.values():
        app.register_host(host)
        host.manager.controller = controller
    app.attach_event_log(event_log)
    placement = {"a": "h0", "b": "h1"}
    for service, host_name in placement.items():
        network.hosts[host_name].add_nf(NoOpNf(service), ring_slots=256)
    app.deploy(chain_graph(), placement=placement, network=network,
               proactive=proactive)
    result = drive(sim, network.hosts, network.fabric)
    result["events"] = list(event_log.events)
    return result


def run_deploy(controller_factory) -> dict:
    """A non-network two-host ``deploy(placement=...)`` through the
    controller, with traffic offered from time zero."""
    sim = Simulator()
    controller = controller_factory(sim)
    event_log = EventLog(sim)
    app = SdnfvApp(sim, controller=controller)
    fabric = Fabric(sim)
    hosts = {}
    for name in ("h0", "h1"):
        hosts[name] = NfvHost(sim, name=name, controller=controller,
                              ports=("eth0", "eth1", "trunk"))
        app.register_host(hosts[name])
        fabric.add_host(hosts[name])
    fabric.connect("h0", "trunk", "h1", "eth0")
    app.attach_event_log(event_log)
    hosts["h0"].add_nf(NoOpNf("a"), ring_slots=256)
    hosts["h1"].add_nf(NoOpNf("b"), ring_slots=256)
    app.deploy(chain_graph(), placement={"a": "h0", "b": "h1"},
               inter_host_ports={("h0", "h1"): "trunk",
                                 ("h1", "h0"): "trunk"})
    result = drive(sim, hosts, fabric)
    result["events"] = list(event_log.events)
    return result


def _digest(rows: list) -> dict:
    blob = json.dumps(rows, separators=(",", ":"), default=str).encode()
    return {"count": len(rows), "sha256": hashlib.sha256(blob).hexdigest()}


def golden_view(result: dict) -> dict:
    """The observables the golden file pins, in its own format."""
    return {
        "deliveries": _digest([list(row) for row in result["deliveries"]]),
        "latency_samples": _digest(result["latency_samples"]),
        "summaries": result["summaries"],
        "events": _digest([[event.timestamp_ns, event.category, event.host,
                            [list(pair) for pair in event.detail]]
                           for event in result["events"]]),
        "odometers": {key: result[key] for key in (
            "events_scheduled", "timers_scheduled", "events_cancelled")},
        "sent": result["sent"],
        "frames_carried": result["frames_carried"],
    }


@functools.cache
def plane_network_run(proactive: bool) -> dict:
    return run_network(single_shard, proactive=proactive)


def assert_matches_golden(case: str, view: dict,
                          extra_events: int = 0) -> None:
    golden = GOLDEN[case]
    assert view.keys() == golden.keys()
    for key in view:
        if key == "odometers":
            continue
        assert view[key] == golden[key], f"{case}: {key}"
    odometers = dict(golden["odometers"])
    odometers["events_scheduled"] += extra_events
    assert view["odometers"] == odometers, f"{case}: odometers"


class TestReactiveGoldenParity:
    """shards=1, proactive=False — the recorded controller run exactly."""

    def test_single_shard_plane_matches_plain_controller(self):
        result = plane_network_run(False)
        assert_matches_golden("network_reactive", golden_view(result))
        # Sanity: this really was the reactive slow path end to end.
        assert result["deliveries"]
        assert result["latency_samples"]
        assert result["summaries"]["h0"]["sdn_requests"] == len(FLOWS)
        assert result["summaries"]["h0"]["reactive_misses"] == len(FLOWS)

    def test_reactive_run_classifies_every_flow_as_miss(self):
        h0 = plane_network_run(False)["summaries"]["h0"]
        assert h0["proactive_hits"] == 0
        assert h0["reactive_misses"] == len(FLOWS)


class TestProactiveParity:
    """Full pre-population: the slow path never fires."""

    def test_proactive_cover_eliminates_misses(self):
        result = plane_network_run(True)
        for name in ("h0", "h1"):
            summary = result["summaries"][name]
            assert summary["sdn_requests"] == 0
            assert summary["reactive_misses"] == 0
        assert result["summaries"]["h0"]["proactive_hits"] == len(FLOWS)
        assert result["deliveries"]

    def test_proactive_runs_identical_across_front_ends(self):
        assert_matches_golden("network_proactive",
                              golden_view(plane_network_run(True)))

    def test_proactive_beats_reactive_first_packet_latency(self):
        # Same flows delivered, but the reactive run's first packets ate
        # a 31 ms controller round trip the proactive run never paid.
        def latencies(result):
            return [now - created for now, created, _flow
                    in result["deliveries"]]
        assert max(latencies(plane_network_run(True))) < 31 * MS
        assert max(latencies(plane_network_run(False))) > 31 * MS


class TestDeployParity:
    """The non-network multi-host deploy: pushes race the first misses
    through the one controller queue."""

    def test_two_host_deploy_matches_plain_controller(self):
        result = run_deploy(single_shard)
        assert_matches_golden("deploy_two_hosts", golden_view(result),
                              extra_events=INSTALL_BATCH_EVENTS)
        # Both the proactive pushes and the reactive slow path ran.
        h0 = result["summaries"]["h0"]
        assert h0["sdn_requests"] > 0
        assert h0["proactive_hits"] + h0["reactive_misses"] == len(FLOWS)
        assert result["deliveries"]
