"""Network-wide deployment: service graphs spanning arbitrary
topologies through the unified ``SdnfvApp.deploy(..., network=)``
path."""

import pytest

from repro.core import (
    EXIT,
    DistributedDeploymentError,
    SdnfvApp,
    ServiceGraph,
)
from repro.net import FiveTuple, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs import CounterNf
from repro.sim import MS
from repro.topology import Link, NodeSpec, Topology, build_network


def topology_of(count, extra_links=()):
    topology = Topology()
    names = [f"h{i}" for i in range(count)]
    for name in names:
        topology.add_node(NodeSpec(name=name, cores=4))
    for a, b in zip(names, names[1:]):
        topology.add_link(Link(a=a, b=b, delay_ns=20_000))
    for a, b in extra_links:
        topology.add_link(Link(a=a, b=b, delay_ns=20_000))
    return topology


def linear_graph(services):
    graph = ServiceGraph("dist")
    for name in services:
        graph.add_service(name, read_only=True)
    for a, b in zip(services, services[1:]):
        graph.add_edge(a, b, default=True)
    graph.add_edge(services[-1], EXIT, default=True)
    graph.set_entry(services[0])
    return graph


@pytest.fixture
def env(sim):
    def build(host_count, extra_links=()):
        network = build_network(sim, topology_of(host_count, extra_links))
        app = SdnfvApp(sim)
        for host in network.hosts.values():
            app.register_host(host)
        return app, network
    return build


def run_chain(sim, network, placement, services, count=5):
    nfs = {}
    for service in services:
        nf = CounterNf(service)
        nfs[service] = nf
        network.hosts[placement[service]].add_nf(nf)
    exit_host = network.hosts[placement[services[-1]]]
    out = []
    exit_host.port("eth1").on_egress = out.append
    entry_host = network.hosts[placement[services[0]]]
    flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
    for _ in range(count):
        entry_host.inject("eth0", Packet(flow=flow, size=256))
    sim.run(until=50 * MS)
    return out, nfs


class TestAdjacentHosts:
    def test_two_host_chain(self, sim, env):
        app, network = env(2)
        services = ["a", "b"]
        placement = {"a": "h0", "b": "h1"}
        graph = linear_graph(services)
        app.deploy(graph, placement=placement, network=network)
        out, nfs = run_chain(sim, network, placement, services)
        assert len(out) == 5
        assert nfs["a"].packets_seen == 5
        assert nfs["b"].packets_seen == 5
        assert app.deployments


class TestMultiHopPlacement:
    def test_non_adjacent_hosts_get_transit(self, sim, env):
        """a on h0, b on h2 with h1 purely in transit."""
        app, network = env(3)
        services = ["a", "b"]
        placement = {"a": "h0", "b": "h2"}
        app.deploy(linear_graph(services), placement=placement,
                   network=network)
        out, nfs = run_chain(sim, network, placement, services)
        assert len(out) == 5
        # h1 forwarded but hosted no NF work.
        transit = network.hosts["h1"]
        assert transit.stats.tx_packets == 5
        assert not transit.manager.services()

    def test_backtracking_chain(self, sim, env):
        """Chain visits h2 then returns to h0: both directions work."""
        app, network = env(3)
        services = ["a", "b", "c"]
        placement = {"a": "h0", "b": "h2", "c": "h0"}
        app.deploy(linear_graph(services), placement=placement,
                   network=network)
        out, nfs = run_chain(sim, network, placement, services)
        assert len(out) == 5
        assert all(nf.packets_seen == 5 for nf in nfs.values())


class TestValidationAndConflicts:
    def test_missing_placement_rejected(self, sim, env):
        app, network = env(2)
        graph = linear_graph(["a", "b"])
        with pytest.raises(DistributedDeploymentError, match="placement"):
            app.deploy(graph, placement={"a": "h0"}, network=network)

    def test_unknown_host_rejected(self, sim, env):
        app, network = env(2)
        graph = linear_graph(["a"])
        with pytest.raises(DistributedDeploymentError, match="unknown"):
            app.deploy(graph, placement={"a": "ghost"}, network=network)

    def test_network_deploy_requires_placement(self, sim, env):
        app, network = env(2)
        graph = linear_graph(["a"])
        with pytest.raises(DistributedDeploymentError, match="placement"):
            app.deploy(graph, network=network)

    def test_arrival_port_conflict_detected(self, sim, env):
        """Two services on h1 each fed from h0 would need the same
        arrival port to dispatch differently — rejected."""
        app, network = env(2)
        graph = ServiceGraph("fork")
        graph.add_service("src", read_only=True)
        graph.add_service("left", read_only=True)
        graph.add_service("right", read_only=True)
        graph.add_edge("src", "left", default=True)
        graph.add_edge("src", "right")
        graph.add_edge("left", EXIT, default=True)
        graph.add_edge("right", EXIT, default=True)
        graph.set_entry("src")
        placement = {"src": "h0", "left": "h1", "right": "h1"}
        with pytest.raises(DistributedDeploymentError, match="share"):
            app.deploy(graph, placement=placement, network=network)

    def test_parallel_chain_registered_when_colocated(self, sim, env):
        app, network = env(2)
        services = ["a", "b"]
        placement = {"a": "h0", "b": "h0"}
        for service in services:
            network.hosts["h0"].add_nf(CounterNf(service))
        app.deploy(linear_graph(services), placement=placement,
                   network=network)
        assert network.hosts["h0"].manager._parallel_chains.get(
            "a") == ["a", "b"]

    def test_split_chain_not_fused(self, sim, env):
        app, network = env(2)
        services = ["a", "b"]
        placement = {"a": "h0", "b": "h1"}
        app.deploy(linear_graph(services), placement=placement,
                   network=network)
        assert not network.hosts["h0"].manager._parallel_chains
        assert not network.hosts["h1"].manager._parallel_chains
