"""Build a running multi-host deployment directly from a Topology.

Bridges the planning world (``repro.topology.Topology``, the placement
engine) and the running world (``NfvHost`` + ``Fabric``): every NFV-host
node becomes a simulated host, every topology link becomes a pair of
trunk ports patched through the fabric, and the returned
``inter_host_ports`` map plugs straight into
:meth:`repro.core.app.SdnfvApp.deploy`.

Partial builds (``only_hosts=``) realize just a subset of the NFV hosts
— one shard's share of the network.  Links whose far end is unrealized
become :class:`BoundaryWire` records instead of fabric wires; the
sharded kernel (:mod:`repro.sim.sharded`) turns those into serialized
boundary events between shards.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataplane.costs import HostCosts
from repro.dataplane.host import NfvHost
from repro.dataplane.manager import DEFAULT_BURST_SIZE
from repro.net.mempool import DEFAULT_POOL_SIZE
from repro.sim.simulator import Simulator
from repro.topology.fabric import Fabric
from repro.topology.nodes import NodeKind
from repro.topology.topology import Topology


@dataclasses.dataclass(frozen=True)
class BoundaryWire:
    """A directed topology link whose destination host is unrealized.

    The source port exists (on a realized host); the frame must leave
    the local shard and be delivered ``delay_ns`` later to ``dst_port``
    on whichever shard owns ``dst_host``.
    """

    src_host: str
    src_port: str
    dst_host: str
    dst_port: str
    delay_ns: int


@dataclasses.dataclass
class BuiltNetwork:
    """The realized network: hosts, wiring, and the port map."""

    hosts: dict[str, NfvHost]
    fabric: Fabric
    inter_host_ports: dict[tuple[str, str], str]
    topology: Topology
    #: Every NFV host name in the topology, in node order — the full
    #: network even when this build realized only a subset.
    all_hosts: tuple[str, ...] = ()
    #: Directed links leaving this build's realized hosts for unrealized
    #: ones (empty on a full build).
    boundary_wires: list[BoundaryWire] = dataclasses.field(
        default_factory=list)

    def host(self, name: str) -> NfvHost:
        return self.hosts[name]

    def install_transit(self, match, src: str, dst: str) -> list[str]:
        """Install forwarding rules on intermediate hosts so ``match``
        traffic can cross from ``src`` to ``dst`` over a multi-hop path.

        Returns the node path used.  Hosts that terminate or originate
        the traffic get their rules from the service-graph compilation;
        only the pure-transit middle hops are handled here.  Unrealized
        middle hops (partial builds) are skipped — the shard that owns
        them installs the same rules from its own copy of the plan.
        """
        from repro.dataplane.actions import ToPort
        from repro.dataplane.flow_table import FlowTableEntry

        path = self.topology.shortest_path(src, dst)
        for previous, current, nxt in zip(path, path[1:], path[2:],
                                          strict=False):
            if current not in self.hosts:
                continue
            self.hosts[current].install_rule(FlowTableEntry(
                scope=f"to-{previous}", match=match,
                actions=(ToPort(f"to-{nxt}"),)))
        return path


def build_network(sim: Simulator, topology: Topology,
                  costs: HostCosts | None = None,
                  ingress_port: str = "eth0",
                  exit_port: str = "eth1",
                  line_rate_gbps: float = 10.0,
                  burst_size: int = DEFAULT_BURST_SIZE,
                  pool_size: int = DEFAULT_POOL_SIZE,
                  seed: int = 0,
                  verify: bool = False,
                  only_hosts: typing.Iterable[str] | None = None
                  ) -> BuiltNetwork:
    """Instantiate every NFV-host node and wire the topology's links.

    Each host gets ``ingress_port`` and ``exit_port`` plus one trunk port
    per attached link, named ``to-<neighbor>``.  Link delays carry over
    to the fabric wires; link capacities to the trunk line rates.
    ``burst_size`` / ``pool_size`` / ``seed`` / ``verify`` pass through
    to every :class:`NfvHost` (same names, same defaults).

    ``only_hosts`` realizes a subset of the NFV hosts (one shard's
    share); links to unrealized neighbors are returned as
    ``boundary_wires`` instead of being patched through the fabric.
    """
    fabric = Fabric(sim)
    hosts: dict[str, NfvHost] = {}
    inter_host_ports: dict[tuple[str, str], str] = {}
    boundary_wires: list[BoundaryWire] = []

    nfv_names = [name for name in topology.node_names
                 if topology.node(name).kind is NodeKind.NFV_HOST]
    owned = set(nfv_names) if only_hosts is None else set(only_hosts)
    unknown = owned - set(nfv_names)
    if unknown:
        raise ValueError(f"only_hosts names unknown NFV hosts: "
                         f"{sorted(unknown)}")

    for name in nfv_names:
        if name not in owned:
            continue
        trunk_ports = [f"to-{neighbor}"
                       for neighbor in topology.neighbors(name)]
        host = NfvHost(sim, name=name, costs=costs,
                       ingress_port=ingress_port, exit_port=exit_port,
                       extra_ports=trunk_ports,
                       line_rate_gbps=line_rate_gbps,
                       burst_size=burst_size, pool_size=pool_size,
                       seed=seed, verify=verify)
        hosts[name] = host
        fabric.add_host(host)

    for link in topology.links:
        if link.a not in nfv_names or link.b not in nfv_names:
            continue
        for src, dst in ((link.a, link.b), (link.b, link.a)):
            if src not in hosts:
                continue
            if dst in hosts:
                fabric.connect(src, f"to-{dst}", dst, f"to-{src}",
                               delay_ns=link.delay_ns, bidirectional=False)
            else:
                boundary_wires.append(BoundaryWire(
                    src_host=src, src_port=f"to-{dst}",
                    dst_host=dst, dst_port=f"to-{src}",
                    delay_ns=link.delay_ns))

    # Next-hop port toward every other host (shortest path), computed
    # over the FULL topology: rules compiled on a realized host may point
    # at trunks toward unrealized hosts.  Multi-hop pairs additionally
    # need transit rules on the intermediate hosts — see
    # BuiltNetwork.install_transit.
    for src in nfv_names:
        for dst in nfv_names:
            if src == dst:
                continue
            path = topology.shortest_path(src, dst)
            inter_host_ports[(src, dst)] = f"to-{path[1]}"

    return BuiltNetwork(hosts=hosts, fabric=fabric,
                        inter_host_ports=inter_host_ports,
                        topology=topology,
                        all_hosts=tuple(nfv_names),
                        boundary_wires=boundary_wires)
