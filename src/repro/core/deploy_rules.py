"""Pure compilation of a placed service graph into per-host flow rules.

The deployment *planning* half of ``SdnfvApp.deploy(..., network=)``:
given a graph, a service→host placement, and the topology's routing maps, emit
the ordered ``(host_name, FlowTableEntry)`` install sequence —

- per-service rules on the hosts that own them,
- the ingress rule on the entry service's host,
- arrival rules where cross-host edges land (scoped to the trunk port
  facing the upstream hop),
- transit rules on intermediate hosts when placed hosts are not adjacent.

No side effects and no references to live hosts, so the same compilation
runs identically on every shard of a sharded simulation (each shard then
installs only the entries for hosts it realizes) and in the unified
:meth:`repro.core.app.SdnfvApp.deploy` entry point.
"""

from __future__ import annotations

import typing

from repro.core.service_graph import DROP, EXIT, ServiceGraph
from repro.dataplane.actions import Destination, Drop, ToPort, ToService
from repro.dataplane.flow_table import FlowTableEntry
from repro.net.flow import FlowMatch

if typing.TYPE_CHECKING:  # pragma: no cover - planning-only import
    from repro.topology.topology import Topology


class DistributedDeploymentError(Exception):
    """The graph/placement combination cannot be expressed on this
    network (e.g. two different services would share an arrival port)."""


def compile_distributed_rules(
        graph: ServiceGraph,
        placement: typing.Mapping[str, str],
        topology: Topology,
        inter_host_ports: typing.Mapping[tuple[str, str], str],
        host_names: typing.Iterable[str],
        match: FlowMatch | None = None,
        ingress_port: str = "eth0",
        exit_port: str = "eth1",
        priority: int = 0) -> list[tuple[str, FlowTableEntry]]:
    """Compile a placed graph into an ordered install sequence.

    ``host_names`` is the full set of hosts the placement may target
    (every NFV host in the topology, not just the realized subset).
    The returned order — transit rules in path-walk order first, then
    each host's batch — is the order ``SdnfvApp.deploy`` installs, so
    routed deployments see byte-identical flow tables.
    """
    graph.validate()
    match = match or FlowMatch.any()
    host_names = list(host_names)
    known = set(host_names)
    for service in graph.services:
        if service not in placement:
            raise DistributedDeploymentError(
                f"service {service!r} has no placement")
        if placement[service] not in known:
            raise DistributedDeploymentError(
                f"{service!r} placed on unknown host "
                f"{placement[service]!r}")

    rules: dict[str, list[FlowTableEntry]] = {
        name: [] for name in host_names}
    transit: list[tuple[str, FlowTableEntry]] = []
    # (host, arrival_port) -> service, to detect conflicts.
    arrivals: dict[tuple[str, str], str] = {}

    def port_toward(src_host: str, dst_host: str) -> str:
        return inter_host_ports[(src_host, dst_host)]

    def arrival_port(dst_host: str, src_host: str) -> str:
        path = topology.shortest_path(src_host, dst_host)
        return f"to-{path[-2]}"

    def emit_transit(src_host: str, dst_host: str) -> None:
        path = topology.shortest_path(src_host, dst_host)
        for previous, current, nxt in zip(path, path[1:], path[2:],
                                          strict=False):
            transit.append((current, FlowTableEntry(
                scope=f"to-{previous}", match=match,
                actions=(ToPort(f"to-{nxt}"),))))

    def resolve(src_service: str, dst: str) -> Destination:
        if dst == EXIT:
            return ToPort(exit_port)
        if dst == DROP:
            return Drop()
        src_host = placement[src_service]
        dst_host = placement[dst]
        if src_host == dst_host:
            return ToService(dst)
        return ToPort(port_toward(src_host, dst_host))

    # Ingress rule on the entry host.
    entry_host = placement[graph.entry]
    rules[entry_host].append(FlowTableEntry(
        scope=ingress_port, match=match,
        actions=(ToService(graph.entry),), priority=priority))

    for service in graph.services:
        host_name = placement[service]
        actions = tuple(resolve(service, edge.dst)
                        for edge in graph.out_edges(service))
        rules[host_name].append(FlowTableEntry(
            scope=service, match=match, actions=actions,
            priority=priority))
        # Cross-host edges into this service need arrival + transit.
        for upstream in graph.predecessors(service):
            upstream_host = placement[upstream]
            if upstream_host == host_name:
                continue
            emit_transit(upstream_host, host_name)
            port = arrival_port(host_name, upstream_host)
            key = (host_name, port)
            existing = arrivals.get(key)
            if existing is None:
                arrivals[key] = service
                rules[host_name].append(FlowTableEntry(
                    scope=port, match=match,
                    actions=(ToService(service),), priority=priority))
            elif existing != service:
                raise DistributedDeploymentError(
                    f"services {existing!r} and {service!r} would share "
                    f"arrival port {port!r} on {host_name!r} for the "
                    "same match; refine the match or the placement")

    installs = list(transit)
    for host_name in host_names:
        installs.extend((host_name, entry)
                        for entry in rules[host_name])
    return installs


def compile_proactive_rules(
        graph: ServiceGraph,
        placement: typing.Mapping[str, str] | None = None,
        *,
        hosts: typing.Sequence[str],
        match: FlowMatch | None = None,
        ingress_port: str = "eth0",
        exit_port: str = "eth1",
        inter_host_ports: typing.Mapping[tuple[str, str], str] | None = None,
        priority: int = 0,
        topology: Topology | None = None,
        host_names: typing.Iterable[str] | None = None,
        ) -> list[tuple[str, FlowTableEntry]]:
    """Compile the multi-table pipeline a deployment pre-populates.

    The proactive half of the hybrid rule pipeline: the same per-host
    rules the reactive path would hand out one miss at a time, compiled
    up front in deterministic ``(host, entry)`` install order and marked
    ``proactive=True`` — so table-miss ``PacketInMessage``s only fire
    for flows *outside* the pre-installed cover, and the manager's miss
    classifier can tell a pre-populated hit from a reactively pulled
    one.

    Without ``topology`` this compiles ``graph.compile_rules`` per host
    in ``hosts`` order (adjacent/single-host placements — exactly what
    :meth:`SdnfvApp.deploy` installs).  With ``topology`` (and
    ``host_names``, the full host universe) it delegates to
    :func:`compile_distributed_rules` for the routed cover, transit and
    arrival rules included.
    """
    match = match or FlowMatch.any()
    if topology is not None:
        if placement is None:
            raise DistributedDeploymentError(
                "routed proactive compilation needs placement=")
        installs = compile_distributed_rules(
            graph, placement, topology=topology,
            inter_host_ports=inter_host_ports or {},
            host_names=(host_names if host_names is not None else hosts),
            match=match, ingress_port=ingress_port, exit_port=exit_port,
            priority=priority)
    else:
        graph.validate()
        installs = []
        for host_name in hosts:
            installs.extend(
                (host_name, entry) for entry in graph.compile_rules(
                    ingress_port=ingress_port, exit_port=exit_port,
                    match=match, placement=placement,
                    host=host_name if placement else None,
                    inter_host_ports=inter_host_ports,
                    priority=priority))
    for _host_name, entry in installs:
        entry.proactive = True
    return installs


def colocated_chains(graph: ServiceGraph,
                     placement: typing.Mapping[str, str]
                     ) -> list[tuple[str, list[str]]]:
    """Read-only parallel chains whose services share one host:
    ``(host_name, chain)`` pairs for parallel-chain registration."""
    out = []
    for chain in graph.parallel_chains():
        chain_hosts = {placement[service] for service in chain}
        if len(chain_hosts) == 1:
            out.append((chain_hosts.pop(), chain))
    return out
