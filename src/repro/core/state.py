"""The state hierarchy model (§3.1).

SDNFV classifies middlebox state along two axes following Split/Merge:
internal (NF-specific or host-specific) versus external (partitioned or
coherent), and assigns each kind to the tier that can gather it most
cheaply.  :func:`classify_state` encodes the §3.1 decision table;
:class:`HierarchySnapshot` gathers one consistent cross-tier view — the
coarse-grained global picture the SDNFV Application works from.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.app import SdnfvApp


class StateTier(enum.Enum):
    """Where a piece of state lives in the SDNFV hierarchy."""

    NF = "nf"                      # inside one network function
    NF_MANAGER = "nf_manager"      # per-host
    SDNFV_APP = "sdnfv_app"        # global


class StateKind(enum.Enum):
    """Split/Merge-style classification of middlebox state."""

    NF_INTERNAL = "nf_internal"           # app logic, caches
    HOST_INTERNAL = "host_internal"       # queue occupancy, NF list
    EXTERNAL_PARTITIONED = "external_partitioned"  # per-NF protocol state
    EXTERNAL_COHERENT = "external_coherent"        # must be consistent


_PLACEMENT = {
    StateKind.NF_INTERNAL: StateTier.NF,
    StateKind.HOST_INTERNAL: StateTier.NF_MANAGER,
    StateKind.EXTERNAL_PARTITIONED: StateTier.NF,
    StateKind.EXTERNAL_COHERENT: StateTier.SDNFV_APP,
}


def classify_state(internal: bool, host_scoped: bool = False,
                   coherent: bool = False) -> tuple[StateKind, StateTier]:
    """Classify a piece of state and name the tier that should hold it.

    ``internal`` state never influences routing outside its owner;
    ``host_scoped`` internal state (queue lengths, NF lists) belongs to
    the NF Manager; external state is ``coherent`` when it must stay
    consistent across NF instances (then only the global tier can own it).
    """
    if internal:
        kind = (StateKind.HOST_INTERNAL if host_scoped
                else StateKind.NF_INTERNAL)
    else:
        kind = (StateKind.EXTERNAL_COHERENT if coherent
                else StateKind.EXTERNAL_PARTITIONED)
    return kind, _PLACEMENT[kind]


@dataclasses.dataclass
class HostView:
    """What the global tier sees of one host."""

    name: str
    services: list[str]
    queue_depths: dict[str, int]
    stats: dict[str, int]
    flow_table_size: int


@dataclasses.dataclass
class HierarchySnapshot:
    """A coarse-grained, point-in-time view across all three tiers."""

    taken_at_ns: int
    hosts: dict[str, HostView]
    controller: dict[str, typing.Any] | None  # ControlPlane.snapshot()
    deployments: list[str]

    @classmethod
    def gather(cls, app: SdnfvApp) -> HierarchySnapshot:
        hosts = {}
        for name, host in app.hosts.items():
            manager = host.manager
            hosts[name] = HostView(
                name=name,
                services=manager.services(),
                queue_depths=manager.service_queue_depths(),
                stats=manager.stats.summary(),
                flow_table_size=len(manager.flow_table),
            )
        controller = (app.controller.snapshot()
                      if app.controller is not None else None)
        return cls(
            taken_at_ns=app.sim.now,
            hosts=hosts,
            controller=controller,
            deployments=[deployment.graph.name
                         for deployment in app.deployments],
        )

    def total_packets(self) -> tuple[int, int]:
        """(rx, tx) packets across all hosts."""
        rx = sum(view.stats["rx_packets"] for view in self.hosts.values())
        tx = sum(view.stats["tx_packets"] for view in self.hosts.values())
        return rx, tx

    def format(self) -> str:
        """Operator-readable summary of the whole hierarchy."""
        from repro.sim.units import S
        lines = [f"=== hierarchy snapshot @ {self.taken_at_ns / S:.3f}s ==="]
        if self.deployments:
            lines.append(f"deployments: {', '.join(self.deployments)}")
        for name in sorted(self.hosts):
            view = self.hosts[name]
            stats = view.stats
            lines.append(
                f"  {name}: rx={stats['rx_packets']} "
                f"tx={stats['tx_packets']} "
                f"drops={stats['dropped_by_nf'] + stats['dropped_ring_full'] + stats['dropped_no_rule'] + stats['dropped_no_vm']} "
                f"rules={view.flow_table_size}")
            for service in sorted(view.services):
                depth = view.queue_depths.get(service, 0)
                lines.append(f"    svc {service}: queue={depth}")
        if self.controller is not None:
            rows = self.controller["shards"]
            requests = sum(row["requests"] for row in rows)
            max_queue = max(row["max_queue"] for row in rows)
            lines.append(f"  controller: requests={requests} "
                         f"max_queue={max_queue}")
        return "\n".join(lines)
