"""NfvHost: one SDNFV host = an NF Manager plus its NIC ports and VMs.

A convenience facade that wires the pieces of :mod:`repro.dataplane`
together the way the paper's testbed does (§5 setup): NIC ports, the NF
Manager threads, and registered NF VMs, with an optional SDN control
channel attached.
"""

from __future__ import annotations

import typing

from repro.dataplane.actions import Destination
from repro.dataplane.costs import HostCosts
from repro.dataplane.flow_table import FlowTableEntry
from repro.dataplane.load_balancer import LoadBalancePolicy
from repro.dataplane.manager import (
    DEFAULT_BURST_SIZE,
    ControlPlanePolicy,
    NfManager,
    NicPort,
)
from repro.net.mempool import DEFAULT_POOL_SIZE, PacketPool
from repro.dataplane.vm import NfVm
from repro.nfs.base import NetworkFunction
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator


class NfvHost:
    """A simulated SDNFV host."""

    def __init__(self, sim: Simulator, name: str = "host0",
                 costs: HostCosts | None = None,
                 controller: typing.Any | None = None,
                 ports: typing.Sequence[str] | None = None,
                 ingress_port: str = "eth0",
                 exit_port: str = "eth1",
                 extra_ports: typing.Sequence[str] = (),
                 line_rate_gbps: float = 10.0,
                 tx_threads: int = 2,
                 load_balance: LoadBalancePolicy = (
                     LoadBalancePolicy.LEAST_QUEUE),
                 lookup_cache: bool = True,
                 conflict_policy: str = "action_priority",
                 control_policy: ControlPlanePolicy | None = None,
                 miss_fallback: Destination | None = None,
                 burst_size: int = DEFAULT_BURST_SIZE,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 seed: int = 0,
                 verify: bool = False) -> None:
        self.sim = sim
        self.name = name
        # Normalized port construction (shared with build_network and
        # SdnfvApp.deploy): either pass an explicit ``ports`` tuple, or
        # let ``ingress_port`` / ``exit_port`` / ``extra_ports`` assemble
        # one.  The first two are remembered so deploy-time code can ask
        # a host where traffic enters and leaves.
        if ports is None:
            ports = (ingress_port, exit_port, *extra_ports)
        self.ingress_port = ingress_port if ingress_port in ports else ports[0]
        self.exit_port = (exit_port if exit_port in ports
                          else ports[min(1, len(ports) - 1)])
        self.manager = NfManager(
            sim, name=name, costs=costs, controller=controller,
            tx_threads=tx_threads, load_balance=load_balance,
            lookup_cache=lookup_cache, conflict_policy=conflict_policy,
            control_policy=control_policy, miss_fallback=miss_fallback,
            burst_size=burst_size, pool_size=pool_size,
            streams=RandomStreams(seed=seed))
        for port_name in ports:
            self.manager.add_port(port_name, line_rate_gbps=line_rate_gbps)
        # Opt-in ownership verification (repro.analysis.ownership): when
        # off — the default — no wrapper exists and the data plane runs
        # the exact unmodified class methods (zero overhead, see the
        # verify-parity tests).  Imported lazily so the fast path never
        # even loads the analysis package.
        self.verifier = None
        if verify:
            from repro.analysis.ownership import HostVerifier
            self.verifier = HostVerifier(self)

    # ------------------------------------------------------------------
    # Pass-throughs
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.manager.stats

    @property
    def flow_table(self):
        return self.manager.flow_table

    @property
    def costs(self) -> HostCosts:
        return self.manager.costs

    @property
    def packet_pool(self) -> PacketPool | None:
        """The host's packet mempool (None when ``pool_size=0``)."""
        return self.manager.packet_pool

    def port(self, name: str) -> NicPort:
        return self.manager.ports[name]

    def add_nf(self, nf: NetworkFunction, ring_slots: int = 512,
               priority: int = 0) -> NfVm:
        """Register an NF VM with the manager (§3.3 handshake)."""
        return self.manager.register_vm(nf, ring_slots=ring_slots,
                                        priority=priority)

    def install_rule(self, entry: FlowTableEntry) -> None:
        self.manager.install_rule(entry)

    def install_rules(self,
                      entries: typing.Iterable[FlowTableEntry]) -> None:
        for entry in entries:
            self.manager.install_rule(entry)

    def inject(self, port_name: str, packet) -> bool:
        """Deliver a packet to a port's ingress (what the wire does).

        Returns False when the NIC RX ring is full and the frame dropped.
        """
        return self.manager.ports[port_name].receive(packet)

    def __repr__(self) -> str:
        services = ", ".join(self.manager.services())
        return f"<NfvHost {self.name} services=[{services}]>"
