"""The SDNFV Application: the global tier of the control hierarchy (§3.1).

It "has purview over the entire network": it holds the service graphs and
placement decisions, feeds flow rules to hosts through the SDN controller
(Fig. 2 steps 1–3), asks the NFV orchestrator to start VMs (step 4), and
validates / acts on cross-layer messages coming up from NFs (step 5).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.plane import ControlPlane
from repro.control.orchestrator import NfvOrchestrator
from repro.dataplane.flow_table import FlowTableEntry
from repro.dataplane.host import NfvHost
from repro.dataplane.messages import (
    ChangeDefault,
    NfMessage,
    RequestMe,
    SkipMe,
    UserMessage,
)
from repro.net.flow import FiveTuple, FlowMatch
from repro.core.deploy_rules import (
    DistributedDeploymentError,
    compile_distributed_rules,
    compile_proactive_rules,
)
from repro.core.service_graph import EXIT, ServiceGraph
from repro.sim.events import Event
from repro.sim.simulator import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.watchdog import NfWatchdog


@dataclasses.dataclass
class GraphDeployment:
    """One service graph instantiated in the network."""

    graph: ServiceGraph
    match: FlowMatch
    ingress_port: str
    exit_port: str
    placement: dict[str, str] | None = None  # service -> host name
    inter_host_ports: dict[tuple[str, str], str] | None = None
    priority: int = 0
    # Routed deployments (deploy(network=...)) remember the topology and
    # the full host universe, so on-demand rules_for can recompile the
    # routed cover (transit + arrival rules included) per host.
    topology: typing.Any = None
    host_names: tuple[str, ...] = ()

    def covers(self, flow: FiveTuple) -> bool:
        return self.match.matches(flow)

    def hosts(self, default_host: str) -> set[str]:
        if self.placement is None:
            return {default_host}
        return set(self.placement.values())


class SdnfvApp:
    """Global policies, graph deployment, and cross-layer coordination."""

    def __init__(self, sim: Simulator,
                 controller: ControlPlane | None = None,
                 orchestrator: NfvOrchestrator | None = None,
                 validation_latency_ns: int = 0,
                 trust_nfs: bool = True) -> None:
        self.sim = sim
        self.controller = controller
        self.orchestrator = orchestrator
        self.validation_latency_ns = validation_latency_ns
        self.trust_nfs = trust_nfs
        self.hosts: dict[str, NfvHost] = {}
        self.deployments: list[GraphDeployment] = []
        self._message_callbacks: dict[
            str, list[typing.Callable[[str, UserMessage], None]]] = {}
        self.messages_received: list[tuple[str, UserMessage]] = []
        self.rejected_messages: list[tuple[str, NfMessage]] = []
        self.telemetry: list[typing.Any] = []
        # Optional structured observability (repro.metrics.eventlog);
        # attach_event_log propagates it to hosts and the orchestrator.
        self.event_log: typing.Any | None = None
        if controller is not None and controller.northbound is None:
            controller.northbound = self

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_event_log(self, event_log: typing.Any) -> None:
        """Attach one control-event log to the app, every registered
        host, the orchestrator, and the controller."""
        self.event_log = event_log
        for host in self.hosts.values():
            host.manager.event_log = event_log
        if self.orchestrator is not None:
            self.orchestrator.event_log = event_log
        if self.controller is not None:
            self.controller.event_log = event_log

    # ------------------------------------------------------------------
    # Host / infrastructure registration
    # ------------------------------------------------------------------
    def register_host(self, host: NfvHost) -> None:
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        host.manager.user_message_sink = self._handle_user_message
        if not self.trust_nfs:
            host.manager.policy_validator = self
        if self.event_log is not None:
            host.manager.event_log = self.event_log
        if self.orchestrator is not None:
            self.orchestrator.register_host(host)

    # ------------------------------------------------------------------
    # Deployment (Fig. 2 steps 1–4)
    # ------------------------------------------------------------------
    def deploy(self, graph: ServiceGraph,
               ingress_port: str = "eth0", exit_port: str = "eth1",
               match: FlowMatch | None = None,
               placement: dict[str, str] | None = None,
               inter_host_ports: dict[tuple[str, str], str] | None = None,
               proactive: bool = True,
               priority: int = 0,
               auto_parallel: bool = False,
               network: typing.Any = None) -> GraphDeployment:
        """Instantiate a service graph.

        ``proactive=True`` pushes the compiled rules to every involved host
        immediately (pre-populated rules); with ``proactive=False`` rules
        are handed out on demand when hosts report flow-table misses.

        ``auto_parallel=True`` replaces the declared-read-only fusion with
        profile-driven layout synthesis: each host's registered NFs are
        statically analyzed (:mod:`repro.analysis.profiles`) and
        :meth:`ServiceGraph.auto_parallel_layout` fuses every adjacent run
        whose profiles are conflict-free — a superset of the read-only
        chains, with the manager's merge stage reconciling member writes
        in graph order.  Register the NFs (``host.add_nf``) *before*
        deploying: services without a VM yet fall back to the graph's
        declared bit.  The default (False) keeps the legacy behaviour
        bit-for-bit.

        With ``network=`` (a :class:`repro.topology.BuiltNetwork`), the
        deployment is *routed*: transit and arrival rules for non-adjacent
        placements compile from the network's topology, and ``placement``
        is required.
        """
        if network is not None:
            if auto_parallel:
                raise ValueError(
                    "auto_parallel= is not supported with network= "
                    "deployments; register profile-driven chains per "
                    "host instead")
            return self._deploy_on_network(
                graph, network, placement, match=match,
                ingress_port=ingress_port, exit_port=exit_port,
                priority=priority, proactive=proactive)
        graph.validate()
        match = match or FlowMatch.any()
        deployment = GraphDeployment(
            graph=graph, match=match, ingress_port=ingress_port,
            exit_port=exit_port, placement=placement,
            inter_host_ports=inter_host_ports, priority=priority)
        self.deployments.append(deployment)
        if self.event_log is not None:
            self.event_log.record("deploy", graph=graph.name,
                                  proactive=proactive,
                                  services=len(graph.services))
        # Sorted: the pushes queue at the controller in this order, so a
        # set's per-process hash order must not pick who is served first.
        involved = sorted(set(placement.values()) if placement
                          else self.hosts)
        pushes: list[tuple[NfvHost, list[FlowTableEntry]]] = []
        for host_name in involved:
            host = self.hosts[host_name]
            if auto_parallel:
                self._register_auto_parallel(graph, host, host_name,
                                             placement)
            else:
                for chain in graph.parallel_chains():
                    local = [service for service in chain
                             if placement is None
                             or placement[service] == host_name]
                    if len(local) == len(chain):
                        host.manager.register_parallel_chain(chain)
            if proactive:
                rules = [entry for _name, entry in compile_proactive_rules(
                    graph, placement, hosts=(host_name,), match=match,
                    ingress_port=ingress_port, exit_port=exit_port,
                    inter_host_ports=inter_host_ports, priority=priority)]
                pushes.append((host, rules))
        self._install_all(pushes)
        return deployment

    def _register_auto_parallel(self, graph: ServiceGraph, host: NfvHost,
                                host_name: str,
                                placement: dict[str, str] | None) -> None:
        """Profile-driven chain registration for one host.

        Analysis imports stay lazy (same pattern as the ownership
        verifier): a deployment that never opts in never loads the
        analysis package.
        """
        from repro.analysis.profiles import ActionProfile, profile_of

        profiles: dict[str, typing.Any] = {}
        for service in graph.services:
            vms = host.manager.vms_by_service.get(service, ())
            if vms:
                profile = profile_of(vms[0].nf)
                for vm in vms[1:]:
                    # Heterogeneous replicas: the service's effective
                    # profile is the union of its replicas' effects.
                    profile = profile.merged_with(profile_of(vm.nf))
            elif graph.is_read_only(service):
                profile = ActionProfile.declared_read_only()
            else:
                profile = ActionProfile.opaque_profile()
            profiles[service] = profile
        for group in graph.auto_parallel_layout(profiles):
            if len(group) < 2:
                continue
            local = [service for service in group
                     if placement is None
                     or placement[service] == host_name]
            if len(local) == len(group):
                host.manager.register_parallel_chain(group,
                                                     profiles=profiles)

    def _deploy_on_network(self, graph: ServiceGraph, network: typing.Any,
                           placement: dict[str, str] | None,
                           match: FlowMatch | None,
                           ingress_port: str, exit_port: str,
                           priority: int,
                           proactive: bool = True) -> GraphDeployment:
        """The routed deployment path (graphs spanning a topology).

        Compilation is pure (:mod:`repro.core.deploy_rules`); the install
        step only touches hosts the network actually realized, so a shard
        holding a subset of the hosts installs exactly its share of the
        same global plan.  With ``proactive=False`` nothing is installed
        up front: the deployment is registered and every host pulls its
        share of the routed cover on demand through the miss path.
        """
        from repro.core.deploy_rules import colocated_chains

        if placement is None:
            raise DistributedDeploymentError(
                "deploy(network=...) needs placement=")
        match = match or FlowMatch.any()
        host_names = (network.all_hosts if getattr(network, "all_hosts", ())
                      else tuple(network.hosts))
        if proactive:
            installs = compile_proactive_rules(
                graph, placement, hosts=host_names,
                topology=network.topology,
                inter_host_ports=network.inter_host_ports,
                host_names=host_names, match=match,
                ingress_port=ingress_port, exit_port=exit_port,
                priority=priority)
            for host_name, entry in installs:
                host = network.hosts.get(host_name)
                if host is not None:
                    host.install_rule(entry)
        else:
            # Validate the cover compiles (placement errors surface at
            # deploy time, not at first miss) without installing it.
            compile_distributed_rules(
                graph, placement, topology=network.topology,
                inter_host_ports=network.inter_host_ports,
                host_names=host_names, match=match,
                ingress_port=ingress_port, exit_port=exit_port,
                priority=priority)
        for host_name, chain in colocated_chains(graph, placement):
            host = network.hosts.get(host_name)
            if host is not None:
                host.manager.register_parallel_chain(chain)

        deployment = GraphDeployment(
            graph=graph, match=match, ingress_port=ingress_port,
            exit_port=exit_port, placement=dict(placement),
            inter_host_ports=dict(network.inter_host_ports),
            priority=priority, topology=network.topology,
            host_names=tuple(host_names))
        self.deployments.append(deployment)
        if self.event_log is not None:
            self.event_log.record(
                "deploy", graph=graph.name,
                hosts=len({placement[s] for s in graph.services}),
                services=len(graph.services))
        return deployment

    def _compile_for(self, deployment: GraphDeployment,
                     host_name: str) -> list[FlowTableEntry]:
        return deployment.graph.compile_rules(
            ingress_port=deployment.ingress_port,
            exit_port=deployment.exit_port,
            match=deployment.match,
            placement=deployment.placement,
            host=host_name if deployment.placement else None,
            inter_host_ports=deployment.inter_host_ports,
            priority=deployment.priority)

    def _install_all(self, pushes: list[tuple[NfvHost,
                                              list[FlowTableEntry]]]) -> None:
        """Install compiled per-host batches: directly without a
        controller, else one push for a single host, or — when the
        deployment spans hosts — one ``install_batch`` transaction with
        a deterministic commit order."""
        if self.controller is None:
            for host, rules in pushes:
                host.install_rules(rules)
        elif len(pushes) == 1:
            host, rules = pushes[0]
            self.controller.push_rules(host.manager, rules)
        elif pushes:
            self.controller.install_batch(
                [(host.manager, rules) for host, rules in pushes])

    def launch_nf(self, host: NfvHost | str,
                  nf_factory: typing.Callable[[], typing.Any],
                  mode: str | None = None) -> Event:
        """Start a new NF VM via the orchestrator (Fig. 2 step 4).

        ``mode`` is one of ``"boot"`` / ``"standby_process"`` /
        ``"restore"``.
        """
        if self.orchestrator is None:
            raise RuntimeError("no orchestrator attached")
        return self.orchestrator.launch_nf(host, nf_factory, mode=mode)

    # ------------------------------------------------------------------
    # Northbound interface for the SDN controller (on-demand rules)
    # ------------------------------------------------------------------
    def rules_for(self, host_name: str, scope: str,
                  flow: FiveTuple) -> list[FlowTableEntry]:
        """Rules for a reported miss: the host's share of the first
        deployment covering the flow.  Routed deployments recompile
        their topology-aware cover (transit and arrival rules included)
        and return this host's slice of it."""
        for deployment in self.deployments:
            if deployment.covers(flow):
                if deployment.topology is not None:
                    installs = compile_distributed_rules(
                        deployment.graph, deployment.placement,
                        topology=deployment.topology,
                        inter_host_ports=deployment.inter_host_ports,
                        host_names=deployment.host_names,
                        match=deployment.match,
                        ingress_port=deployment.ingress_port,
                        exit_port=deployment.exit_port,
                        priority=deployment.priority)
                    return [entry for name, entry in installs
                            if name == host_name]
                return self._compile_for(deployment, host_name)
        return []

    # ------------------------------------------------------------------
    # Cross-layer message validation (§3.4, untrusted NFs)
    # ------------------------------------------------------------------
    def validate(self, host_name: str, message: NfMessage) -> Event:
        """Policy check: NF requests must stay within the edges of the
        deployed service graphs."""
        verdict = self._is_permitted(message)
        event = self.sim.event()
        if not verdict:
            self.rejected_messages.append((host_name, message))
        if self.validation_latency_ns:
            self.sim.schedule(self.validation_latency_ns,
                              lambda: event.succeed(verdict))
        else:
            event.succeed(verdict)
        return event

    def _is_permitted(self, message: NfMessage) -> bool:
        if isinstance(message, UserMessage):
            return True
        if isinstance(message, ChangeDefault):
            for deployment in self.deployments:
                graph = deployment.graph
                if message.service not in graph.services:
                    continue
                if message.target.startswith("port:"):
                    return graph.has_edge(message.service, EXIT)
                if message.target == "drop":
                    return True
                return graph.has_edge(message.service, message.target)
            return False
        if isinstance(message, (SkipMe, RequestMe)):
            return any(message.service in deployment.graph.services
                       for deployment in self.deployments)
        return False

    # ------------------------------------------------------------------
    # NF → application messages (Fig. 2 step 5)
    # ------------------------------------------------------------------
    def on_message(self, key: str,
                   callback: typing.Callable[[str, UserMessage], None]
                   ) -> None:
        """Subscribe to UserMessages by key (e.g. a DDoS alarm handler)."""
        self._message_callbacks.setdefault(key, []).append(callback)

    def _handle_user_message(self, host_name: str,
                             message: UserMessage) -> None:
        self.messages_received.append((host_name, message))
        if self.event_log is not None:
            self.event_log.record("nf_message_up", host=host_name,
                                  key=message.key,
                                  sender=message.sender_service)
        for callback in self._message_callbacks.get(message.key, ()):
            callback(host_name, message)

    # ------------------------------------------------------------------
    # Auto-scaling: overload-driven replica instantiation
    # ------------------------------------------------------------------
    def enable_autoscaling(
            self, host: NfvHost | str,
            nf_factories: typing.Mapping[
                str, typing.Callable[[], typing.Any]],
            interval_ns: int = 100_000_000,
            threshold_slots: int = 256,
            max_replicas: int = 4,
            mode: str = "standby_process") -> None:
        """Boot extra replicas of overloaded services automatically.

        Wires the NF Manager's overload monitor (host tier) to the NFV
        orchestrator (global tier): sustained queue pressure on a service
        in ``nf_factories`` launches one more replica, up to
        ``max_replicas``, using a fast launch mode by default
        (``mode="standby_process"``).
        """
        if self.orchestrator is None:
            raise RuntimeError("autoscaling needs an orchestrator")
        self.orchestrator.launch_time_ns(mode)  # reject bad modes up front
        if isinstance(host, str):
            host = self.hosts[host]
        manager = host.manager
        pending: set[str] = set()

        def on_overload(service_id: str, depth: int) -> None:
            factory = nf_factories.get(service_id)
            if factory is None or service_id in pending:
                return
            replicas = len(manager.vms_by_service.get(service_id, ()))
            if replicas >= max_replicas:
                return
            pending.add(service_id)
            ready = self.orchestrator.launch_nf(host, factory, mode=mode)
            ready.callbacks.append(
                lambda _event: pending.discard(service_id))

        manager.start_overload_monitor(
            interval_ns=interval_ns, threshold_slots=threshold_slots,
            callback=on_overload)

    # ------------------------------------------------------------------
    # Failover: watchdog-driven replacement of dead / wedged NFs
    # ------------------------------------------------------------------
    def enable_failover(
            self, host: NfvHost | str,
            nf_factories: typing.Mapping[
                str, typing.Callable[[], typing.Any]],
            interval_ns: int = 10_000_000,
            heartbeat_timeout_ns: int = 50_000_000,
            mode: str = "standby_process",
            max_respawns: int = 8) -> NfWatchdog:
        """Detect dead or wedged NFs on ``host`` and replace them.

        Starts an :class:`~repro.faults.watchdog.NfWatchdog` on the
        host's manager; when a VM of a service in ``nf_factories`` fails,
        the watchdog salvages its queue (requeue to survivors / default-
        edge degradation), quarantines the service while it has no
        replicas, and this wiring launches a replacement through the
        orchestrator using a fast launch ``mode`` ("standby_process" or
        "restore").  When the replacement registers, quarantined rules
        are reinstated and the recovery (MTTR, packets lost) is recorded.
        ``max_respawns`` bounds replacement launches per service.
        """
        from repro.faults.watchdog import NfWatchdog

        if self.orchestrator is None:
            raise RuntimeError("failover needs an orchestrator")
        self.orchestrator.launch_time_ns(mode)  # reject bad modes up front
        if isinstance(host, str):
            host = self.hosts[host]
        respawns: dict[str, int] = {}

        def on_failure(service_id: str, vm: typing.Any,
                       cause: str) -> None:
            factory = nf_factories.get(service_id)
            if factory is None:
                return
            if respawns.get(service_id, 0) >= max_respawns:
                return
            respawns[service_id] = respawns.get(service_id, 0) + 1
            ready = self.orchestrator.launch_nf(host, factory, mode=mode)
            ready.callbacks.append(
                lambda _event: watchdog.notify_replacement(service_id))

        watchdog = NfWatchdog(
            host.manager, interval_ns=interval_ns,
            heartbeat_timeout_ns=heartbeat_timeout_ns,
            on_failure=on_failure)
        return watchdog.start()

    # ------------------------------------------------------------------
    # Telemetry: periodic upward state flow (§3.4 "NF–SDN Coordination")
    # ------------------------------------------------------------------
    def start_telemetry(self, interval_ns: int,
                        callback: typing.Callable[
                            [typing.Any], None] | None = None) -> None:
        """Periodically gather a HierarchySnapshot from every tier.

        The paper argues NF→SDN information flow (flow rates, drop rates,
        application triggers) needs first-class support; this is the
        polling half — UserMessages through :meth:`on_message` are the
        event-driven half.  Snapshots accumulate in ``telemetry``.
        """
        if interval_ns <= 0:
            raise ValueError("telemetry interval must be positive")
        self.sim.process(self._telemetry_loop(interval_ns, callback))

    def _telemetry_loop(self, interval_ns, callback):
        from repro.core.state import HierarchySnapshot
        while True:
            yield self.sim.timeout(interval_ns)
            snapshot = HierarchySnapshot.gather(self)
            self.telemetry.append(snapshot)
            if callback is not None:
                callback(snapshot)

    # ------------------------------------------------------------------
    # Network-wide rule updates initiated from the top
    # ------------------------------------------------------------------
    def broadcast_message(self, message: NfMessage,
                          hosts: typing.Iterable[str] | None = None
                          ) -> None:
        """Apply a cross-layer rewrite on many hosts (the 'affects other
        hosts' path of §3.4)."""
        for host_name in (hosts if hosts is not None else self.hosts):
            self.hosts[host_name].manager.apply_message(message)
