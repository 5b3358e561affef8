"""``repro.api`` — the blessed public surface, importable from one place.

Examples, docs, and downstream code should prefer::

    from repro.api import Simulator, NfvHost, SdnfvApp, PktGen, FaultPlan

over deep module paths.  Deep imports (``repro.dataplane.manager`` etc.)
keep working and remain the right choice for internals and rarely-used
helpers; everything re-exported here is covered by the API guide
(``docs/api_guide.md``) and kept stable across releases.
"""

from __future__ import annotations

# Simulation kernel
from repro.sim import (
    MS,
    NS,
    S,
    US,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Store,
    Timeout,
    ns_to_seconds,
    seconds_to_ns,
)
from repro.sim.randomness import RandomStreams

# Packets and flows
from repro.net import FiveTuple, FlowMatch, Packet

# Data plane (one SDNFV host)
from repro.dataplane import (
    DEFAULT_BURST_SIZE,
    ControlPlanePolicy,
    Drop,
    FlowTable,
    FlowTableEntry,
    HostCosts,
    HostStats,
    LoadBalancePolicy,
    NfManager,
    NfVm,
    NfvHost,
    ToPort,
    ToService,
    Verdict,
)
from repro.dataplane.messages import (
    ChangeDefault,
    NfMessage,
    RequestMe,
    SkipMe,
    UserMessage,
)

# NF programming model
from repro.nfs import NetworkFunction, NfContext, action_profile

# Control tier
from repro.control import ControlPlane, NfvOrchestrator

# Global tier: graphs, the application, placement
from repro.core import (
    DROP,
    EXIT,
    GraphDeployment,
    SdnfvApp,
    ServiceGraph,
    compile_proactive_rules,
)

# Faults and resilience
from repro.faults import (
    ControllerOutage,
    FaultInjector,
    FaultPlan,
    HostOverload,
    LinkFlap,
    NfCrash,
    NfHang,
    NfWatchdog,
)

# Topology building
from repro.topology import (
    BoundaryWire,
    BuiltNetwork,
    Link,
    NodeSpec,
    Topology,
    build_network,
)

# Sharded parallel simulation
from repro.sim.sharded import (
    Scenario,
    ShardPlan,
    ShardRuntime,
    ShardedRunResult,
    ShardedSimulator,
    TrafficSpec,
)

# Workloads and observability
from repro.metrics.controlplane import ControlPlaneMonitor
from repro.metrics.eventlog import EventLog, merge_events
from repro.workloads import FlowSpec, PktGen

# Correctness tooling (the dynamic layer of repro.analysis; the static
# lint layer is the `tools/sdnfv_lint.py` CLI, not a library API)
from repro.analysis import HostVerifier, OwnershipError, VerifyReport

__all__ = [
    # kernel
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "MS",
    "NS",
    "Process",
    "RandomStreams",
    "S",
    "Simulator",
    "Store",
    "Timeout",
    "US",
    "ns_to_seconds",
    "seconds_to_ns",
    # packets and flows
    "FiveTuple",
    "FlowMatch",
    "Packet",
    # data plane
    "ControlPlanePolicy",
    "DEFAULT_BURST_SIZE",
    "Drop",
    "FlowTable",
    "FlowTableEntry",
    "HostCosts",
    "HostStats",
    "LoadBalancePolicy",
    "NfManager",
    "NfVm",
    "NfvHost",
    "ToPort",
    "ToService",
    "Verdict",
    # cross-layer messages
    "ChangeDefault",
    "NfMessage",
    "RequestMe",
    "SkipMe",
    "UserMessage",
    # NF programming model
    "NetworkFunction",
    "action_profile",
    "NfContext",
    # control tier
    "ControlPlane",
    "NfvOrchestrator",
    # global tier
    "DROP",
    "EXIT",
    "GraphDeployment",
    "SdnfvApp",
    "ServiceGraph",
    "compile_proactive_rules",
    # faults and resilience
    "ControllerOutage",
    "FaultInjector",
    "FaultPlan",
    "HostOverload",
    "LinkFlap",
    "NfCrash",
    "NfHang",
    "NfWatchdog",
    # topology building
    "BoundaryWire",
    "BuiltNetwork",
    "Link",
    "NodeSpec",
    "Topology",
    "build_network",
    # sharded parallel simulation
    "Scenario",
    "ShardPlan",
    "ShardRuntime",
    "ShardedRunResult",
    "ShardedSimulator",
    "TrafficSpec",
    # workloads and observability
    "ControlPlaneMonitor",
    "EventLog",
    "FlowSpec",
    "PktGen",
    "merge_events",
    # correctness tooling
    "HostVerifier",
    "OwnershipError",
    "VerifyReport",
]
