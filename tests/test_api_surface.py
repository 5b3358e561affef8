"""The blessed surface stays importable *and* documented.

``repro.api.__all__`` is a promise: every name resolves to a real
object, and every name appears in ``docs/api_guide.md`` so a reader can
find out what it is without reading source.
"""

import pathlib

import repro.api
import repro.core

DOCS = (pathlib.Path(__file__).resolve().parent.parent
        / "docs" / "api_guide.md")


#: The blessed surface, pinned: adding or retiring a name is a
#: deliberate API change that edits this set and the guide together.
SURFACE = frozenset({
    # kernel
    "AllOf", "AnyOf", "Event", "Interrupt", "MS", "NS", "Process",
    "RandomStreams", "S", "Simulator", "Store", "Timeout", "US",
    "ns_to_seconds", "seconds_to_ns",
    # packets and flows
    "FiveTuple", "FlowMatch", "Packet",
    # data plane
    "ControlPlanePolicy", "DEFAULT_BURST_SIZE", "Drop", "FlowTable",
    "FlowTableEntry", "HostCosts", "HostStats", "LoadBalancePolicy",
    "NfManager", "NfVm", "NfvHost", "ToPort", "ToService", "Verdict",
    # cross-layer messages
    "ChangeDefault", "NfMessage", "RequestMe", "SkipMe", "UserMessage",
    # NF programming model
    "NetworkFunction", "action_profile", "NfContext",
    # control tier
    "ControlPlane", "NfvOrchestrator",
    # global tier
    "DROP", "EXIT", "GraphDeployment", "SdnfvApp", "ServiceGraph",
    "compile_proactive_rules",
    # faults and resilience
    "ControllerOutage", "FaultInjector", "FaultPlan", "HostOverload",
    "LinkFlap", "NfCrash", "NfHang", "NfWatchdog",
    # topology and the sharded kernel
    "BoundaryWire", "BuiltNetwork", "Link", "NodeSpec", "Topology",
    "build_network", "Scenario", "ShardPlan", "ShardRuntime",
    "ShardedRunResult", "ShardedSimulator", "TrafficSpec",
    # observability and verification
    "ControlPlaneMonitor", "EventLog", "FlowSpec", "PktGen",
    "merge_events", "HostVerifier", "OwnershipError", "VerifyReport",
})


def test_every_exported_name_is_importable():
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name
    for name in repro.core.__all__:
        assert getattr(repro.core, name, None) is not None, name


def test_surface_is_exactly_the_pinned_set():
    assert set(repro.api.__all__) == SURFACE


def test_all_is_sorted_within_sections_and_duplicate_free():
    names = repro.api.__all__
    assert len(names) == len(set(names))


def test_every_exported_name_is_documented():
    guide = DOCS.read_text()
    missing = [name for name in repro.api.__all__ if name not in guide]
    assert missing == [], f"undocumented exports: {missing}"


def test_sharded_entry_points_are_exported():
    # The unified deploy path and the sharded kernel, by name.
    assert callable(repro.api.SdnfvApp.deploy)
    for name in ("ShardedSimulator", "ShardPlan", "Scenario",
                 "TrafficSpec", "build_network"):
        assert name in repro.api.__all__
