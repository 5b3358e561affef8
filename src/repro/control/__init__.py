"""The SDN control tier: the controller, the orchestrator, messages.

The SDN Controller and NFV Orchestrator "provide interfaces between the
SDNFV Application and the NF Manager" (§3.1).  :class:`ControlPlane` is
the controller: one POX-like single-threaded request server by default,
whose saturation behaviour drives Figs. 1 and 10, or N such shards
partitioned over flow space, with a two-phase protocol for cross-shard
rule installs.
"""

from repro.control.openflow import (
    CommitInstall,
    FlowModMessage,
    PacketInMessage,
    PrepareInstall,
)
from repro.control.orchestrator import NfvOrchestrator
from repro.control.plane import ControlPlane, ControlPlaneStats

__all__ = [
    "CommitInstall",
    "ControlPlane",
    "ControlPlaneStats",
    "FlowModMessage",
    "NfvOrchestrator",
    "PacketInMessage",
    "PrepareInstall",
]
