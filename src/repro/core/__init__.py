"""SDNFV's core: service graphs, the SDNFV Application, and placement.

This is the paper's primary contribution (§3): the hierarchical control
framework coordinating the SDN controller, per-host NF Managers, and the
NFs themselves, driven by service-graph abstractions and a placement
engine.
"""

from repro.core.app import GraphDeployment, SdnfvApp
from repro.core.deploy_rules import (
    DistributedDeploymentError,
    compile_distributed_rules,
    compile_proactive_rules,
)
from repro.core.placement import (
    DivisionSolver,
    FlowRequest,
    GreedySolver,
    MilpSolver,
    PlacementProblem,
    PlacementResult,
)
from repro.core.service_graph import DROP, EXIT, ServiceGraph
from repro.core.state import HierarchySnapshot, StateTier, classify_state

__all__ = [
    "DROP",
    "DistributedDeploymentError",
    "DivisionSolver",
    "EXIT",
    "compile_distributed_rules",
    "compile_proactive_rules",
    "FlowRequest",
    "GraphDeployment",
    "GreedySolver",
    "HierarchySnapshot",
    "MilpSolver",
    "PlacementProblem",
    "PlacementResult",
    "SdnfvApp",
    "ServiceGraph",
    "StateTier",
    "classify_state",
]
