"""The simulated NetSolve-like platform (ground truth).

This package models everything that, in the paper, was the *real* testbed:
the time-shared servers with memory pressure and speed noise, the LAN links,
the load monitors, the agent and the clients.  The agent's knowledge is
strictly limited to what monitors report and what the Historical Trace
Manager simulates — the separation between ground truth and agent knowledge
is what makes the comparison between MCT and the HTM heuristics meaningful.
"""

from .agent import Agent, AgentStats, ServerRegistration
from .client import Client
from .faults import (
    FaultSchedule,
    FaultTolerancePolicy,
    MemoryModel,
    OutageWindow,
    SlowdownWindow,
    SpeedNoiseModel,
)
from .middleware import GridMiddleware, MiddlewareConfig, RunResult
from .monitors import LoadMonitor, LoadReport
from .server import (
    RESOURCE_CPU,
    RESOURCE_NET_IN,
    RESOURCE_NET_OUT,
    ComputeServer,
    ServerStats,
)
from .spec import (
    DEFAULT_LINK,
    PAPER_MACHINES,
    LinkSpec,
    MachineRole,
    MachineSpec,
    PlatformSpec,
)

__all__ = [
    "Agent",
    "AgentStats",
    "ServerRegistration",
    "Client",
    "FaultTolerancePolicy",
    "MemoryModel",
    "SpeedNoiseModel",
    "FaultSchedule",
    "OutageWindow",
    "SlowdownWindow",
    "GridMiddleware",
    "MiddlewareConfig",
    "RunResult",
    "LoadMonitor",
    "LoadReport",
    "ComputeServer",
    "ServerStats",
    "RESOURCE_CPU",
    "RESOURCE_NET_IN",
    "RESOURCE_NET_OUT",
    "MachineSpec",
    "MachineRole",
    "LinkSpec",
    "PlatformSpec",
    "PAPER_MACHINES",
    "DEFAULT_LINK",
]
