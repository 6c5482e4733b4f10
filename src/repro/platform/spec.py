"""Static platform descriptions.

Machines and links of the simulated testbed.  :data:`PAPER_MACHINES` encodes
Table 2 of the paper (the six LORIA machines, the agent and the client).
A :class:`PlatformSpec` groups a set of machines and links with the roles
each one plays; factories for the paper's two experiment sets are in
:mod:`repro.workload.testbed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import PlatformError

__all__ = [
    "MachineRole",
    "MachineSpec",
    "LinkSpec",
    "PlatformSpec",
    "PAPER_MACHINES",
    "DEFAULT_LINK",
]


class MachineRole:
    """Roles a machine can play in the client-agent-server model."""

    SERVER = "server"
    AGENT = "agent"
    CLIENT = "client"


@dataclass(frozen=True)
class MachineSpec:
    """Description of one machine of the testbed (one row of Table 2).

    Parameters
    ----------
    name:
        Host name (e.g. ``"artimon"``).
    processor:
        Human-readable CPU description.
    speed_mhz:
        Clock speed, used only to derive a generic speed for problems without
        a measured cost entry.
    memory_mb / swap_mb:
        Physical memory and swap space, in MB (the collapse model of Table 6
        depends on these).
    role:
        ``"server"``, ``"agent"`` or ``"client"``.
    os_reserved_mb:
        Memory considered unavailable to tasks (OS, NetSolve daemon...).
    speed_mflops:
        Abstract compute speed for the generic cost model; defaults to a value
        proportional to ``speed_mhz``.
    cpu_count:
        Number of processors.  Table 2 only marks the agent machine as
        dual-processor ("bipro"); servers default to 1.  With ``cpu_count=c``
        a task still runs at the single-CPU speed measured in Tables 3/4, but
        up to *c* tasks compute without slowing each other down.
    """

    name: str
    processor: str
    speed_mhz: float
    memory_mb: float
    swap_mb: float
    role: str = MachineRole.SERVER
    os_reserved_mb: float = 64.0
    speed_mflops: Optional[float] = None
    cpu_count: int = 1

    def __post_init__(self) -> None:
        if self.speed_mhz <= 0:
            raise ValueError("speed_mhz must be strictly positive")
        if self.memory_mb < 0 or self.swap_mb < 0:
            raise ValueError("memory_mb and swap_mb must be non-negative")
        if self.role not in (MachineRole.SERVER, MachineRole.AGENT, MachineRole.CLIENT):
            raise ValueError(f"unknown machine role {self.role!r}")
        if self.cpu_count < 1:
            raise ValueError("cpu_count must be at least 1")
        if self.speed_mflops is None:
            object.__setattr__(self, "speed_mflops", self.speed_mhz * 0.6)

    @property
    def usable_memory_mb(self) -> float:
        """Physical memory available to tasks."""
        return max(0.0, self.memory_mb - self.os_reserved_mb)

    @property
    def collapse_threshold_mb(self) -> float:
        """Resident memory above which the machine collapses (memory + swap)."""
        return self.usable_memory_mb + self.swap_mb

    def with_role(self, role: str) -> "MachineSpec":
        """Return a copy of the spec with a different role."""
        return replace(self, role=role)


@dataclass(frozen=True)
class LinkSpec:
    """A network link between two machines.

    NetSolve computes the communication time as ``size / bandwidth + latency``
    (Section 2.2); the ground-truth model additionally shares the bandwidth
    equally among concurrent transfers on the same link.
    """

    bandwidth_mb_s: float = 10.0
    latency_s: float = 0.005

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ValueError("bandwidth_mb_s must be strictly positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")

    def transfer_time(self, size_mb: float) -> float:
        """NetSolve's estimate of the time to move ``size_mb`` MB alone."""
        return size_mb / self.bandwidth_mb_s + self.latency_s


#: Default LAN link used when a pair of machines has no explicit entry.
DEFAULT_LINK = LinkSpec(bandwidth_mb_s=10.0, latency_s=0.005)


#: Table 2 of the paper: the machines of the LORIA testbed.
PAPER_MACHINES: Dict[str, MachineSpec] = {
    "chamagne": MachineSpec("chamagne", "pentium II", 330.0, 512.0, 134.0, MachineRole.SERVER),
    "cabestan": MachineSpec("cabestan", "pentium III", 500.0, 192.0, 400.0, MachineRole.SERVER),
    "artimon": MachineSpec("artimon", "pentium IV", 1700.0, 512.0, 1024.0, MachineRole.SERVER),
    "pulney": MachineSpec("pulney", "xeon", 1400.0, 256.0, 533.0, MachineRole.SERVER),
    "valette": MachineSpec("valette", "pentium II", 400.0, 128.0, 126.0, MachineRole.SERVER),
    "spinnaker": MachineSpec("spinnaker", "xeon", 2000.0, 1024.0, 2048.0, MachineRole.SERVER),
    "xrousse": MachineSpec(
        "xrousse", "pentium II bipro", 400.0, 512.0, 512.0, MachineRole.AGENT, cpu_count=2
    ),
    "zanzibar": MachineSpec("zanzibar", "pentium III", 550.0, 256.0, 500.0, MachineRole.CLIENT),
}


@dataclass(frozen=True)
class PlatformSpec:
    """A full platform: machines, their roles, and the links between them.

    Parameters
    ----------
    machines:
        Mapping name → :class:`MachineSpec`.  Exactly one machine must have
        the agent role; at least one must be a server and one a client.
    links:
        Optional mapping ``(from, to)`` → :class:`LinkSpec`; missing pairs use
        ``default_link``.  Links are looked up symmetrically.
    default_link:
        Fallback link characteristics.
    """

    machines: Mapping[str, MachineSpec]
    links: Mapping[Tuple[str, str], LinkSpec] = field(default_factory=dict)
    default_link: LinkSpec = DEFAULT_LINK

    def __post_init__(self) -> None:
        if not self.machines:
            raise PlatformError("a platform needs at least one machine")
        for name, spec in self.machines.items():
            if name != spec.name:
                raise PlatformError(f"machine key {name!r} does not match spec name {spec.name!r}")
        if len(self.agent_names()) != 1:
            raise PlatformError("a platform needs exactly one agent machine")
        if not self.server_names():
            raise PlatformError("a platform needs at least one server machine")
        if not self.client_names():
            raise PlatformError("a platform needs at least one client machine")

    # ------------------------------------------------------------------ #
    def _names_with_role(self, role: str) -> Tuple[str, ...]:
        return tuple(name for name, spec in self.machines.items() if spec.role == role)

    def server_names(self) -> Tuple[str, ...]:
        """Names of the server machines, in declaration order."""
        return self._names_with_role(MachineRole.SERVER)

    def client_names(self) -> Tuple[str, ...]:
        """Names of the client machines, in declaration order."""
        return self._names_with_role(MachineRole.CLIENT)

    def agent_names(self) -> Tuple[str, ...]:
        """Names of the agent machines (exactly one for a valid platform)."""
        return self._names_with_role(MachineRole.AGENT)

    @property
    def agent_name(self) -> str:
        """Name of the (unique) agent machine."""
        return self.agent_names()[0]

    def machine(self, name: str) -> MachineSpec:
        """The spec of machine ``name``."""
        try:
            return self.machines[name]
        except KeyError:
            raise PlatformError(f"unknown machine {name!r}") from None

    def link(self, a: str, b: str) -> LinkSpec:
        """The link between machines ``a`` and ``b`` (symmetric lookup)."""
        if (a, b) in self.links:
            return self.links[(a, b)]
        if (b, a) in self.links:
            return self.links[(b, a)]
        return self.default_link

    def subset(self, server_names: Iterable[str]) -> "PlatformSpec":
        """Return a platform restricted to the given servers (agent/clients kept)."""
        keep = set(server_names)
        unknown = keep - set(self.server_names())
        if unknown:
            raise PlatformError(f"unknown servers {sorted(unknown)}")
        machines = {
            name: spec
            for name, spec in self.machines.items()
            if spec.role != MachineRole.SERVER or name in keep
        }
        links = {
            pair: link
            for pair, link in self.links.items()
            if pair[0] in machines and pair[1] in machines
        }
        return PlatformSpec(machines=machines, links=links, default_link=self.default_link)

    def __repr__(self) -> str:
        return (
            f"<PlatformSpec servers={list(self.server_names())} agent={self.agent_name} "
            f"clients={list(self.client_names())}>"
        )
