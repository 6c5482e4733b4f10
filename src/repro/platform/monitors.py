"""Load monitors and the report bus.

In NetSolve "a server runs its own monitors" and periodically reports dynamic
information (current CPU load average, bandwidth, latency) to the agent
(Section 2.2).  The baseline MCT heuristic bases its decisions on these
reports; their *staleness* — a report only reflects the state at the time it
was sent, and the load is assumed constant afterwards — is precisely the
weakness the HTM removes.

:class:`LoadMonitor` is a self-rescheduling callback attached to one server:
every ``period`` seconds (plus optional jitter) it samples the server's
smoothed load average and delivers a :class:`LoadReport` to the agent after a
configurable network delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ..simulation import URGENT, Environment
from .server import ComputeServer

__all__ = ["LoadReport", "LoadMonitor"]


@dataclass(frozen=True)
class LoadReport:
    """One report sent by a server's monitor to the agent."""

    server: str
    #: Smoothed number of tasks in the compute phase (UNIX-style load average).
    load: float
    #: Number of tasks resident on the server (any phase), informational.
    resident_tasks: int
    #: Whether the server was up when the report was emitted.
    is_up: bool
    #: Date the report was emitted by the server.
    emitted_at: float
    #: Date the report reaches the agent (emitted_at + network delay).
    received_at: float


class LoadMonitor:
    """Periodic load reporting from one server to the agent.

    Parameters
    ----------
    env:
        Simulation environment.
    server:
        The monitored server.
    deliver:
        Callback invoked (at reception time) with each :class:`LoadReport`.
    period:
        Reporting period in seconds (NetSolve servers report periodically;
        30 s is the default used in the experiments).
    delay:
        Network delay between emission and reception.
    jitter:
        Uniform jitter (± seconds) added to each period to avoid lockstep
        reporting across servers.
    rng:
        Random generator for the jitter.
    """

    def __init__(
        self,
        env: Environment,
        server: ComputeServer,
        deliver: Callable[[LoadReport], None],
        period: float = 30.0,
        delay: float = 0.05,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if period <= 0:
            raise ValueError("period must be strictly positive")
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self.env = env
        self.server = server
        self.deliver = deliver
        self.period = float(period)
        self.delay = float(delay)
        self.jitter = float(jitter)
        # repro: allow[DET-RNG] interactive convenience fallback only — every
        # campaign/experiment path passes a generator seeded from the root seed
        self._rng = rng if rng is not None else np.random.default_rng()
        self.reports_sent = 0
        # An initial report at (roughly) time zero, as servers register with
        # their state when they join the agent.
        env.call_in(0.0, self._tick, priority=URGENT)

    def _emit(self) -> None:
        report = LoadReport(
            server=self.server.name,
            load=self.server.load_average(),
            resident_tasks=self.server.resident_task_count(),
            is_up=self.server.is_up,
            emitted_at=self.env.now,
            received_at=self.env.now + self.delay,
        )
        self.reports_sent += 1
        if self.delay <= 0:
            self.deliver(report)
        else:
            self.env.call_in(self.delay, partial(self.deliver, report))

    def _tick(self) -> None:
        """Emit one report, then schedule the next one a (jittered) period later."""
        self._emit()
        period = self.period
        if self.jitter > 0:
            period = max(0.1, period + float(self._rng.uniform(-self.jitter, self.jitter)))
        self.env.call_in(period, self._tick)
