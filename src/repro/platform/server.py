"""Ground-truth computational servers.

A :class:`ComputeServer` executes tasks under the shared-resource model of
Section 2.3: every task goes through an input-data transfer, a computation
and an output-data transfer; each phase is served by a processor-shared
resource of the server (``net_in``, ``cpu``, ``net_out``), with egalitarian
sharing.  The server additionally models:

* memory pressure: thrashing slowdown and collapse when the resident set
  exceeds memory + swap (:class:`~repro.platform.faults.MemoryModel`);
* CPU speed noise (:class:`~repro.platform.faults.SpeedNoiseModel`) which is
  what distinguishes the "real" execution from the HTM's idealised
  simulation, as in Table 1 of the paper;
* load-average tracking used by the monitors of the baseline MCT.

The server is the *ground truth*: the agent never reads its internal state
directly, only what monitors report (for MCT) or what the HTM predicts (for
the paper's heuristics).

The execution itself runs on the virtual-time fluid core
(:mod:`repro.simulation.fluid`): ``_sync_wakeup`` peeks the network's next
event in O(1) per resource and ``_advance`` costs O(log J) per completion, so
a heavily loaded server stays cheap to simulate even with thousands of
resident tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from ..errors import PlatformError, TaskRejected
from ..simulation import URGENT, Environment, FluidEvent, FluidNetwork, FluidStage
from ..workload.problems import PhaseCosts, ProblemCatalogue
from ..workload.tasks import Task
from .faults import MemoryModel, SpeedNoiseModel
from .spec import MachineSpec

__all__ = [
    "RESOURCE_NET_IN",
    "RESOURCE_CPU",
    "RESOURCE_NET_OUT",
    "ServerStats",
    "ComputeServer",
]

RESOURCE_NET_IN = "net_in"
RESOURCE_CPU = "cpu"
RESOURCE_NET_OUT = "net_out"

#: Time constant (seconds) of the exponentially-smoothed load average.
LOAD_AVERAGE_TAU = 60.0


@dataclass
class ServerStats:
    """Counters accumulated by a server during a run."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    collapses: int = 0
    outages: int = 0
    peak_cpu_tasks: int = 0
    peak_resident_mb: float = 0.0
    busy_compute_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "collapses": self.collapses,
            "outages": self.outages,
            "peak_cpu_tasks": self.peak_cpu_tasks,
            "peak_resident_mb": round(self.peak_resident_mb, 2),
            "busy_compute_seconds": round(self.busy_compute_seconds, 2),
        }


class ComputeServer:
    """A time-shared computational server of the client-agent-server model.

    Parameters
    ----------
    env:
        The discrete-event environment.
    spec:
        Machine description (Table 2 entry or a custom one).
    problems:
        Names of the problems this server can solve (its registration list).
    catalogue:
        The problem catalogue used to look up unloaded costs.
    memory_model / noise_model:
        Optional fault models; ``None`` disables them.
    rng:
        Random generator for the speed noise.
    """

    def __init__(
        self,
        env: Environment,
        spec: MachineSpec,
        problems: Iterable[str],
        catalogue: ProblemCatalogue,
        memory_model: Optional[MemoryModel] = None,
        noise_model: Optional[SpeedNoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.spec = spec
        self.name = spec.name
        self.catalogue = catalogue
        self._problems: Set[str] = set(problems)
        self.memory_model = memory_model if memory_model is not None else MemoryModel(enabled=False)
        self.noise_model = noise_model
        # repro: allow[DET-RNG] interactive convenience fallback only — every
        # campaign/experiment path passes a generator seeded from the root seed
        self._rng = rng if rng is not None else np.random.default_rng()

        self.network = FluidNetwork(
            {RESOURCE_NET_IN: 1.0, RESOURCE_CPU: float(spec.cpu_count), RESOURCE_NET_OUT: 1.0},
            time=env.now,
            per_job_caps={RESOURCE_CPU: 1.0},
        )
        self._base_cpu_capacity = float(spec.cpu_count)
        self._noise_factor = 1.0
        self._slowdown_factor = 1.0
        # Number of scheduled outage windows currently open.  A counter, not
        # a flag: the middleware fires every begin-callback before any
        # end-callback at a shared boundary instant, so touching windows
        # overlap here (depth 1 → 2 → 1) and the server stays down
        # continuously as long as *any* window is open.
        self._outage_depth = 0
        # Simulated date a pending memory-collapse recovery is due, or None.
        # An outage window closing earlier must not cut this downtime short.
        self._collapse_recovery_at: Optional[float] = None
        self._up = True
        self._tasks: Dict[str, Task] = {}
        self._resident_mb = 0.0
        self._wake_token = 0

        self._load_ema = 0.0
        self._load_ema_time = env.now
        self._last_compute_count = 0
        self._last_compute_time = env.now

        self.stats = ServerStats()

        #: Callbacks ``f(task, time)`` invoked on successful completion.
        self.on_completion: List[Callable[[Task, float], None]] = []
        #: Callbacks ``f(task, time, reason)`` invoked when a task fails.
        self.on_failure: List[Callable[[Task, float, str], None]] = []
        #: Callbacks ``f(server, time)`` invoked when the server collapses.
        self.on_collapse: List[Callable[["ComputeServer", float], None]] = []
        #: Callbacks ``f(server, time)`` invoked when the server recovers.
        self.on_recovery: List[Callable[["ComputeServer", float], None]] = []

        if self.noise_model is not None and self.noise_model.enabled:
            env.call_in(0.0, self._schedule_noise_tick, priority=URGENT)

    # ------------------------------------------------------------------ #
    # introspection (used by monitors and tests, never by heuristics directly)
    # ------------------------------------------------------------------ #
    @property
    def is_up(self) -> bool:
        """Whether the server is currently registered and accepting tasks."""
        return self._up

    def can_solve(self, problem_name: str) -> bool:
        """Whether the server registered the given problem."""
        return problem_name in self._problems

    def cpu_task_count(self) -> int:
        """Number of tasks currently in their computation phase."""
        self._advance(self.env.now)
        return self.network.active_count(RESOURCE_CPU)

    def resident_task_count(self) -> int:
        """Number of tasks currently resident on the server (any phase)."""
        self._advance(self.env.now)
        return len(self._tasks)

    def resident_memory_mb(self) -> float:
        """Memory currently held by resident tasks."""
        self._advance(self.env.now)
        return self._resident_mb

    def load_average(self) -> float:
        """Exponentially smoothed number of tasks in the compute phase.

        This emulates the UNIX one-minute load average that NetSolve servers
        report to the agent.
        """
        self._advance(self.env.now)
        self._update_load_ema()
        return self._load_ema

    def cpu_capacity(self) -> float:
        """Current effective CPU capacity (1.0 = nominal unloaded speed)."""
        return self.network.capacity(RESOURCE_CPU)

    def costs_for(self, problem_name: str) -> PhaseCosts:
        """Unloaded costs of a problem on this server."""
        problem = self.catalogue.get(problem_name)
        return problem.costs_on(
            self.name, speed_mflops=self.spec.speed_mflops
        )

    def costs_for_problem_spec(self, problem) -> PhaseCosts:
        """Unloaded costs of a :class:`~repro.workload.problems.ProblemSpec`.

        This is the static information the server hands to the agent when it
        registers; the Historical Trace Manager uses it as its costs provider.
        """
        return problem.costs_on(self.name, speed_mflops=self.spec.speed_mflops)

    # ------------------------------------------------------------------ #
    # task submission
    # ------------------------------------------------------------------ #
    def submit(self, task: Task) -> None:
        """Start executing ``task`` on this server (input transfer begins now).

        Raises
        ------
        TaskRejected
            If the server is down, does not know the problem, or rejects the
            task for lack of memory (when the memory model is in "reject"
            mode).  The caller (middleware) decides whether to retry.
        """
        now = self.env.now
        self._advance(now)
        if not self._up:
            self.stats.rejected += 1
            raise TaskRejected(self.name, task.task_id, "server is down")
        if not self.can_solve(task.problem.name):
            self.stats.rejected += 1
            raise TaskRejected(self.name, task.task_id, f"cannot solve {task.problem.name}")
        if task.task_id in self._tasks:
            raise PlatformError(f"task {task.task_id} is already running on {self.name}")

        memory_needed = task.problem.memory_mb if self.memory_model.enabled else 0.0
        would_be_resident = self._resident_mb + memory_needed
        if (
            self.memory_model.enabled
            and not self.memory_model.collapse
            and would_be_resident > self.spec.collapse_threshold_mb
        ):
            self.stats.rejected += 1
            raise TaskRejected(self.name, task.task_id, "not enough memory")

        costs = self.costs_for_problem_spec(task.problem)
        stages = (
            FluidStage(RESOURCE_NET_IN, costs.input_s),
            FluidStage(RESOURCE_CPU, costs.compute_s),
            FluidStage(RESOURCE_NET_OUT, costs.output_s),
        )
        self._tasks[task.task_id] = task
        self._resident_mb += memory_needed
        self.stats.submitted += 1
        self.stats.peak_resident_mb = max(self.stats.peak_resident_mb, self._resident_mb)
        if task.attempts and task.attempts[-1].server == self.name:
            if task.attempts[-1].started_at is None:
                task.attempts[-1].started_at = now
            task.attempts[-1].unloaded_costs = costs

        events = self.network.add_task(task.task_id, arrival=now, stages=stages, now=now)
        self._handle_events(events)
        self._refresh_cpu_capacity()

        if (
            self.memory_model.enabled
            and self.memory_model.collapse
            and self._resident_mb > self.spec.collapse_threshold_mb
        ):
            # The new task pushed the server past memory + swap: it collapses.
            self._collapse(now)
            return

        self._sample_compute_count()
        self._sync_wakeup()

    # ------------------------------------------------------------------ #
    # time evolution
    # ------------------------------------------------------------------ #
    def _advance(self, now: float) -> None:
        """Advance the fluid network to ``now`` and process what happened."""
        if now <= self.network.time:
            return
        events = self.network.advance_to(now)
        self._handle_events(events)

    def _handle_events(self, events: List[FluidEvent]) -> None:
        for event in events:
            task = self._tasks.get(event.key)
            if task is None:
                continue
            attempt = task.attempts[-1] if task.attempts else None
            if attempt is not None and attempt.server == self.name:
                if event.stage_index == 0 and not event.task_finished:
                    attempt.input_done_at = event.time
                elif event.stage_index == 1 and not event.task_finished:
                    attempt.compute_done_at = event.time
            if event.task_finished:
                self._complete_task(task, event.time)

    def _complete_task(self, task: Task, at: float) -> None:
        self._tasks.pop(task.task_id, None)
        self.network.forget(task.task_id)
        if self.memory_model.enabled:
            self._resident_mb = max(0.0, self._resident_mb - task.problem.memory_mb)
        costs = self.costs_for_problem_spec(task.problem)
        self.stats.completed += 1
        self.stats.busy_compute_seconds += costs.compute_s
        task.mark_completed(at)
        self._refresh_cpu_capacity()
        self._sample_compute_count()
        for callback in list(self.on_completion):
            callback(task, at)
        self._sync_wakeup()

    # ------------------------------------------------------------------ #
    # collapse / recovery
    # ------------------------------------------------------------------ #
    def _go_down(self, now: float, reason: str) -> None:
        """Take the server down, failing every resident task with ``reason``."""
        self._up = False
        victims = list(self._tasks.values())
        self._tasks.clear()
        self._resident_mb = 0.0
        for task in victims:
            if task.task_id in self.network:
                self.network.remove_task(task.task_id, now)
            task.mark_failed(now, f"server {self.name} {reason}")
            self.stats.failed += 1
        self._refresh_cpu_capacity()
        for callback in list(self.on_collapse):
            callback(self, now)
        for task in victims:
            for callback in list(self.on_failure):
                callback(task, now, reason)

    def _collapse(self, now: float) -> None:
        self.stats.collapses += 1
        self._go_down(now, "collapsed (out of memory)")
        # Schedule the recovery.
        self._collapse_recovery_at = now + self.memory_model.recovery_s
        self.env.call_in(self.memory_model.recovery_s, self._recover_from_collapse)

    def _recover_from_collapse(self) -> None:
        """The memory model's mandated downtime is over; recover unless a
        scheduled outage window is still holding the server down."""
        self._collapse_recovery_at = None
        self._recover()

    def _recover(self) -> None:
        if self._outage_depth > 0:
            return  # a scheduled outage window is still open; stay down
        if self._up:
            return  # already recovered (e.g. an outage ended before this timer)
        self._up = True
        for callback in list(self.on_recovery):
            callback(self, self.env.now)
        self._sync_wakeup()

    # ------------------------------------------------------------------ #
    # scheduled faults (scenario fault/churn schedules)
    # ------------------------------------------------------------------ #
    def begin_outage(self) -> None:
        """Start a scheduled outage: resident tasks fail, server goes down.

        Unlike a memory collapse, no recovery is scheduled here — the caller
        (the middleware's fault-schedule wiring) calls :meth:`end_outage` at
        the end of the window.  Calling this while already down (e.g. during
        a collapse recovery) only extends the downtime.
        """
        now = self.env.now
        self._advance(now)
        self.stats.outages += 1
        self._outage_depth += 1
        if self._up:
            self._go_down(now, "outage (scheduled)")
        # else: already down; the outage merely overlaps the collapse.

    def end_outage(self) -> None:
        """End one scheduled outage window; the server re-registers with the
        agent once no window remains open *and* no collapse downtime is still
        pending (an outage overlapping a collapse only extends the downtime,
        never shortens the memory model's ``recovery_s``)."""
        self._outage_depth = max(0, self._outage_depth - 1)
        if self._outage_depth > 0 or self._up or self._collapse_recovery_at is not None:
            return
        self._recover()

    def set_slowdown(self, factor: float) -> None:
        """Multiply the CPU capacity by ``factor`` (1.0 restores nominal speed).

        Composes multiplicatively with the speed-noise and thrashing models;
        takes effect immediately for every resident task (fluid capacities are
        piecewise constant).
        """
        if factor <= 0:
            raise PlatformError("slowdown factor must be strictly positive")
        now = self.env.now
        self._advance(now)
        self._slowdown_factor = float(factor)
        self._refresh_cpu_capacity()
        self._sync_wakeup()

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #
    def _refresh_cpu_capacity(self) -> None:
        thrash = self.memory_model.thrash_factor(self._resident_mb, self.spec.usable_memory_mb)
        per_cpu_speed = self._noise_factor * thrash * self._slowdown_factor
        capacity = self._base_cpu_capacity * per_cpu_speed
        if abs(capacity - self.network.capacity(RESOURCE_CPU)) > 1e-12:
            events = self.network.set_capacity(
                RESOURCE_CPU, capacity, self.env.now, per_job_cap=per_cpu_speed
            )
            self._handle_events(events)

    def _schedule_noise_tick(self) -> None:
        assert self.noise_model is not None
        self.env.call_in(self.noise_model.period_s, self._noise_tick)

    def _noise_tick(self) -> None:
        """Redraw the CPU speed noise factor, then schedule the next redraw."""
        self._advance(self.env.now)
        self._noise_factor = self.noise_model.draw_factor(self._rng)
        self._refresh_cpu_capacity()
        self._sync_wakeup()
        self._schedule_noise_tick()

    # ------------------------------------------------------------------ #
    # wakeup bookkeeping
    # ------------------------------------------------------------------ #
    def _sync_wakeup(self) -> None:
        """(Re)schedule a wakeup at the next internal event of the network."""
        t_next = self.network.next_event_time()
        if t_next == math.inf:
            return
        self._wake_token += 1
        self.env.call_in(
            max(0.0, t_next - self.env.now), partial(self._on_wakeup, self._wake_token)
        )

    def _on_wakeup(self, token: int) -> None:
        if token != self._wake_token:
            return  # a newer wakeup superseded this one
        self._advance(self.env.now)
        self._sync_wakeup()

    # ------------------------------------------------------------------ #
    # load average bookkeeping
    # ------------------------------------------------------------------ #
    def _sample_compute_count(self) -> None:
        self._update_load_ema()
        self._last_compute_count = self.network.active_count(RESOURCE_CPU)

    def _update_load_ema(self) -> None:
        now = self.env.now
        dt = now - self._load_ema_time
        if dt > 0:
            alpha = math.exp(-dt / LOAD_AVERAGE_TAU)
            current = self.network.active_count(RESOURCE_CPU)
            self._load_ema = current + (self._load_ema - current) * alpha
            self._load_ema_time = now

    def __repr__(self) -> str:
        return (
            f"<ComputeServer {self.name} up={self._up} resident={len(self._tasks)} "
            f"cpu_tasks={self.network.active_count(RESOURCE_CPU)}>"
        )
